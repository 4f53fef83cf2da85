package analysis

import "f3m/internal/ir"

// RefIndexState is a comparable copy of a reference index: the
// functions whose bodies it indexes, the referrer counts per
// referenced function, and the referenced functions missing from the
// module.
type RefIndexState struct {
	Indexed  map[*ir.Function]bool
	In       map[*ir.Function]map[*ir.Function]int
	Dangling map[*ir.Function]bool
}

func (ri *refIndex) state() RefIndexState {
	st := RefIndexState{
		Indexed:  make(map[*ir.Function]bool, len(ri.out)),
		In:       make(map[*ir.Function]map[*ir.Function]int, len(ri.in)),
		Dangling: make(map[*ir.Function]bool, len(ri.dangling)),
	}
	for f := range ri.out { // lintmap:ignore builds a map
		st.Indexed[f] = true
	}
	for t, by := range ri.in { // lintmap:ignore builds a map
		st.In[t] = make(map[*ir.Function]int, len(by))
		for f, n := range by { // lintmap:ignore builds a map
			st.In[t][f] = n
		}
	}
	for t := range ri.dangling { // lintmap:ignore builds a map
		st.Dangling[t] = true
	}
	return st
}

// LiveRefIndex returns the state of mgr's live reference index and the
// module it describes (nil before the first audit).
func LiveRefIndex(mgr *Manager) (RefIndexState, *ir.Module) {
	if mgr.refs == nil {
		return RefIndexState{}, nil
	}
	return mgr.refs.state(), mgr.refs.mod
}

// RebuiltRefIndex returns the state of a reference index built from
// scratch over m.
func RebuiltRefIndex(m *ir.Module) RefIndexState { return newRefIndex(m).state() }

// SetAfterIndexUpdate installs fn to run in every AuditCommit right
// after the reference index is updated, and returns a func restoring
// the previous hook.
func SetAfterIndexUpdate(fn func(*Manager, *ir.Module)) (restore func()) {
	prev := afterIndexUpdate
	afterIndexUpdate = fn
	return func() { afterIndexUpdate = prev }
}
