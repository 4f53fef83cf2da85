package analysis

import (
	"sort"

	"f3m/internal/ir"
	"f3m/internal/merge"
)

// refIndex is the merge auditor's live reverse-reference index: for
// every function body in the module, the functions it names as
// operands (callee slots and address-taken uses alike), and the reverse
// edges with counts. One module walk builds it on a module's first
// audit; after that each audit re-indexes only the functions its commit
// names, so an audit costs O(functions the commit touched + referrers
// of the functions it deleted) instead of O(module).
type refIndex struct {
	mod *ir.Module

	// out lists, per indexed body, every function operand it holds,
	// one entry per operand slot.
	out map[*ir.Function][]*ir.Function

	// in counts, per referenced function, the operand slots naming it
	// in each referring body.
	in map[*ir.Function]map[*ir.Function]int

	// dangling holds the referenced functions found missing from the
	// module and still referenced when last checked. Their referrers
	// are re-scanned on every audit until the references go, as the
	// module-wide walk this index replaces re-reported them.
	dangling map[*ir.Function]bool
}

func present(m *ir.Module, f *ir.Function) bool { return m.Func(f.Name()) == f }

// newRefIndex indexes every function of m in one walk.
func newRefIndex(m *ir.Module) *refIndex {
	ri := &refIndex{
		mod:      m,
		out:      make(map[*ir.Function][]*ir.Function, len(m.Funcs)),
		in:       make(map[*ir.Function]map[*ir.Function]int, len(m.Funcs)),
		dangling: make(map[*ir.Function]bool),
	}
	for _, f := range m.Funcs {
		ri.add(f)
	}
	return ri
}

// add indexes the current body of f, which must be in the module,
// reusing the storage of f's previous entry.
func (ri *refIndex) add(f *ir.Function) {
	refs := ri.out[f][:0]
	f.Instructions(func(in *ir.Instr) {
		for _, op := range in.Operands {
			if t, ok := op.(*ir.Function); ok {
				refs = append(refs, t)
			}
		}
	})
	for _, t := range refs {
		by := ri.in[t]
		if by == nil {
			by = make(map[*ir.Function]int)
			ri.in[t] = by
		}
		by[f]++
		if !present(ri.mod, t) {
			ri.dangling[t] = true
		}
	}
	ri.out[f] = refs
}

// reindex brings f's entry up to date: the references its old body
// held go, and its current body is indexed if f is still in the module.
func (ri *refIndex) reindex(f *ir.Function) {
	for _, t := range ri.out[f] {
		by := ri.in[t]
		if by[f]--; by[f] == 0 {
			delete(by, f)
			if len(by) == 0 {
				delete(ri.in, t)
			}
		}
	}
	if present(ri.mod, f) {
		ri.add(f)
	} else {
		delete(ri.out, f)
	}
}

// auditScope updates the manager's reference index for the commit info
// describes and returns the functions whose bodies the audit must scan:
// on a module's first audit every function, in module order; after
// that, the functions the commit touched that are still in the module
// plus every referrer of a function missing from it, sorted by name.
// Callers of a deleted original that the commit failed to rewrite sit
// outside info's footprint; the index, not the commit record, finds
// them.
func (mgr *Manager) auditScope(m *ir.Module, info *merge.CommitInfo) []*ir.Function {
	ri := mgr.refs
	if ri == nil || ri.mod != m {
		mgr.refs = newRefIndex(m)
		return m.Funcs
	}
	touched := append([]*ir.Function{info.Merged, info.A.Fn, info.B.Fn}, info.Callers...)
	scope := make(map[*ir.Function]bool, len(touched))
	for _, f := range touched {
		ri.reindex(f)
		if present(m, f) {
			scope[f] = true
		} else {
			// Deleted: bodies the commit did not touch may still name it.
			ri.dangling[f] = true
		}
	}
	for t := range ri.dangling { // lintmap:ignore scope is sorted below
		if len(ri.in[t]) == 0 || present(m, t) {
			delete(ri.dangling, t)
			continue
		}
		for f := range ri.in[t] { // lintmap:ignore scope is sorted below
			if present(m, f) {
				scope[f] = true
			}
		}
	}
	out := make([]*ir.Function, 0, len(scope))
	for f := range scope { // lintmap:ignore sorted before return
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}
