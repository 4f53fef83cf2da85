package merge

import "f3m/internal/ir"

// CallIndex tracks, for every function in a module, the direct call and
// invoke sites that reference it and the number of non-callee
// (address-taken) uses. Commit consults the module-wide structures on
// every committed merge; without an index that is a full module walk
// per commit, which turns whole-module merging quadratic — exactly the
// kind of cost this paper is about. The pipeline builds one index per
// run and keeps it current across commits.
type CallIndex struct {
	sites   map[*ir.Function]map[*ir.Instr]struct{}
	nonCall map[*ir.Function]int
}

// NewCallIndex scans the module once.
func NewCallIndex(m *ir.Module) *CallIndex {
	ci := &CallIndex{
		sites:   make(map[*ir.Function]map[*ir.Instr]struct{}),
		nonCall: make(map[*ir.Function]int),
	}
	for _, f := range m.Funcs {
		ci.AddFunction(f)
	}
	return ci
}

// AddFunction indexes every reference made by f's body.
func (ci *CallIndex) AddFunction(f *ir.Function) {
	f.Instructions(func(in *ir.Instr) { ci.addInstr(in) })
}

// RemoveFunction drops every reference made by f's body (call before
// deleting f from the module).
func (ci *CallIndex) RemoveFunction(f *ir.Function) {
	f.Instructions(func(in *ir.Instr) { ci.removeInstr(in) })
}

func (ci *CallIndex) addInstr(in *ir.Instr) {
	for i, op := range in.Operands {
		callee, ok := op.(*ir.Function)
		if !ok {
			continue
		}
		if (in.Op == ir.OpCall || in.Op == ir.OpInvoke) && i == 0 {
			set := ci.sites[callee]
			if set == nil {
				set = make(map[*ir.Instr]struct{})
				ci.sites[callee] = set
			}
			set[in] = struct{}{}
		} else {
			ci.nonCall[callee]++
		}
	}
}

func (ci *CallIndex) removeInstr(in *ir.Instr) {
	for i, op := range in.Operands {
		callee, ok := op.(*ir.Function)
		if !ok {
			continue
		}
		if (in.Op == ir.OpCall || in.Op == ir.OpInvoke) && i == 0 {
			if set := ci.sites[callee]; set != nil {
				delete(set, in)
			}
		} else if ci.nonCall[callee] > 0 {
			ci.nonCall[callee]--
		}
	}
}

// CallSites returns the current direct call sites of f.
func (ci *CallIndex) CallSites(f *ir.Function) []*ir.Instr {
	set := ci.sites[f]
	out := make([]*ir.Instr, 0, len(set))
	for in := range set {
		out = append(out, in)
	}
	return out
}

// NumCallSites reports how many direct call sites reference f (the
// profitability model's input).
func (ci *CallIndex) NumCallSites(f *ir.Function) int { return len(ci.sites[f]) }

// HasNonCallUses reports whether f's address is taken anywhere.
func (ci *CallIndex) HasNonCallUses(f *ir.Function) bool { return ci.nonCall[f] > 0 }

// rewriteCalls applies rewrite to every call site of old and re-indexes
// each rewritten instruction (the callee operand changes).
func (ci *CallIndex) rewriteCalls(old *ir.Function, rewrite func(*ir.Instr)) {
	for _, in := range ci.CallSites(old) {
		ci.removeInstr(in)
		rewrite(in)
		ci.addInstr(in)
	}
}
