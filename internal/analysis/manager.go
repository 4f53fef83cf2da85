package analysis

import (
	"f3m/internal/align"
	"f3m/internal/analysis/dataflow"
	"f3m/internal/ir"
)

// FuncFacts bundles the per-function analyses the checkers consume.
// Facts describe the function at the time they were computed; the
// Manager caches them until the function is invalidated.
type FuncFacts struct {
	Fn *ir.Function

	// Preds is the CFG predecessor map.
	Preds map[*ir.Block][]*ir.Block

	// Dom is the dominator tree (Reachable doubles as the
	// reachable-block set).
	Dom *ir.DomTree

	// Uses counts, for every instruction result in the function, how
	// many operand slots reference it.
	Uses map[*ir.Instr]int

	// LiveIn and LiveOut are the per-block liveness sets over
	// instruction results and parameters: a value is live-in when some
	// path from the block start reaches a use before any redefinition
	// (SSA values have none, so this is plain upward-exposed-use
	// dataflow). Computed by dataflow.Liveness.
	LiveIn, LiveOut map[*ir.Block]map[ir.Value]bool

	// reach, slotLive and sccp are the lazily computed dataflow results
	// behind Manager.Reaching, Manager.SlotLiveness and Manager.SCCP.
	reach    *dataflow.ReachResult
	slotLive *dataflow.SlotLivenessResult
	sccp     *dataflow.SCCPResult

	// canon is the lazily computed canonical block order behind
	// Manager.Canon.
	canon *align.CanonOrder
}

// CallGraph is the module's direct-call structure plus address-taken
// information, built in one walk.
type CallGraph struct {
	// Callees lists, without duplicates, the functions each definition
	// calls directly.
	Callees map[*ir.Function][]*ir.Function

	// Callers is the reverse edge set.
	Callers map[*ir.Function][]*ir.Function

	// AddressTaken marks functions referenced outside a callee slot.
	AddressTaken map[*ir.Function]bool
}

// Manager computes and caches analysis facts. It is not safe for
// concurrent use; the pipeline runs checkers from its sequential
// commit loop and the pre/post phases, which keeps diagnostic output
// deterministic for every Workers setting.
type Manager struct {
	funcs map[*ir.Function]*FuncFacts
	cg    *CallGraph
	cgMod *ir.Module

	// refs is the merge auditor's live reference index (see refIndex).
	refs *refIndex
}

// NewManager returns an empty fact cache.
func NewManager() *Manager {
	return &Manager{funcs: make(map[*ir.Function]*FuncFacts)}
}

// Facts returns the cached facts for f, computing them on first use.
func (mgr *Manager) Facts(f *ir.Function) *FuncFacts {
	if ff, ok := mgr.funcs[f]; ok {
		return ff
	}
	ff := computeFuncFacts(f)
	mgr.funcs[f] = ff
	return ff
}

// Reaching returns the cached reaching-definitions fixpoint of f,
// computing it on first use; Invalidate drops it with the other facts.
func (mgr *Manager) Reaching(f *ir.Function) *dataflow.ReachResult {
	ff := mgr.Facts(f)
	if ff.reach == nil {
		ff.reach = dataflow.ReachingDefs(f)
	}
	return ff.reach
}

// SlotLiveness returns the cached slot-liveness fixpoint of f (dead
// stores into tracked allocas), computing it on first use.
func (mgr *Manager) SlotLiveness(f *ir.Function) *dataflow.SlotLivenessResult {
	ff := mgr.Facts(f)
	if ff.slotLive == nil {
		ff.slotLive = dataflow.SlotLiveness(f)
	}
	return ff.slotLive
}

// SCCP returns the cached assumption-free sparse-conditional-constant
// fixpoint of f, computing it on first use. Specialization under an
// assume map (the translation validator's use) is not cacheable and
// calls dataflow.SCCP directly.
func (mgr *Manager) SCCP(f *ir.Function) *dataflow.SCCPResult {
	ff := mgr.Facts(f)
	if ff.sccp == nil {
		ff.sccp = dataflow.SCCP(f, nil)
	}
	return ff.sccp
}

// Canon returns the cached canonical block order of f (see
// align.Canonicalize), computed on first use from the cached dominator
// tree so CFG-aware fingerprinting and the post-commit checkers share
// one tree per function. Invalidate drops it with the other facts.
func (mgr *Manager) Canon(f *ir.Function) *align.CanonOrder {
	ff := mgr.Facts(f)
	if ff.canon == nil {
		ff.canon = align.Canonicalize(f, ff.Dom)
	}
	return ff.canon
}

// Invalidate drops the cached facts of f (call after mutating it).
func (mgr *Manager) Invalidate(f *ir.Function) {
	delete(mgr.funcs, f)
}

// CallGraphOf returns the module call graph, built on first use and
// cached for that module; switching modules rebuilds it. The cache is
// not invalidated when the module changes, so it serves readers of an
// unchanging module (summary extraction); the merge auditor keeps its
// own live index and the strict verifier builds a fresh membership set.
func (mgr *Manager) CallGraphOf(m *ir.Module) *CallGraph {
	if mgr.cg != nil && mgr.cgMod == m {
		return mgr.cg
	}
	mgr.cg = buildCallGraph(m)
	mgr.cgMod = m
	return mgr.cg
}

func computeFuncFacts(f *ir.Function) *FuncFacts {
	ff := &FuncFacts{
		Fn:      f,
		Preds:   f.Preds(),
		Dom:     ir.NewDomTree(f),
		Uses:    make(map[*ir.Instr]int),
		LiveIn:  make(map[*ir.Block]map[ir.Value]bool),
		LiveOut: make(map[*ir.Block]map[ir.Value]bool),
	}
	f.Instructions(func(in *ir.Instr) {
		for _, op := range in.Operands {
			if def, ok := op.(*ir.Instr); ok {
				ff.Uses[def]++
			}
		}
	})
	live := dataflow.Liveness(f)
	for _, b := range f.Blocks {
		ff.LiveIn[b] = live.In[b]
		ff.LiveOut[b] = live.Out[b]
	}
	return ff
}

func buildCallGraph(m *ir.Module) *CallGraph {
	cg := &CallGraph{
		Callees:      make(map[*ir.Function][]*ir.Function),
		Callers:      make(map[*ir.Function][]*ir.Function),
		AddressTaken: make(map[*ir.Function]bool),
	}
	for _, f := range m.Funcs {
		seen := make(map[*ir.Function]bool)
		f.Instructions(func(in *ir.Instr) {
			for i, op := range in.Operands {
				callee, ok := op.(*ir.Function)
				if !ok {
					continue
				}
				if (in.Op == ir.OpCall || in.Op == ir.OpInvoke) && i == 0 {
					if !seen[callee] {
						seen[callee] = true
						cg.Callees[f] = append(cg.Callees[f], callee)
						cg.Callers[callee] = append(cg.Callers[callee], f)
					}
				} else {
					cg.AddressTaken[callee] = true
				}
			}
		})
	}
	return cg
}
