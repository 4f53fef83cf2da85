// Package passes implements the scalar IR transformations the merging
// pipeline depends on:
//
//   - RegToMem demotes phi nodes to stack slots, producing the phi-free
//     form the merged-code generator consumes;
//   - DemoteValue breaks a single SSA use-def chain through memory,
//     implementing the Section III-E dominance-repair rules (including
//     the two cases HyFM originally got wrong);
//   - Mem2Reg promotes stack slots back to SSA with standard iterated
//     dominance-frontier phi placement;
//   - SimplifyCFG and DCE clean up the merged function.
package passes

import (
	"sync"

	"f3m/internal/ir"
)

// scePool recycles the per-call pred-edge counter of
// SplitCriticalEdges; the pass runs once per clone in the merge loop.
var scePool = sync.Pool{New: func() any { return make(map[*ir.Block]int, 32) }}

// SplitCriticalEdges splits every CFG edge whose source has multiple
// successors and whose destination has multiple predecessors, inserting
// a forwarding block. Phi incoming-block lists in destinations are
// rewritten to the new blocks. Returns the number of edges split.
func SplitCriticalEdges(f *ir.Function) int {
	// Count incoming CFG edges (with duplicate-edge multiplicity, like
	// len(f.Preds()[b])) without building predecessor lists.
	npreds := scePool.Get().(map[*ir.Block]int)
	defer scePool.Put(npreds)
	clear(npreds)
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil {
			continue
		}
		for i, ns := 0, t.NumSuccessors(); i < ns; i++ {
			npreds[t.Successor(i)]++
		}
	}
	split := 0
	// Collect first: we mutate the block list while iterating.
	type edge struct {
		from *ir.Block
		to   *ir.Block
	}
	var edges []edge
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil || t.NumSuccessors() < 2 {
			continue
		}
		for i, ns := 0, t.NumSuccessors(); i < ns; i++ {
			if s := t.Successor(i); npreds[s] >= 2 {
				edges = append(edges, edge{b, s})
			}
		}
	}
	if len(edges) == 0 {
		return 0
	}
	done := make(map[edge]bool, len(edges))
	for _, e := range edges {
		if done[e] {
			continue // duplicate edge (e.g. condbr with same target twice)
		}
		done[e] = true
		mid := f.NewBlock(e.from.Name() + "." + e.to.Name())
		bd := ir.NewBuilder(mid)
		bd.Br(e.to)
		e.from.Term().ReplaceSuccessor(e.to, mid)
		for _, phi := range e.to.Phis() {
			for i, ib := range phi.IncomingBlocks {
				if ib == e.from {
					phi.IncomingBlocks[i] = mid
				}
			}
		}
		split++
	}
	return split
}

// newInstr draws a zeroed instruction from ar, or the heap when ar is
// nil. The merge pipeline passes its clone arena so the slots, stores
// and loads these passes insert into short-lived clones recycle with
// the clone instead of churning the allocator.
func newInstr(ar *ir.CloneArena) *ir.Instr {
	if ar != nil {
		return ar.NewInstr()
	}
	return &ir.Instr{}
}

// RegToMem demotes every phi node of f to a stack slot: each incoming
// edge stores its value at the end of the (possibly split) predecessor,
// and the phi is replaced by a load. After RegToMem the function is
// phi-free, the precondition of merge code generation.
func RegToMem(f *ir.Function) int { return RegToMemIn(f, nil) }

// RegToMemIn is RegToMem drawing inserted instructions from ar (which
// may be nil).
func RegToMemIn(f *ir.Function, ar *ir.CloneArena) int {
	// Splitting critical edges first guarantees each incoming edge has
	// a predecessor block ending in an unconditional branch, so stores
	// always have a legal insertion point after any terminator-defined
	// incoming value.
	SplitCriticalEdges(f)

	var phis []*ir.Instr
	for _, b := range f.Blocks {
		phis = append(phis, b.Phis()...)
	}
	if len(phis) == 0 {
		return 0
	}
	entry := f.Entry()
	ctx := f.Parent.Ctx
	for _, phi := range phis {
		if len(phi.Operands) == 1 {
			// Single-edge phi: a plain copy. Replacing it directly also
			// sidesteps the only store placement with no legal point
			// (an invoke in the sole predecessor's terminator).
			b := phi.Parent
			idx := b.IndexOf(phi)
			b.Instrs = append(b.Instrs[:idx], b.Instrs[idx+1:]...)
			replaceAllUses(f, phi, phi.Operands[0])
			continue
		}
		slot := newInstr(ar)
		slot.Op, slot.Ty, slot.AllocTy = ir.OpAlloca, ctx.Pointer(phi.Ty), phi.Ty
		slot.Nam = f.FreshName(phi.Nam + ".slot")
		entry.InsertAt(0, slot)

		for i, v := range phi.Operands {
			pred := phi.IncomingBlocks[i]
			st := newInstr(ar)
			st.Op, st.Ty = ir.OpStore, ctx.Void
			st.Operands = append(st.Operands[:0], v, slot)
			insertStoreForEdge(pred, v, st)
		}

		// Replace the phi with a load at its position.
		b := phi.Parent
		idx := b.IndexOf(phi)
		ld := newInstr(ar)
		ld.Op, ld.Ty, ld.Nam = ir.OpLoad, phi.Ty, phi.Nam
		ld.Operands = append(ld.Operands[:0], slot)
		ld.Parent = b
		b.Instrs[idx] = ld
		replaceAllUses(f, phi, ld)
	}
	return len(phis)
}

// insertStoreForEdge places a store at the end of pred (before the
// terminator), but never before the definition of the stored value:
// if the value is defined by pred's own terminator (an invoke), the
// edge must have been split so this cannot occur after
// SplitCriticalEdges unless the invoke's destination has one
// predecessor, in which case the store goes at the top of that block —
// which is where the phi being demoted lives, so storing before the
// load position is handled by the caller ordering.
func insertStoreForEdge(pred *ir.Block, v ir.Value, st *ir.Instr) {
	at := len(pred.Instrs)
	if t := pred.Term(); t != nil {
		at = pred.IndexOf(t)
		if t == v {
			// Value produced by the terminator itself (invoke). With
			// critical edges split, pred has a single successor here;
			// the successor's head is the only legal point.
			succ := t.Successors()[0]
			succ.InsertAt(succ.FirstNonPhi(), st)
			return
		}
	}
	pred.InsertAt(at, st)
}

// replaceAllUses substitutes new for old in every instruction of f,
// new included: when new is a phi that used old (a phi cycle), that
// use becomes a self-reference instead of dangling once old is gone.
func replaceAllUses(f *ir.Function, old, new ir.Value) {
	f.Instructions(func(in *ir.Instr) {
		in.ReplaceUsesOfWith(old, new)
	})
}

// DemoteValue breaks the SSA def-use chains of value def through a
// stack slot, restoring the dominance property for uses the definition
// does not dominate. It implements the Section III-E placement rules:
//
//   - the store goes immediately after the definition; if the
//     definition is a phi node, after the block's last phi (HyFM bug
//     fix #1: storing at the end of the block while loads in the same
//     block read the slot earlier produced undefined behaviour);
//   - if the definition is an invoke, the store goes at the head of the
//     normal destination; when the use is a phi of that same successor
//     consuming the invoke's value along that edge, no store/load pair
//     is inserted at all (HyFM bug fix #2: there is no legal placement,
//     and none is needed because the SSA edge was never broken);
//   - loads are inserted immediately before each use, or before the
//     terminator of the incoming block when the use is a phi.
//
// Only the uses listed in `uses` are rewritten; pass nil to rewrite
// every use in the function.
func DemoteValue(f *ir.Function, def *ir.Instr, uses []*ir.Instr) *ir.Instr {
	return DemoteValueIn(f, nil, def, uses)
}

// DemoteValueIn is DemoteValue drawing the slot, store and load
// instructions from ar (which may be nil).
func DemoteValueIn(f *ir.Function, ar *ir.CloneArena, def *ir.Instr, uses []*ir.Instr) *ir.Instr {
	ctx := f.Parent.Ctx
	if uses == nil {
		f.Instructions(func(in *ir.Instr) {
			for _, op := range in.Operands {
				if op == ir.Value(def) {
					uses = append(uses, in)
					break
				}
			}
		})
	}

	// Plan the loads first: fix #2 can eliminate every rewrite, in
	// which case neither the slot nor the store must be emitted.
	type loadPlan struct {
		use *ir.Instr
		// opIdx >= 0 rewrites a single phi edge; -1 rewrites all
		// operands of a non-phi use.
		opIdx int
		block *ir.Block
	}
	var plans []loadPlan
	for _, use := range uses {
		if use.Op == ir.OpPhi {
			for i, op := range use.Operands {
				if op != ir.Value(def) {
					continue
				}
				in := use.IncomingBlocks[i]
				if def.Op == ir.OpInvoke && def.Parent == in {
					// Fix #2: invoke feeding a phi over its own normal
					// edge. The load would have to precede the invoke;
					// but the SSA edge is already legal — leave it.
					continue
				}
				plans = append(plans, loadPlan{use: use, opIdx: i, block: in})
			}
			continue
		}
		plans = append(plans, loadPlan{use: use, opIdx: -1, block: use.Parent})
	}
	if len(plans) == 0 {
		return nil
	}

	slot := newInstr(ar)
	slot.Op, slot.Ty, slot.AllocTy = ir.OpAlloca, ctx.Pointer(def.Ty), def.Ty
	slot.Nam = f.FreshName(def.Nam + ".demoted")
	f.Entry().InsertAt(0, slot)
	st := newInstr(ar)
	st.Op, st.Ty = ir.OpStore, ctx.Void
	st.Operands = append(st.Operands[:0], def, slot)

	// Place the store at the first point dominated by the definition.
	switch {
	case def.Op == ir.OpPhi:
		// Fix #1: first legal point after the definition is after the
		// phi run, not the end of the block.
		b := def.Parent
		b.InsertAt(b.FirstNonPhi(), st)
	case def.Op == ir.OpInvoke:
		// The result only exists on the normal edge. If the normal
		// destination has other predecessors, storing there would use
		// the result on paths where it does not exist; split the edge.
		normal := def.Successors()[0]
		if predEdgeCount(f, normal) > 1 {
			mid := f.NewBlock(f.FreshName(def.Parent.Name() + ".store"))
			bd := ir.NewBuilder(mid)
			bd.Br(normal)
			def.ReplaceSuccessor(normal, mid)
			for _, phi := range normal.Phis() {
				for i, ib := range phi.IncomingBlocks {
					if ib == def.Parent {
						phi.IncomingBlocks[i] = mid
					}
				}
			}
			normal = mid
		}
		normal.InsertAt(normal.FirstNonPhi(), st)
	default:
		b := def.Parent
		b.InsertAt(b.IndexOf(def)+1, st)
	}

	for _, pl := range plans {
		ld := newInstr(ar)
		ld.Op, ld.Ty, ld.Nam = ir.OpLoad, def.Ty, f.FreshName(def.Nam+".reload")
		ld.Operands = append(ld.Operands[:0], slot)
		if pl.opIdx >= 0 {
			at := len(pl.block.Instrs)
			if t := pl.block.Term(); t != nil {
				at = pl.block.IndexOf(t)
			}
			pl.block.InsertAt(at, ld)
			pl.use.Operands[pl.opIdx] = ld
			continue
		}
		pl.block.InsertAt(pl.block.IndexOf(pl.use), ld)
		pl.use.ReplaceUsesOfWith(def, ld)
	}
	return slot
}

// RepairSSA finds every use that its definition does not dominate and
// demotes the offending values to memory. It returns the number of
// values demoted. Merged-code generation relies on this as the final
// legality net, exactly as HyFM does.
func RepairSSA(f *ir.Function) int { return RepairSSAIn(f, nil) }

// RepairSSAIn is RepairSSA drawing demotion instructions from ar (which
// may be nil).
func RepairSSAIn(f *ir.Function, ar *ir.CloneArena) int {
	demoted := 0
	for {
		dt := ir.NewDomTree(f)
		gen := f.MarkInstrs()

		// def -> offending uses; allocated lazily, since the common case
		// (especially on re-check iterations) finds no violations.
		var bad map[*ir.Instr][]*ir.Instr
		var order []*ir.Instr
		for _, b := range f.Blocks {
			if !dt.Reachable(b) {
				continue
			}
			for _, in := range b.Instrs {
				for idx, op := range in.Operands {
					def, ok := op.(*ir.Instr)
					if !ok || !def.Marked(gen) {
						continue
					}
					if !dt.DominatesInstr(def, in, idx) {
						if bad == nil {
							bad = make(map[*ir.Instr][]*ir.Instr)
						}
						if _, seen := bad[def]; !seen {
							order = append(order, def)
						}
						bad[def] = appendInstrUnique(bad[def], in)
					}
				}
			}
		}
		dt.Release()
		if len(bad) == 0 {
			return demoted
		}
		for _, def := range order {
			DemoteValueIn(f, ar, def, bad[def])
			demoted++
		}
		// Demotion inserts loads whose own placement could, in corner
		// cases, introduce new violations; iterate to a fixed point.
	}
}

func appendInstrUnique(list []*ir.Instr, in *ir.Instr) []*ir.Instr {
	for _, x := range list {
		if x == in {
			return list
		}
	}
	return append(list, in)
}
