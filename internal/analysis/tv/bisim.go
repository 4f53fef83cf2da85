package tv

import (
	"fmt"

	"f3m/internal/ir"
)

// mismatch is the first divergence bisimulate found, located on the
// specialized (merged-side) function.
type mismatch struct {
	block, instr, msg string
}

// bisimulate checks that spec and ref — both canonicalized — are the
// same program up to value renaming. Blocks are paired by a breadth-
// first walk of the CFGs from the entries (terminator successor lists
// must correspond positionally), non-phi non-alloca instructions are
// paired positionally within paired blocks, and phis and allocas are
// paired lazily through a bijective value correspondence driven by the
// operands that use them — which also makes semantically dead leftovers
// (a phi or alloca nothing reachable reads) irrelevant to the verdict.
//
// One merge artifact needs a special rule: a surviving use of a shared
// merged parameter corresponds to the original parameter the side's
// paramMap assigns it. Calls need none: validation runs before Commit,
// so a direct call in spec names the same function object as its
// counterpart in ref, recursive and cross calls included, and pairs
// like any other instruction. Commit's rewrite of those call sites is
// checked by the post-commit audit.
//
// Everything walks slices in program order, so the first mismatch — and
// therefore the diagnostic — is deterministic.
func bisimulate(spec, ref *ir.Function, paramMap map[int]int) *mismatch {
	b := &bisim{
		spec: spec, ref: ref, paramMap: paramMap,
		blockMap: make(map[*ir.Block]*ir.Block),
		blockRev: make(map[*ir.Block]*ir.Block),
		valMap:   make(map[*ir.Instr]*ir.Instr),
		valRev:   make(map[*ir.Instr]*ir.Instr),
	}
	if len(spec.Blocks) == 0 || len(ref.Blocks) == 0 {
		if len(spec.Blocks) != len(ref.Blocks) {
			return &mismatch{msg: "one side has no body"}
		}
		return nil
	}
	if mis := b.pairBlocks(spec.Entry(), ref.Entry(), nil); mis != nil {
		return mis
	}
	for len(b.blockQueue) > 0 {
		pair := b.blockQueue[0]
		b.blockQueue = b.blockQueue[1:]
		if mis := b.checkBlock(pair[0], pair[1]); mis != nil {
			return mis
		}
	}
	for len(b.valQueue) > 0 {
		vp := b.valQueue[0]
		b.valQueue = b.valQueue[1:]
		if mis := b.checkValues(vp); mis != nil {
			return mis
		}
	}
	return nil
}

// valPair is one pending value-correspondence obligation; at locates
// the spec instruction that created it, for diagnostics.
type valPair struct {
	sv, rv ir.Value
	at     *ir.Instr
}

// bisim is the in-flight bisimulation state.
type bisim struct {
	spec, ref *ir.Function
	paramMap  map[int]int

	blockMap, blockRev map[*ir.Block]*ir.Block
	valMap, valRev     map[*ir.Instr]*ir.Instr
	blockQueue         [][2]*ir.Block
	valQueue           []valPair
}

// at renders a mismatch located on a spec instruction.
func (b *bisim) at(in *ir.Instr, format string, args ...any) *mismatch {
	m := &mismatch{msg: fmt.Sprintf(format, args...)}
	if in != nil {
		if in.Parent != nil {
			m.block = in.Parent.Nam
		}
		m.instr = in.Nam
	}
	return m
}

// pairBlocks records (or verifies) the correspondence spec block sb ↔
// ref block rb and schedules the pair for instruction checking on
// first sight.
func (b *bisim) pairBlocks(sb, rb *ir.Block, from *ir.Instr) *mismatch {
	if got, ok := b.blockMap[sb]; ok {
		if got != rb {
			return b.at(from, "control flow diverges: block %%%s corresponds to both %%%s and %%%s",
				sb.Nam, got.Nam, rb.Nam)
		}
		return nil
	}
	if got, ok := b.blockRev[rb]; ok {
		return b.at(from, "control flow diverges: original block %%%s corresponds to both %%%s and %%%s",
			rb.Nam, got.Nam, sb.Nam)
	}
	b.blockMap[sb] = rb
	b.blockRev[rb] = sb
	b.blockQueue = append(b.blockQueue, [2]*ir.Block{sb, rb})
	return nil
}

// compared reports whether an instruction participates in positional
// pairing; phis and allocas are paired lazily by use instead (merged
// codegen hoists allocas and phi placement order is arbitrary).
func compared(in *ir.Instr) bool {
	return in.Op != ir.OpPhi && in.Op != ir.OpAlloca
}

// checkBlock pairs the positional instructions of one block pair.
func (b *bisim) checkBlock(sb, rb *ir.Block) *mismatch {
	var ss, rs []*ir.Instr
	for _, in := range sb.Instrs {
		if compared(in) {
			ss = append(ss, in)
		}
	}
	for _, in := range rb.Instrs {
		if compared(in) {
			rs = append(rs, in)
		}
	}
	if len(ss) != len(rs) {
		return b.at(sb.Term(), "block %%%s has %d instructions, original %%%s has %d",
			sb.Nam, len(ss), rb.Nam, len(rs))
	}
	for i, is := range ss {
		if mis := b.checkInstr(is, rs[i]); mis != nil {
			return mis
		}
	}
	return nil
}

// checkInstr verifies one positionally paired instruction pair and
// schedules the value obligations its operands impose.
func (b *bisim) checkInstr(is, ri *ir.Instr) *mismatch {
	if is.Op != ri.Op {
		return b.at(is, "opcode %s, original has %s", is.Op, ri.Op)
	}
	if is.Ty != ri.Ty {
		return b.at(is, "result type %s, original has %s", is.Ty, ri.Ty)
	}
	if is.Predicate != ri.Predicate {
		return b.at(is, "predicate %v, original has %v", is.Predicate, ri.Predicate)
	}
	b.recordInstr(is, ri)

	if len(is.Operands) != len(ri.Operands) {
		return b.at(is, "%d operands, original has %d", len(is.Operands), len(ri.Operands))
	}
	for i, sop := range is.Operands {
		rop := ri.Operands[i]
		sblk, sIsBlk := sop.(*ir.Block)
		rblk, rIsBlk := rop.(*ir.Block)
		if sIsBlk != rIsBlk {
			return b.at(is, "operand %d kind differs from original", i)
		}
		if sIsBlk {
			if mis := b.pairBlocks(sblk, rblk, is); mis != nil {
				return mis
			}
			continue
		}
		b.valQueue = append(b.valQueue, valPair{sop, rop, is})
	}
	return nil
}

// recordInstr stores the positional correspondence so later operand
// references resolve to it.
func (b *bisim) recordInstr(is, ri *ir.Instr) {
	b.valMap[is] = ri
	b.valRev[ri] = is
}

// checkValues discharges one value-correspondence obligation.
func (b *bisim) checkValues(vp valPair) *mismatch {
	if vp.sv == vp.rv {
		// Same object: globals, and functions (callees included).
		return nil
	}
	switch sv := vp.sv.(type) {
	case *ir.Const:
		rc, ok := vp.rv.(*ir.Const)
		if !ok {
			return b.at(vp.at, "constant %s, original has a non-constant", sv.Ident())
		}
		if !ir.ConstEqual(sv, rc) {
			return b.at(vp.at, "constant %s, original has %s", sv.Ident(), rc.Ident())
		}
		return nil
	case *ir.Param:
		return b.checkParam(vp, sv)
	case *ir.Instr:
		ri, ok := vp.rv.(*ir.Instr)
		if !ok {
			return b.at(vp.at, "instruction result where original has %s", vp.rv.Ident())
		}
		return b.checkInstrPair(vp, sv, ri)
	}
	return b.at(vp.at, "values %s and %s do not correspond", vp.sv.Ident(), vp.rv.Ident())
}

// checkParam verifies a surviving use of a merged parameter: slot 0 is
// the discriminator (specialization must have eliminated every use),
// and a shared slot corresponds to the original parameter assigned by
// the side's parameter map.
func (b *bisim) checkParam(vp valPair, sp *ir.Param) *mismatch {
	idx := -1
	for i, p := range b.spec.Params {
		if p == sp {
			idx = i
			break
		}
	}
	if idx < 0 {
		// A ref param used as a spec operand, or a stray param object.
		return b.at(vp.at, "parameter use does not belong to the specialized function")
	}
	if idx == 0 {
		return b.at(vp.at, "discriminator parameter escaped specialization")
	}
	oi, mapped := b.paramMap[idx]
	if !mapped {
		return b.at(vp.at, "use of merged parameter %d, which is unshared on this side", idx)
	}
	rp, ok := vp.rv.(*ir.Param)
	if !ok || oi < 0 || oi >= len(b.ref.Params) || b.ref.Params[oi] != rp {
		return b.at(vp.at, "merged parameter %d should correspond to original parameter %d", idx, oi)
	}
	return nil
}

// checkInstrPair verifies (or records) the lazy correspondence of two
// instruction results: positional pairs must already agree, and phis
// and allocas are admitted here on first use.
func (b *bisim) checkInstrPair(vp valPair, si, ri *ir.Instr) *mismatch {
	if got, ok := b.valMap[si]; ok {
		if got != ri {
			return b.at(vp.at, "value %%%s corresponds to both %%%s and %%%s", si.Nam, got.Nam, ri.Nam)
		}
		return nil
	}
	if got, ok := b.valRev[ri]; ok {
		return b.at(vp.at, "original value %%%s corresponds to both %%%s and %%%s", ri.Nam, got.Nam, si.Nam)
	}
	if si.Op != ri.Op {
		return b.at(vp.at, "value %%%s is a %s, original %%%s is a %s", si.Nam, si.Op, ri.Nam, ri.Op)
	}
	switch si.Op {
	case ir.OpAlloca:
		if si.AllocTy != ri.AllocTy {
			return b.at(vp.at, "alloca of %s, original allocates %s", si.AllocTy, ri.AllocTy)
		}
		b.recordInstr(si, ri)
		return nil
	case ir.OpPhi:
		rb, ok := b.blockMap[si.Parent]
		if !ok || rb != ri.Parent {
			return b.at(vp.at, "phi %%%s lives in an uncorresponding block", si.Nam)
		}
		if si.Ty != ri.Ty {
			return b.at(vp.at, "phi %%%s has type %s, original has %s", si.Nam, si.Ty, ri.Ty)
		}
		if len(si.Operands) != len(ri.Operands) {
			return b.at(vp.at, "phi %%%s has %d incoming edges, original has %d",
				si.Nam, len(si.Operands), len(ri.Operands))
		}
		b.recordInstr(si, ri)
		for i, sin := range si.Operands {
			sp := si.IncomingBlocks[i]
			rp, ok := b.blockMap[sp]
			if !ok {
				return b.at(si, "phi %%%s has an incoming edge from uncorresponding block %%%s", si.Nam, sp.Nam)
			}
			rin := ri.PhiIncoming(rp)
			if rin == nil {
				return b.at(si, "phi %%%s incoming from %%%s has no counterpart", si.Nam, sp.Nam)
			}
			b.valQueue = append(b.valQueue, valPair{sin, rin, si})
		}
		return nil
	}
	// A non-phi, non-alloca instruction unseen by positional pairing:
	// its block was never paired, so the data flow routes through
	// control flow the original does not have.
	return b.at(vp.at, "value %%%s has no positional counterpart", si.Nam)
}
