package ir

import (
	"errors"
	"fmt"
	"sync"
)

// verifyPool recycles FuncIssues' block set; the instruction set uses
// MarkInstrs stamps and needs no map at all.
var verifyPool = sync.Pool{New: func() any {
	return make(map[*Block]bool, 32)
}}

// VerifyModule checks every function definition in the module plus the
// module-level invariants (unique function names, no references to
// functions outside the module), returning all violations joined into a
// single error.
func VerifyModule(m *Module) error {
	return errors.Join(ModuleIssues(m)...)
}

// ModuleIssues returns every verification failure in the module, one
// error per violation: the per-function issues of each definition
// (prefixed with the function name) plus the module-level rules:
//
//   - function names must be unique across the module;
//   - every *Function operand — in particular the callee of a call or
//     invoke — must be a function currently present in the module, so
//     no instruction can reference a deleted or foreign function.
func ModuleIssues(m *Module) []error {
	var errs []error

	seen := make(map[string]int, len(m.Funcs))
	present := make(map[*Function]bool, len(m.Funcs))
	for _, f := range m.Funcs {
		seen[f.Nam]++
		present[f] = true
	}
	for _, f := range m.Funcs {
		if seen[f.Nam] > 1 {
			errs = append(errs, fmt.Errorf("@%s: function defined %d times in the module", f.Nam, seen[f.Nam]))
			seen[f.Nam] = 1 // report each duplicate name once
		}
	}

	for _, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		for _, e := range FuncIssues(f) {
			errs = append(errs, fmt.Errorf("@%s: %w", f.Nam, e))
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				for i, op := range in.Operands {
					callee, ok := op.(*Function)
					if !ok || present[callee] {
						continue
					}
					if (in.Op == OpCall || in.Op == OpInvoke) && i == 0 {
						errs = append(errs, fmt.Errorf("@%s: %%%s: call to @%s which is not a function in the module", f.Nam, b.Nam, callee.Nam))
					} else {
						errs = append(errs, fmt.Errorf("@%s: %%%s: reference to @%s which is not a function in the module", f.Nam, b.Nam, callee.Nam))
					}
				}
			}
		}
	}
	return errs
}

// VerifyFunc checks the structural and SSA well-formedness rules of one
// function definition:
//
//   - every block is non-empty and ends with exactly one terminator;
//   - phis appear only in a leading run and cover each predecessor
//     exactly once;
//   - instruction operand counts and types are consistent;
//   - every SSA definition dominates all of its uses (the property the
//     Sec. III-E merge bug fixes protect).
func VerifyFunc(f *Function) error {
	return errors.Join(FuncIssues(f)...)
}

// FuncIssues returns every verification failure in one function
// definition, one error per violation, in deterministic block order.
func FuncIssues(f *Function) []error {
	var errs []error
	errf := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	if len(f.Blocks) == 0 {
		return []error{errors.New("definition has no blocks")}
	}

	blockSet := verifyPool.Get().(map[*Block]bool)
	defer verifyPool.Put(blockSet)
	clear(blockSet)
	for _, b := range f.Blocks {
		blockSet[b] = true
	}
	gen := f.MarkInstrs()

	// Predecessors are only needed for blocks that contain phis, so they
	// are gathered per such block into a reusable buffer instead of
	// building the full f.Preds() map for every verification.
	var predBuf []*Block
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			errf("block %%%s is empty", b.Nam)
			continue
		}
		for i, in := range b.Instrs {
			last := i == len(b.Instrs)-1
			if in.IsTerminator() != last {
				if in.IsTerminator() {
					errf("%%%s: terminator %s mid-block", b.Nam, in.Op)
				} else {
					errf("%%%s: block does not end in a terminator", b.Nam)
				}
			}
			if in.Op == OpPhi && i > b.FirstNonPhi() {
				errf("%%%s: phi %%%s after non-phi instruction", b.Nam, in.Nam)
			}
			if in.Parent != b {
				errf("%%%s: instruction %s has wrong parent", b.Nam, in.Op)
			}
			if err := checkOperands(in); err != nil {
				errf("%%%s: %s: %v", b.Nam, InstrString(in), err)
			}
			for _, op := range in.Operands {
				if sb, ok := op.(*Block); ok && !blockSet[sb] {
					errf("%%%s: reference to block %%%s outside function", b.Nam, sb.Nam)
				}
			}
		}
		// Phi edges must match predecessors exactly. Edge multiplicity is
		// counted by scanning the incoming list directly — phi fan-in is
		// small — which also makes the error order deterministic where
		// the old per-phi map left it to map iteration.
		phis := b.Phis()
		if len(phis) > 0 {
			predBuf = predsInto(f, b, predBuf[:0])
		}
		for _, phi := range phis {
			for _, p := range predBuf {
				n := 0
				for _, ib := range phi.IncomingBlocks {
					if ib == p {
						n++
					}
				}
				if n == 0 {
					errf("%%%s: phi %%%s missing incoming edge from %%%s", b.Nam, phi.Nam, p.Nam)
				}
			}
			for i, ib := range phi.IncomingBlocks {
				first := true
				for _, prev := range phi.IncomingBlocks[:i] {
					if prev == ib {
						first = false
						break
					}
				}
				if !first {
					continue // report each distinct incoming block once
				}
				n := 0
				for _, x := range phi.IncomingBlocks {
					if x == ib {
						n++
					}
				}
				if n > 1 {
					errf("%%%s: phi %%%s has %d edges from %%%s", b.Nam, phi.Nam, n, ib.Nam)
				}
				found := false
				for _, p := range predBuf {
					if p == ib {
						found = true
						break
					}
				}
				if !found {
					errf("%%%s: phi %%%s edge from non-predecessor %%%s", b.Nam, phi.Nam, ib.Nam)
				}
			}
		}
	}

	// SSA dominance: each def dominates each use.
	dt := NewDomTree(f)
	defer dt.Release()
	for _, b := range f.Blocks {
		if !dt.Reachable(b) {
			continue // uses in dead code are not checked, as in LLVM
		}
		for _, in := range b.Instrs {
			for idx, op := range in.Operands {
				def, ok := op.(*Instr)
				if !ok {
					continue
				}
				if !def.Marked(gen) {
					errf("%%%s: operand %%%s defined outside function", b.Nam, def.Nam)
					continue
				}
				if !dt.DominatesInstr(def, in, idx) {
					errf("%%%s: use of %%%s in %s does not satisfy dominance", b.Nam, def.Nam, InstrString(in))
				}
			}
		}
	}
	return errs
}

// checkOperands validates per-opcode operand arity and types.
func checkOperands(in *Instr) error {
	n := len(in.Operands)
	need := func(want int) error {
		if n != want {
			return fmt.Errorf("want %d operands, have %d", want, n)
		}
		return nil
	}
	switch {
	case in.Op.IsBinary():
		if err := need(2); err != nil {
			return err
		}
		if in.Operands[0].Type() != in.Operands[1].Type() || in.Operands[0].Type() != in.Ty {
			return fmt.Errorf("binary operand/result type mismatch")
		}
	case in.Op.IsCast():
		if err := need(1); err != nil {
			return err
		}
		return checkCast(in.Op, in.Operands[0].Type(), in.Ty)
	}
	switch in.Op {
	case OpAlloca:
		if err := need(0); err != nil {
			return err
		}
		if in.AllocTy == nil {
			return fmt.Errorf("alloca has no allocated type")
		}
		if !in.Ty.IsPointer() || in.Ty.Elem != in.AllocTy {
			return fmt.Errorf("alloca result %s, want %s*", in.Ty, in.AllocTy)
		}
	case OpGEP:
		return checkGEP(in)
	case OpRet:
		if n > 1 {
			return fmt.Errorf("ret takes 0 or 1 operand")
		}
	case OpBr:
		return need(1)
	case OpCondBr:
		if err := need(3); err != nil {
			return err
		}
		if in.Operands[0].Type().Kind != IntKind || in.Operands[0].Type().Bits != 1 {
			return fmt.Errorf("condbr condition must be i1")
		}
	case OpLoad:
		if err := need(1); err != nil {
			return err
		}
		pt := in.Operands[0].Type()
		if !pt.IsPointer() || pt.Elem != in.Ty {
			return fmt.Errorf("load type mismatch: %s via %s", in.Ty, pt)
		}
	case OpStore:
		if err := need(2); err != nil {
			return err
		}
		pt := in.Operands[1].Type()
		if !pt.IsPointer() || pt.Elem != in.Operands[0].Type() {
			return fmt.Errorf("store type mismatch: %s via %s", in.Operands[0].Type(), pt)
		}
	case OpICmp, OpFCmp:
		if err := need(2); err != nil {
			return err
		}
		if in.Operands[0].Type() != in.Operands[1].Type() {
			return fmt.Errorf("cmp operand types differ")
		}
	case OpSelect:
		if err := need(3); err != nil {
			return err
		}
		if in.Operands[1].Type() != in.Operands[2].Type() {
			return fmt.Errorf("select arm types differ")
		}
	case OpPhi:
		if len(in.Operands) != len(in.IncomingBlocks) {
			return fmt.Errorf("phi operand/block count mismatch")
		}
		for _, v := range in.Operands {
			if v.Type() != in.Ty {
				return fmt.Errorf("phi incoming type %s, want %s", v.Type(), in.Ty)
			}
		}
	case OpCall, OpInvoke:
		if n < 1 {
			return fmt.Errorf("call needs a callee")
		}
		ct := in.Operands[0].Type()
		if ct.Kind != FuncKind && !(ct.IsPointer() && ct.Elem.Kind == FuncKind) {
			return fmt.Errorf("callee of type %s is not a function", ct)
		}
		sig := calleeSig(in.Operands[0])
		args := in.CallArgs()
		if !sig.Variadic && len(args) != len(sig.Fields) {
			return fmt.Errorf("call arity %d, want %d", len(args), len(sig.Fields))
		}
		for i, a := range args {
			if i < len(sig.Fields) && a.Type() != sig.Fields[i] {
				return fmt.Errorf("call arg %d type %s, want %s", i, a.Type(), sig.Fields[i])
			}
		}
		if sig.Elem != in.Ty {
			return fmt.Errorf("call result type %s, want %s", in.Ty, sig.Elem)
		}
	}
	return nil
}

// checkCast validates operand/result kinds and the bit-width direction
// of a conversion: truncations must narrow, extensions must widen, and
// the pointer conversions must connect a pointer with an integer.
func checkCast(op Opcode, from, to *Type) error {
	intBoth := from.IsInt() && to.IsInt()
	floatBoth := from.IsFloat() && to.IsFloat()
	switch op {
	case OpTrunc:
		if !intBoth || from.Bits <= to.Bits {
			return fmt.Errorf("trunc must narrow an integer: %s to %s", from, to)
		}
	case OpZExt, OpSExt:
		if !intBoth || from.Bits >= to.Bits {
			return fmt.Errorf("%s must widen an integer: %s to %s", op, from, to)
		}
	case OpFPTrunc:
		if !floatBoth || from.Bits <= to.Bits {
			return fmt.Errorf("fptrunc must narrow a float: %s to %s", from, to)
		}
	case OpFPExt:
		if !floatBoth || from.Bits >= to.Bits {
			return fmt.Errorf("fpext must widen a float: %s to %s", from, to)
		}
	case OpFPToSI:
		if !from.IsFloat() || !to.IsInt() {
			return fmt.Errorf("fptosi wants float to integer, have %s to %s", from, to)
		}
	case OpSIToFP:
		if !from.IsInt() || !to.IsFloat() {
			return fmt.Errorf("sitofp wants integer to float, have %s to %s", from, to)
		}
	case OpPtrToInt:
		if !from.IsPointer() || !to.IsInt() {
			return fmt.Errorf("ptrtoint wants pointer to integer, have %s to %s", from, to)
		}
	case OpIntToPtr:
		if !from.IsInt() || !to.IsPointer() {
			return fmt.Errorf("inttoptr wants integer to pointer, have %s to %s", from, to)
		}
	case OpBitcast:
		// Pointers convert among themselves; scalars must keep their
		// exact bit width (pointer<->integer is ptrtoint/inttoptr's job).
		switch {
		case from.IsPointer() && to.IsPointer():
		case (from.IsInt() || from.IsFloat()) && (to.IsInt() || to.IsFloat()) && from.Bits == to.Bits:
		default:
			return fmt.Errorf("bitcast between incompatible types %s and %s", from, to)
		}
	}
	return nil
}

// checkGEP validates a getelementptr: a pointer base, integer indices
// (struct steps constant and in range), and a result type matching the
// walk over the indexed aggregate.
func checkGEP(in *Instr) error {
	if len(in.Operands) < 2 {
		return fmt.Errorf("gep wants a base pointer and at least one index")
	}
	base := in.Operands[0].Type()
	if !base.IsPointer() {
		return fmt.Errorf("gep base must be a pointer, have %s", base)
	}
	cur := base.Elem
	for i, idx := range in.Operands[1:] {
		if !idx.Type().IsInt() {
			return fmt.Errorf("gep index %d must be an integer, have %s", i, idx.Type())
		}
		if i == 0 {
			continue // the first index steps over the pointee itself
		}
		switch cur.Kind {
		case ArrayKind:
			cur = cur.Elem
		case StructKind:
			c, ok := idx.(*Const)
			if !ok {
				return fmt.Errorf("gep struct index %d must be a constant", i)
			}
			if c.IntVal < 0 || int(c.IntVal) >= len(cur.Fields) {
				return fmt.Errorf("gep struct index %d out of range [0,%d)", c.IntVal, len(cur.Fields))
			}
			cur = cur.Fields[c.IntVal]
		default:
			return fmt.Errorf("gep index %d steps through non-aggregate %s", i, cur)
		}
	}
	if !in.Ty.IsPointer() || in.Ty.Elem != cur {
		return fmt.Errorf("gep result %s, want %s*", in.Ty, cur)
	}
	return nil
}
