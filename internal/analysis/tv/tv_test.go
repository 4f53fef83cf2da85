package tv

import (
	"strings"
	"testing"

	"f3m/internal/analysis"
	"f3m/internal/ir"
	"f3m/internal/merge"
	"f3m/internal/passes"
)

// reorderedTwins is a pair the CFG-aware strategy merges on 445.gobmk
// (irgen seed 4, PermutedFraction 0.5). Specialized to side B, the
// merged function forwards demoted slot pointers through two-phi
// cycles. Collapsing a cycle must leave no operand pointing at a
// removed phi: a dangling one keeps the slot from being promoted, and
// the validator then refutes the correct merge ("block %entry has 7
// instructions, original %entry has 5").
const reorderedTwins = `
declare i32 @lib.mask32(i32 %p0)
declare i32 @lib.clamp(i32 %p0, i32 %p1)
declare i64 @lib.widen(i32 %p0)
define i32 @fam16_t0(i32 %p0) {
entry:
  %t44 = alloca [5 x i64]
  %t45 = getelementptr [5 x i64]* %t44, i64 0, i64 2
  %t46 = select i1 0, i64 20, i64 56
  %t47 = icmp eq i64 %t46, %t46
  %t48 = icmp slt i64 6, 0
  %t49 = mul i64 %t46, %t46
  %t50 = select i1 %t48, i32 %p0, i32 %p0
  %t51 = or i64 %t49, %t46
  %t52 = load i64, i64* %t45
  %t53 = icmp ne i64 %t49, %t51
  %t54 = xor i64 42, %t52
  br i1 %t53, label %bb13, label %bb14
bb13:
  %t55 = ashr i64 38, 7
  br label %bb15
bb14:
  %t56 = add i64 22, 10
  br label %bb15
bb15:
  %t19 = phi i32 [19, %bb13], [4, %bb14]
  %t57 = getelementptr [5 x i64]* %t44, i64 0, i64 2
  %t58 = call i64 @lib.widen(i32 60)
  store i64 48, i64* %t57
  %t59 = shl i64 57, 7
  br label %bb31
bb31:
  %t60 = and i64 39, 38
  %t61 = xor i64 22, %t60
  %t62 = select i1 -1, i64 16, i64 %t61
  %t63 = xor i64 %t62, %t62
  %t64 = add i64 %t62, %t61
  %t65 = icmp sle i64 %t60, %t62
  %t66 = xor i64 %t61, %t61
  ret i32 11
}
define i32 @fam96_t0(i32 %p0, i32 %p1, i32 %p2) {
entry:
  %t67 = alloca [8 x i64]
  %t68 = getelementptr [8 x i64]* %t67, i64 0, i64 1
  %t69 = mul i64 14, 28
  %t70 = mul i64 %t69, %t69
  %t71 = shl i64 %t69, 4
  %t72 = load i64, i64* %t68
  br label %bb8
bb8:
  %t73 = or i32 %p0, %p2
  %t74 = call i64 @lib.widen(i32 %p0)
  %t75 = add i64 42, %t74
  %t76 = ashr i64 %t75, 6
  br label %bb17
bb17:
  %t77 = getelementptr [8 x i64]* %t67, i64 0, i64 7
  %t78 = load i64, i64* %t77
  store i64 2, i64* %t77
  %t79 = xor i64 %t78, %t78
  %t80 = add i64 %t78, %t78
  br label %bb27
bb27:
  %t81 = and i64 50, 40
  %t82 = and i64 41, %t81
  %t83 = call i32 @lib.mask32(i32 3)
  %t84 = zext i16 59 to i64
  br label %bb41
bb41:
  %fix.t44 = phi i32 [0, %bb27], [%fix.t48, %bb42]
  %t45 = phi i32 [%t83, %bb27], [%fix.t48, %bb42]
  %fix.t46 = icmp slt i32 %fix.t44, 2
  br i1 %fix.t46, label %bb42, label %bb43
bb42:
  %t85 = add i64 51, 35
  %fix.t48 = add i32 %fix.t44, 1
  br label %bb41
bb43:
  %t86 = sub i64 34, 53
  %t87 = call i32 @lib.clamp(i32 %p2, i32 %p0)
  %t88 = xor i64 %t86, %t86
  %t89 = sub i64 59, %t88
  %t90 = sub i64 34, 6
  %t91 = xor i64 50, %t90
  %t92 = xor i64 %t88, %t91
  ret i32 %t87
}
`

// subTwins differ only in one constant, so the merged function keeps
// both subtractions' operand order observable.
const subTwins = `
define i32 @left(i32 %x, i32 %y) {
entry:
  %a = sub i32 %x, %y
  %b = mul i32 %a, 7
  %c = sub i32 %b, %y
  ret i32 %c
}
define i32 @right(i32 %x, i32 %y) {
entry:
  %a = sub i32 %x, %y
  %b = mul i32 %a, 9
  %c = sub i32 %b, %y
  ret i32 %c
}
`

// recursiveTwins each call themselves. Their signatures differ, so the
// two recursive calls cannot share one instruction: the merged body
// calls both originals directly until Commit rewrites those calls into
// calls of itself.
const recursiveTwins = `
define i32 @down3(i32 %n, i32 %x) {
entry:
  %c = icmp sle i32 %n, 0
  br i1 %c, label %done, label %rec
rec:
  %n1 = sub i32 %n, 1
  %r = call i32 @down3(i32 %n1, i32 %x)
  %s = mul i32 %r, 3
  ret i32 %s
done:
  ret i32 %x
}
define i32 @down5(i32 %n) {
entry:
  %c = icmp sle i32 %n, 0
  br i1 %c, label %done, label %rec
rec:
  %n1 = sub i32 %n, 1
  %r = call i32 @down5(i32 %n1)
  %s = mul i32 %r, 5
  ret i32 %s
done:
  ret i32 %n
}
`

// selfCallTwins each call themselves with one signature, so the merged
// body calls a select of the two originals, whose addresses Commit then
// keeps alive as thunks.
const selfCallTwins = `
define i32 @self3(i32 %n) {
entry:
  %c = icmp sle i32 %n, 0
  br i1 %c, label %done, label %rec
rec:
  %n1 = sub i32 %n, 1
  %r = call i32 @self3(i32 %n1)
  %s = mul i32 %r, 3
  ret i32 %s
done:
  ret i32 %n
}
define i32 @self5(i32 %n) {
entry:
  %c = icmp sle i32 %n, 0
  br i1 %c, label %done, label %rec
rec:
  %n1 = sub i32 %n, 1
  %r = call i32 @self5(i32 %n1)
  %s = mul i32 %r, 5
  ret i32 %s
done:
  ret i32 %n
}
`

// crossCallTwins: @outer calls @inner, its merge partner.
const crossCallTwins = `
define i32 @inner(i32 %x) {
entry:
  %a = mul i32 %x, 3
  %b = add i32 %a, 1
  ret i32 %b
}
define i32 @outer(i32 %x) {
entry:
  %a = call i32 @inner(i32 %x)
  %b = add i32 %a, 1
  ret i32 %b
}
`

// thunkedTwins: @ta is address-taken, so Commit keeps it as a thunk.
const thunkedTwins = `
define i32 @ta(i32 %x, i32 %y) {
entry:
  %a = add i32 %x, %y
  %b = mul i32 %a, 3
  ret i32 %b
}
define i32 @tb(i32 %x, i32 %y) {
entry:
  %a = add i32 %x, %y
  %b = mul i32 %a, 5
  ret i32 %b
}
define i32 @apply(i32(i32,i32)* %fp, i32 %x) {
entry:
  %r = call i32 %fp(i32 %x, i32 7)
  ret i32 %r
}
define i32 @useA(i32 %x) {
entry:
  %r = call i32 @apply(i32(i32,i32)* @ta, i32 %x)
  ret i32 %r
}
define i32 @useB(i32 %x) {
entry:
  %r = call i32 @tb(i32 %x, i32 2)
  ret i32 %r
}
`

// phiTwins join two arms in a phi over instruction values, which the
// merged function keeps.
const phiTwins = `
define i32 @abs3(i32 %x) {
entry:
  %c = icmp slt i32 %x, 0
  br i1 %c, label %neg, label %pos
neg:
  %n = sub i32 0, %x
  br label %join
pos:
  %p = mul i32 %x, 3
  br label %join
join:
  %r = phi i32 [%n, %neg], [%p, %pos]
  ret i32 %r
}
define i32 @abs5(i32 %x) {
entry:
  %c = icmp slt i32 %x, 0
  br i1 %c, label %neg, label %pos
neg:
  %n = sub i32 0, %x
  br label %join
pos:
  %p = mul i32 %x, 5
  br label %join
join:
  %r = phi i32 [%n, %neg], [%p, %pos]
  ret i32 %r
}
`

// validate parses src, merges @a with @b under opts, lets sabotage
// (when non-nil) edit the uncommitted merged function, and returns the
// module, the merge and the validator's findings.
func validate(t *testing.T, src, a, b string, opts merge.Options, sabotage func(*ir.Function) bool) (*ir.Module, *merge.Result, []string) {
	t.Helper()
	m, err := ir.ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := merge.Pair(m, m.Func(a), m.Func(b), opts)
	if err != nil {
		t.Fatalf("merge @%s + @%s: %v", a, b, err)
	}
	if sabotage != nil && !sabotage(res.Merged) {
		t.Fatalf("sabotage found nothing to edit in:\n%s", ir.FuncString(res.Merged))
	}
	var msgs []string
	for _, d := range NewValidator(nil).ValidateMerge(m, res) {
		msgs = append(msgs, d.String())
	}
	return m, res, msgs
}

// swapSub swaps the operands of the first subtraction whose operands
// differ.
func swapSub(f *ir.Function) bool {
	done := false
	f.Instructions(func(in *ir.Instr) {
		if !done && in.Op == ir.OpSub && in.Operands[0] != in.Operands[1] {
			in.Operands[0], in.Operands[1] = in.Operands[1], in.Operands[0]
			done = true
		}
	})
	return done
}

// swapDiscriminatorArms swaps the arms of the first select keyed on the
// discriminator, so each side computes the other's value.
func swapDiscriminatorArms(f *ir.Function) bool {
	fid := ir.Value(f.Params[0])
	done := false
	f.Instructions(func(in *ir.Instr) {
		if !done && in.Op == ir.OpSelect && in.Operands[0] == fid {
			in.Operands[1], in.Operands[2] = in.Operands[2], in.Operands[1]
			done = true
		}
	})
	return done
}

// dropPhiInput replaces the first instruction-valued phi incoming with
// undef: the merge lost a value on one path.
func dropPhiInput(f *ir.Function) bool {
	done := false
	f.Instructions(func(in *ir.Instr) {
		if done || in.Op != ir.OpPhi {
			return
		}
		for i, op := range in.Operands {
			if _, isInstr := op.(*ir.Instr); isInstr {
				in.Operands[i] = ir.ConstUndef(in.Ty)
				done = true
				return
			}
		}
	})
	return done
}

// callsInMerged checks that Commit rewrote at least one call site
// inside the merged function itself: the calls the validator saw as
// calls of the originals.
func callsInMerged(info *merge.CommitInfo) string {
	for _, side := range []merge.CommitSide{info.A, info.B} {
		for _, rc := range side.Calls {
			if rc.Call.Parent.Parent == info.Merged {
				return ""
			}
		}
	}
	return "no call site inside the merged function was rewritten"
}

// redirectCall points the first direct call of @inner at @outer, which
// has the same signature.
func redirectCall(f *ir.Function) bool {
	done := false
	f.Instructions(func(in *ir.Instr) {
		if callee, ok := in.Operands[0].(*ir.Function); !done && in.Op == ir.OpCall && ok && callee.Name() == "inner" {
			in.Operands[0] = f.Parent.Func("outer")
			done = true
		}
	})
	return done
}

// TestValidateMerge is the validator's soundness and completeness
// table. A correct merge must validate clean — a false refutation
// silently costs the merge — and must then commit into a module that
// verifies and passes the merge audit. A sabotaged merge must be
// refuted.
func TestValidateMerge(t *testing.T) {
	cfgOpts := merge.DefaultOptions()
	cfgOpts.CFGAlign = true
	for _, tc := range []struct {
		name     string
		src      string
		a, b     string
		opts     merge.Options
		sabotage func(*ir.Function) bool
		// committed checks a premise of the case on the commit record.
		committed func(*merge.CommitInfo) string
	}{
		// Specialized to side B, the merged function forwards demoted
		// slot pointers through two-phi cycles; collapsing one must not
		// leave a dangling operand.
		{name: "reordered twins", src: reorderedTwins, a: "fam16_t0", b: "fam96_t0", opts: cfgOpts},
		{name: "sub twins", src: subTwins, a: "left", b: "right"},
		{name: "recursive", src: recursiveTwins, a: "down3", b: "down5", committed: callsInMerged},
		{name: "self call through a select", src: selfCallTwins, a: "self3", b: "self5",
			committed: func(info *merge.CommitInfo) string {
				if !info.A.Thunked || !info.B.Thunked {
					return "the originals called through a select were not thunked"
				}
				return ""
			}},
		{name: "cross call", src: crossCallTwins, a: "outer", b: "inner", committed: callsInMerged},
		{name: "thunked", src: thunkedTwins, a: "ta", b: "tb",
			committed: func(info *merge.CommitInfo) string {
				if !info.A.Thunked {
					return "address-taken @ta was not thunked"
				}
				return ""
			}},
		{name: "phi twins", src: phiTwins, a: "abs3", b: "abs5"},

		{name: "swapped sub", src: subTwins, a: "left", b: "right", sabotage: swapSub},
		{name: "swapped discriminator arms", src: subTwins, a: "left", b: "right", sabotage: swapDiscriminatorArms},
		{name: "dropped phi input", src: phiTwins, a: "abs3", b: "abs5", sabotage: dropPhiInput},
		{name: "redirected call", src: crossCallTwins, a: "outer", b: "inner", sabotage: redirectCall},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			if opts == (merge.Options{}) {
				opts = merge.DefaultOptions()
			}
			m, res, ds := validate(t, tc.src, tc.a, tc.b, opts, tc.sabotage)
			if tc.sabotage != nil {
				if len(ds) == 0 {
					t.Errorf("validator accepted the sabotaged merge:\n%s", ir.FuncString(res.Merged))
				}
				return
			}
			if len(ds) != 0 {
				t.Fatalf("validator refuted a correct merge:\n%v\n%s", ds, ir.FuncString(res.Merged))
			}
			info := merge.Commit(m, res)
			if err := ir.VerifyModule(m); err != nil {
				t.Fatalf("committed module invalid: %v", err)
			}
			if audit := analysis.AuditCommit(analysis.NewManager(), m, info); len(audit) != 0 {
				t.Errorf("merge audit flagged the commit:\n%s", audit.RenderString())
			}
			if tc.committed != nil {
				if msg := tc.committed(info); msg != "" {
					t.Error(msg)
				}
			}
		})
	}
}

// TestValidateNamesBrokenPass: when a canonicalization pass leaves
// invalid IR, the validator reports an internal error naming that pass
// instead of a structural mismatch. The substituted mem2reg detaches
// the returned value's definition, leaving a dangling operand.
func TestValidateNamesBrokenPass(t *testing.T) {
	saved := canonPipeline
	t.Cleanup(func() { canonPipeline = saved })
	stage := saved[1]
	stage.passes = []canonPass{stage.passes[0], {"broken-mem2reg", func(f *ir.Function, _ map[ir.Value]*ir.Const) int {
		n := passes.Mem2Reg(f)
		for _, b := range f.Blocks {
			term := b.Term()
			if term == nil || term.Op != ir.OpRet || len(term.Operands) == 0 {
				continue
			}
			if def, ok := term.Operands[0].(*ir.Instr); ok {
				blk := def.Parent
				blk.Instrs = append(blk.Instrs[:blk.IndexOf(def)], blk.Instrs[blk.IndexOf(def)+1:]...)
				return n + 1
			}
		}
		return n
	}}}
	canonPipeline = []canonStage{saved[0], stage, saved[2]}

	_, _, ds := validate(t, subTwins, "left", "right", merge.DefaultOptions(), nil)
	if len(ds) == 0 {
		t.Fatal("validator accepted comparands a broken pass left invalid")
	}
	for _, d := range ds {
		if !strings.Contains(d, "canonicalization pass broken-mem2reg left the") {
			t.Errorf("diagnostic does not name the broken pass: %s", d)
		}
	}
}
