package tv

import (
	"strings"
	"testing"

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

// mergeAndValidate parses src, merges @a with @b under opts (snapshots
// forced on, as -check=validate does), lets sabotage edit the merged
// function before the commit, commits, and returns the validator's
// findings.
func mergeAndValidate(t *testing.T, src, a, b string, opts merge.Options, sabotage func(*ir.Function)) []string {
	t.Helper()
	m, err := ir.ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	opts.SnapshotOriginals = true
	res, err := merge.Pair(m, m.Func(a), m.Func(b), opts)
	if err != nil {
		t.Fatalf("merge @%s + @%s: %v", a, b, err)
	}
	if sabotage != nil {
		sabotage(res.Merged)
	}
	info := merge.Commit(m, res)
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("committed module invalid: %v", err)
	}
	var msgs []string
	for _, d := range NewValidator(nil).ValidateCommit(m, info) {
		msgs = append(msgs, d.String())
	}
	return msgs
}

// TestValidateReorderedTwins: a correct CFG-aligned merge must validate
// clean on both sides.
func TestValidateReorderedTwins(t *testing.T) {
	opts := merge.DefaultOptions()
	opts.CFGAlign = true
	if ds := mergeAndValidate(t, reorderedTwins, "fam16_t0", "fam96_t0", opts, nil); len(ds) != 0 {
		t.Errorf("validator refuted a correct merge:\n%v", ds)
	}
}

// TestValidateRefutesSwappedOperands: the phi cleanup that makes the
// reordered twins validate must not hide a real miscompile — swapping
// the operands of a subtraction in the merged body is refuted.
func TestValidateRefutesSwappedOperands(t *testing.T) {
	if ds := mergeAndValidate(t, subTwins, "left", "right", merge.DefaultOptions(), nil); len(ds) != 0 {
		t.Fatalf("validator refuted the unsabotaged merge:\n%v", ds)
	}
	swapped := false
	swap := func(f *ir.Function) {
		f.Instructions(func(in *ir.Instr) {
			if !swapped && in.Op == ir.OpSub && in.Operands[0] != in.Operands[1] {
				in.Operands[0], in.Operands[1] = in.Operands[1], in.Operands[0]
				swapped = true
			}
		})
	}
	ds := mergeAndValidate(t, subTwins, "left", "right", merge.DefaultOptions(), swap)
	if !swapped {
		t.Fatal("merged function has no subtraction to sabotage")
	}
	if len(ds) == 0 {
		t.Error("validator accepted a merge with swapped subtraction operands")
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

	ds := mergeAndValidate(t, subTwins, "left", "right", merge.DefaultOptions(), nil)
	if len(ds) == 0 {
		t.Fatal("validator accepted comparands a broken pass left invalid")
	}
	for _, d := range ds {
		if !strings.Contains(d, "canonicalization pass broken-mem2reg left the") {
			t.Errorf("diagnostic does not name the broken pass: %s", d)
		}
	}
}
