package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"f3m/internal/analysis"
	"f3m/internal/ir"
	"f3m/internal/merge"
	"f3m/internal/obs"
)

func mustParse(t testing.TB, src string) *ir.Module {
	t.Helper()
	m, err := ir.ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.VerifyModule(m); err != nil {
		t.Fatal(err)
	}
	return m
}

// mergeAndCommit merges @fa and @fb in src and commits, returning the
// module and the commit record for corruption by the fault tests.
func mergeAndCommit(t *testing.T, src string) (*ir.Module, *merge.CommitInfo) {
	t.Helper()
	m := mustParse(t, src)
	res, err := merge.Pair(m, m.Func("fa"), m.Func("fb"), merge.DefaultOptions())
	if err != nil {
		t.Fatalf("Pair: %v", err)
	}
	info := merge.Commit(m, res)
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("module invalid after commit: %v", err)
	}
	return m, info
}

// twoParamSrc merges a pair with two forwarded parameters; @fa is
// address-taken so it survives as a thunk the fault tests can corrupt.
const twoParamSrc = `
define i32 @fa(i32 %x, i32 %y) {
entry:
  %a = add i32 %x, %y
  %b = mul i32 %a, 3
  ret i32 %b
}
define i32 @fb(i32 %x, i32 %y) {
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
define i32 @callA(i32 %x) {
entry:
  %r = call i32 @apply(i32(i32,i32)* @fa, i32 %x)
  ret i32 %r
}
define i32 @callB(i32 %x) {
entry:
  %r = call i32 @fb(i32 %x, i32 2)
  ret i32 %r
}`

func TestAuditCleanCommit(t *testing.T) {
	m, info := mergeAndCommit(t, twoParamSrc)
	ds := analysis.AuditCommit(analysis.NewManager(), m, info)
	if len(ds) != 0 {
		t.Errorf("clean commit produced diagnostics:\n%s", ds.RenderString())
	}
}

func TestAuditCatchesDroppedThunkArgument(t *testing.T) {
	m, info := mergeAndCommit(t, twoParamSrc)
	fa := m.Func("fa")
	if fa == nil || !info.A.Thunked {
		t.Fatal("expected @fa to survive as a thunk")
	}
	// Seeded fault: the thunk forwards undef where its own parameter
	// belongs — exactly the dropped-argument miscompile the auditor
	// exists to catch. The module still verifies.
	call := fa.Blocks[0].Instrs[0]
	args := call.CallArgs()
	corrupted := false
	for i := 1; i < len(args); i++ {
		if _, isParam := args[i].(*ir.Param); isParam {
			call.Operands[1+i] = ir.ConstUndef(args[i].Type())
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("thunk forwards no parameters; test premise broken")
	}
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("fault should be invisible to the base verifier: %v", err)
	}

	ds := analysis.AuditCommit(analysis.NewManager(), m, info)
	found := false
	for _, d := range ds {
		if d.Checker == analysis.CheckerMergeAudit && d.Func == "fa" &&
			strings.Contains(d.Msg, "want forwarded parameter") {
			found = true
			if d.Block == "" {
				t.Error("diagnostic lacks a block location")
			}
		}
	}
	if !found {
		t.Errorf("dropped thunk argument not caught; got:\n%s", ds.RenderString())
	}
}

func TestAuditCatchesWrongDiscriminator(t *testing.T) {
	m, info := mergeAndCommit(t, twoParamSrc)
	fa := m.Func("fa")
	call := fa.Blocks[0].Instrs[0]
	// Seeded fault: the thunk dispatches to the wrong side.
	call.Operands[1] = ir.ConstBool(m.Ctx, false)
	ds := analysis.AuditCommit(analysis.NewManager(), m, info)
	if !strings.Contains(ds.RenderString(), "thunk discriminator argument") {
		t.Errorf("wrong discriminator not caught; got:\n%s", ds.RenderString())
	}
}

func TestAuditCatchesDanglingCallSite(t *testing.T) {
	m, info := mergeAndCommit(t, twoParamSrc)
	if info.B.Thunked {
		t.Fatal("expected @fb to be deleted, not thunked")
	}
	// Seeded fault: a call-site rewrite that never happened — point
	// callB back at the deleted original.
	call := m.Func("callB").Blocks[0].Instrs[0]
	call.Operands = []ir.Value{info.B.Fn, call.CallArgs()[1], call.CallArgs()[2]}

	ds := analysis.AuditCommit(analysis.NewManager(), m, info)
	found := false
	for _, d := range ds {
		if d.Func == "callB" && strings.Contains(d.Msg, "deleted function @fb") {
			found = true
			if d.Block == "" || d.Instr == "" {
				t.Errorf("diagnostic not fully located: %s", d)
			}
		}
	}
	if !found {
		t.Errorf("dangling call site not caught; got:\n%s", ds.RenderString())
	}
}

func TestAuditCatchesDiscriminatorLeak(t *testing.T) {
	m, info := mergeAndCommit(t, twoParamSrc)
	g := info.Merged
	// Seeded fault: the discriminator leaks into arithmetic instead of
	// channeling control flow.
	leak := &ir.Instr{Op: ir.OpZExt, Ty: m.Ctx.I32, Operands: []ir.Value{g.Params[0]}, Nam: "leak"}
	entry := g.Blocks[0]
	entry.Instrs = append([]*ir.Instr{leak}, entry.Instrs...)

	ds := analysis.AuditCommit(analysis.NewManager(), m, info)
	if !strings.Contains(ds.RenderString(), "used outside a condbr/select condition") {
		t.Errorf("discriminator leak not caught; got:\n%s", ds.RenderString())
	}
}

// recursiveSrc is a pair where each function calls itself; the
// signatures differ, so both recursive calls stay direct in the merged
// body and Commit rewrites them into calls of the merged function.
const recursiveSrc = `
define i32 @fa(i32 %n, i32 %x) {
entry:
  %c = icmp sle i32 %n, 0
  br i1 %c, label %done, label %rec
rec:
  %n1 = sub i32 %n, 1
  %r = call i32 @fa(i32 %n1, i32 %x)
  %s = mul i32 %r, 3
  ret i32 %s
done:
  ret i32 %x
}
define i32 @fb(i32 %n) {
entry:
  %c = icmp sle i32 %n, 0
  br i1 %c, label %done, label %rec
rec:
  %n1 = sub i32 %n, 1
  %r = call i32 @fb(i32 %n1)
  %s = mul i32 %r, 5
  ret i32 %s
done:
  ret i32 %n
}`

// recursiveSite commits recursiveSrc and returns the rewritten
// recursive call of side A, which now sits inside the merged function.
func recursiveSite(t *testing.T) (*ir.Module, *merge.CommitInfo, *ir.Instr) {
	t.Helper()
	m, info := mergeAndCommit(t, recursiveSrc)
	if ds := analysis.AuditCommit(analysis.NewManager(), m, info); len(ds) != 0 {
		t.Fatalf("clean recursive commit audited dirty:\n%s", ds.RenderString())
	}
	for _, rc := range info.A.Calls {
		if rc.Call.Parent.Parent == info.Merged {
			return m, info, rc.Call
		}
	}
	t.Fatalf("no rewritten recursive call of @fa in the merged function:\n%s", ir.FuncString(info.Merged))
	return nil, nil, nil
}

// TestAuditCatchesWrongDiscriminatorAtRecursiveSite: the rewritten
// recursive call dispatches to the other side. The module verifies.
func TestAuditCatchesWrongDiscriminatorAtRecursiveSite(t *testing.T) {
	m, info, call := recursiveSite(t)
	call.Operands[1] = ir.ConstBool(m.Ctx, false)
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("fault should be invisible to the base verifier: %v", err)
	}
	ds := analysis.AuditCommit(analysis.NewManager(), m, info)
	found := false
	for _, d := range ds {
		if d.Func == info.Merged.Name() && d.Instr == call.Nam &&
			strings.Contains(d.Msg, "discriminator argument") {
			found = true
		}
	}
	if !found {
		t.Errorf("wrong discriminator at the recursive site not caught; got:\n%s", ds.RenderString())
	}
}

// TestAuditCatchesDroppedArgumentAtRecursiveSite: the rewritten
// recursive call passes undef where it must forward an argument.
func TestAuditCatchesDroppedArgumentAtRecursiveSite(t *testing.T) {
	m, info, call := recursiveSite(t)
	args := call.CallArgs()
	dropped := false
	for i := 1; i < len(args); i++ {
		if _, shared := info.A.ParamMap[i]; shared {
			call.Operands[1+i] = ir.ConstUndef(args[i].Type())
			dropped = true
			break
		}
	}
	if !dropped {
		t.Fatal("recursive call forwards no arguments; test premise broken")
	}
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("fault should be invisible to the base verifier: %v", err)
	}
	ds := analysis.AuditCommit(analysis.NewManager(), m, info)
	if !strings.Contains(ds.RenderString(), "want forwarded parameter") {
		t.Errorf("dropped argument at the recursive site not caught; got:\n%s", ds.RenderString())
	}
}

func TestAuditInvalidationTargetsRewrittenCallers(t *testing.T) {
	m := mustParse(t, twoParamSrc)
	mgr := analysis.NewManager()
	callB, apply := m.Func("callB"), m.Func("apply")

	// Warm the cache on a caller the commit will rewrite and on a
	// function the commit leaves untouched.
	staleB := mgr.Facts(callB)
	keptApply := mgr.Facts(apply)

	res, err := merge.Pair(m, m.Func("fa"), m.Func("fb"), merge.DefaultOptions())
	if err != nil {
		t.Fatalf("Pair: %v", err)
	}
	info := merge.Commit(m, res)
	if ds := analysis.AuditCommit(mgr, m, info); len(ds) != 0 {
		t.Fatalf("clean commit audited dirty:\n%s", ds.RenderString())
	}

	// The commit rewrote callB's direct call of @fb in place. Serving
	// the pre-commit facts would answer dominator and use queries about
	// a body that no longer exists.
	freshB := mgr.Facts(callB)
	if freshB == staleB {
		t.Fatal("stale cached facts served for a rewritten caller")
	}
	var newCall *ir.Instr
	callB.Instructions(func(in *ir.Instr) {
		if in.Op == ir.OpCall && in.Operands[0] == ir.Value(info.Merged) {
			newCall = in
		}
	})
	if newCall == nil {
		t.Fatal("callB was not rewritten to call the merged function")
	}
	if freshB.Uses[newCall] != 1 {
		t.Errorf("fresh facts count %d uses of the rewritten call, want 1", freshB.Uses[newCall])
	}

	// @apply only calls through a pointer, so the commit never touched
	// it: its facts must survive by pointer identity (the regression
	// this guards was wholesale InvalidateModule on every commit).
	if mgr.Facts(apply) != keptApply {
		t.Error("facts for an untouched function were dropped by a targeted invalidation")
	}

	// The commit metadata names callB as the one rewritten caller.
	found := false
	for _, c := range info.Callers {
		if c == callB {
			found = true
		}
	}
	if !found {
		t.Errorf("CommitInfo.Callers misses callB: %v", info.Callers)
	}
}

func TestStrictVerifyLocatesDanglingCall(t *testing.T) {
	m := mustParse(t, `
define i32 @callee(i32 %x) {
entry:
  ret i32 %x
}
define i32 @caller(i32 %x) {
entry:
  %r = call i32 @callee(i32 %x)
  ret i32 %r
}`)
	m.RemoveFunc(m.Func("callee"))
	ds := analysis.StrictVerify(analysis.NewManager(), m)
	want := "error [strict-verify] @caller:%entry:%r: call to @callee which is not a function in the module"
	if got := strings.TrimSpace(ds.RenderString()); got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestStrictVerifyDuplicateNames(t *testing.T) {
	m := mustParse(t, `
define i32 @f(i32 %x) {
entry:
  ret i32 %x
}`)
	dup := &ir.Function{Nam: "f", Sig: m.Func("f").Sig, Parent: m}
	m.Funcs = append(m.Funcs, dup)
	ds := analysis.StrictVerify(analysis.NewManager(), m)
	if !strings.Contains(ds.RenderString(), "defined 2 times") {
		t.Errorf("duplicate name not caught; got:\n%s", ds.RenderString())
	}
}

func TestLintFindings(t *testing.T) {
	m := mustParse(t, `
define i32 @f(i32 %x, i32 %y) {
entry:
  %unused = add i32 %x, %y
  %c = icmp sgt i32 %x, 0
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  %p = phi i32 [%x, %a], [%x, %b]
  ret i32 %p
dead:
  br label %join2
join2:
  ret i32 0
}`)
	ds := analysis.LintFunc(analysis.NewManager(), m.Func("f"))
	out := ds.RenderString()
	for _, want := range []string{
		"result of side-effect-free add is never used",
		"redundant phi: every incoming is %x",
		"@f:%dead: block is unreachable",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("lint missing %q; got:\n%s", want, out)
		}
	}
	// The used phi result must not be reported unused, and reachable
	// blocks must not be reported unreachable.
	if strings.Contains(out, "%p: result") || strings.Contains(out, "@f:%join: block") {
		t.Errorf("lint over-reported:\n%s", out)
	}
}

func TestLintDeadStoreAndUninitLoad(t *testing.T) {
	m := mustParse(t, `
define i32 @f(i32 %x) {
entry:
  %s = alloca i32
  %u = alloca i32
  store i32 %x, i32* %s
  store i32 7, i32* %s
  %v = load i32, i32* %s
  %w = load i32, i32* %u
  %r = add i32 %v, %w
  ret i32 %r
}`)
	ds := analysis.LintFunc(analysis.NewManager(), m.Func("f"))
	out := ds.RenderString()
	for _, want := range []string{
		"dead store: no load observes slot %s",
		"load of slot %u may observe an uninitialized value",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("lint missing %q; got:\n%s", want, out)
		}
	}
	// The second store is observed by the load of %v, and that load is
	// fully initialized: neither may be flagged.
	if n := strings.Count(out, "dead store"); n != 1 {
		t.Errorf("want exactly 1 dead-store finding, got %d:\n%s", n, out)
	}
	if strings.Contains(out, "slot %s may observe") {
		t.Errorf("initialized load over-reported:\n%s", out)
	}
}

func TestLintSlotChecksRespectBranches(t *testing.T) {
	// The entry store is observed on one of two paths and the load is
	// dominated by it, so the slot checks must stay silent.
	m := mustParse(t, `
define i32 @g(i32 %x, i1 %c) {
entry:
  %p = alloca i32
  store i32 %x, i32* %p
  br i1 %c, label %a, label %b
a:
  %v = load i32, i32* %p
  br label %join
b:
  br label %join
join:
  %r = phi i32 [%v, %a], [0, %b]
  ret i32 %r
}`)
	ds := analysis.LintFunc(analysis.NewManager(), m.Func("g"))
	out := ds.RenderString()
	if strings.Contains(out, "dead store") || strings.Contains(out, "uninitialized") {
		t.Errorf("slot checks over-reported on branchy but clean slot use:\n%s", out)
	}
}

func TestLintCleanAfterCleanup(t *testing.T) {
	// The committed merged function has been through the full cleanup
	// sequence, so the linter must stay silent on it.
	m, info := mergeAndCommit(t, twoParamSrc)
	_ = m
	ds := analysis.LintFunc(analysis.NewManager(), info.Merged)
	if len(ds) != 0 {
		t.Errorf("lint flagged a cleaned merged function:\n%s\n%s",
			ds.RenderString(), ir.FuncString(info.Merged))
	}
}

func TestManagerFacts(t *testing.T) {
	m := mustParse(t, `
define i32 @f(i32 %x) {
entry:
  %c = icmp sgt i32 %x, 0
  br i1 %c, label %a, label %b
a:
  %d = add i32 %x, 1
  br label %join
b:
  br label %join
join:
  %p = phi i32 [%d, %a], [%x, %b]
  ret i32 %p
}`)
	mgr := analysis.NewManager()
	f := m.Func("f")
	ff := mgr.Facts(f)
	if mgr.Facts(f) != ff {
		t.Error("facts not cached")
	}

	var blocks = map[string]*ir.Block{}
	for _, b := range f.Blocks {
		blocks[b.Name()] = b
	}
	var c, d, p *ir.Instr
	f.Instructions(func(in *ir.Instr) {
		switch in.Nam {
		case "c":
			c = in
		case "d":
			d = in
		case "p":
			p = in
		}
	})
	if ff.Uses[c] != 1 || ff.Uses[d] != 1 || ff.Uses[p] != 1 {
		t.Errorf("use counts c=%d d=%d p=%d, want 1 each", ff.Uses[c], ff.Uses[d], ff.Uses[p])
	}
	// %x is live into both arms (phi edge from b, add in a); %d is
	// live out of a (phi edge) but not out of b.
	x := ir.Value(f.Params[0])
	if !ff.LiveIn[blocks["a"]][x] || !ff.LiveIn[blocks["b"]][x] {
		t.Error("param x not live into both branch arms")
	}
	if !ff.LiveOut[blocks["a"]][ir.Value(d)] {
		t.Error("instr d not live out of its phi edge block")
	}
	if ff.LiveOut[blocks["b"]][ir.Value(d)] {
		t.Error("instr d spuriously live out of block b")
	}

	mgr.Invalidate(f)
	if mgr.Facts(f) == ff {
		t.Error("Invalidate did not drop cached facts")
	}
}

func TestEngineMetrics(t *testing.T) {
	met := obs.NewMetrics()
	eng := analysis.NewEngine(met)
	m := mustParse(t, `
define i32 @f(i32 %x) {
entry:
  ret i32 %x
}`)
	if ds := eng.StrictModule(m); len(ds) != 0 {
		t.Fatalf("unexpected diagnostics: %s", ds.RenderString())
	}
	if n := met.CounterValue("analysis.checks"); n != 1 {
		t.Errorf("analysis.checks = %d, want 1", n)
	}
	if n := met.CounterValue("analysis.checker.strict-verify.runs"); n != 1 {
		t.Errorf("strict-verify runs = %d, want 1", n)
	}
	if n := met.CounterValue("analysis.diagnostics.error"); n != 0 {
		t.Errorf("error count = %d, want 0", n)
	}
}

func TestEngineSeverityCounters(t *testing.T) {
	met := obs.NewMetrics()
	eng := analysis.NewEngine(met)
	m := mustParse(t, `
define i32 @callee(i32 %x) {
entry:
  ret i32 %x
}
define i32 @caller(i32 %x) {
entry:
  %r = call i32 @callee(i32 %x)
  ret i32 %r
}`)
	m.RemoveFunc(m.Func("callee"))
	ds := eng.StrictModule(m)
	if len(ds) != 1 {
		t.Fatalf("got %d diagnostics, want 1:\n%s", len(ds), ds.RenderString())
	}
	if n := met.CounterValue("analysis.diagnostics.error"); n != 1 {
		t.Errorf("error counter = %d, want 1", n)
	}
	if n := met.CounterValue("analysis.checker.strict-verify.diags"); n != 1 {
		t.Errorf("per-checker diag counter = %d, want 1", n)
	}
	if len(eng.All) != 1 {
		t.Errorf("engine accumulated %d diagnostics, want 1", len(eng.All))
	}
}

// TestRenderGolden pins the canonical rendering: sorted order and the
// severity/checker/location format.
func TestRenderGolden(t *testing.T) {
	ds := analysis.Diagnostics{
		{Checker: "lint", Sev: analysis.Warning, Func: "zeta", Block: "entry", Instr: "tmp", Msg: "result of side-effect-free add is never used"},
		{Checker: "merge-audit", Sev: analysis.Error, Func: "alpha", Block: "entry", Instr: "call", Msg: "call site still targets deleted function @old"},
		{Checker: "strict-verify", Sev: analysis.Error, Func: "alpha", Msg: "function defined 2 times in the module"},
		{Checker: "lint", Sev: analysis.Info, Msg: "module-scope note"},
		{Checker: "strict-verify", Sev: analysis.Error, Func: "alpha", Block: "entry", Instr: "call", Msg: "another finding on the same instruction"},
	}
	got := ds.RenderString()

	goldenPath := filepath.Join("testdata", "render.golden")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (regenerate by hand): %v", err)
	}
	if got != string(want) {
		t.Errorf("rendering diverged from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Rendering must not depend on emission order.
	rev := append(analysis.Diagnostics(nil), ds...)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	if rev.RenderString() != got {
		t.Error("rendering depends on emission order")
	}
}

func TestSeverityAndCount(t *testing.T) {
	ds := analysis.Diagnostics{
		{Sev: analysis.Info}, {Sev: analysis.Warning}, {Sev: analysis.Error}, {Sev: analysis.Error},
	}
	if got := ds.Count(analysis.Error); got != 2 {
		t.Errorf("Count(Error) = %d, want 2", got)
	}
	if got := ds.Count(analysis.Warning); got != 3 {
		t.Errorf("Count(Warning) = %d, want 3", got)
	}
	if got := ds.Count(analysis.Info); got != 4 {
		t.Errorf("Count(Info) = %d, want 4", got)
	}
	if analysis.Info.String() != "info" || analysis.Warning.String() != "warning" || analysis.Error.String() != "error" {
		t.Error("severity names changed; they are part of the rendering contract")
	}
}
