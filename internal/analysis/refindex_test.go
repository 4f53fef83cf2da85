package analysis_test

import (
	"reflect"
	"strings"
	"testing"

	"f3m/internal/analysis"
	"f3m/internal/analysis/summary"
	"f3m/internal/core"
	"f3m/internal/ir"
	"f3m/internal/irgen"
	"f3m/internal/merge"
)

// checkIndexAtEveryCommit installs a hook comparing the live reference
// index with one rebuilt from scratch at every audited commit, runs
// run, and returns how many commits were checked.
func checkIndexAtEveryCommit(t *testing.T, run func()) int {
	t.Helper()
	commits := 0
	restore := analysis.SetAfterIndexUpdate(func(mgr *analysis.Manager, m *ir.Module) {
		commits++
		live, mod := analysis.LiveRefIndex(mgr)
		if mod != m {
			t.Fatalf("commit %d: live index describes another module", commits)
		}
		if want := analysis.RebuiltRefIndex(m); !reflect.DeepEqual(live, want) {
			t.Fatalf("commit %d: live reference index differs from a rebuild:\nlive %d indexed, %d referenced, %d dangling\nwant %d indexed, %d referenced, %d dangling",
				commits, len(live.Indexed), len(live.In), len(live.Dangling),
				len(want.Indexed), len(want.In), len(want.Dangling))
		}
	})
	defer restore()
	run()
	return commits
}

// TestRefIndexMatchesRebuildAtEveryCommit is the incremental audit's
// property test: across real pipeline runs, re-indexing only what each
// commit touched leaves exactly the index a full walk would build.
func TestRefIndexMatchesRebuildAtEveryCommit(t *testing.T) {
	suite600 := irgen.SuiteSpec{Name: "suite600", Funcs: 600, AvgInstrs: 30, CloneFraction: 0.35}
	runs := []struct {
		name string
		gen  irgen.Config
	}{
		{"default-corpus", irgen.DefaultConfig(13)},
		{"suite600", suite600.Config(2)},
	}
	for _, tc := range runs {
		for _, strat := range []core.Strategy{core.HyFM, core.F3MStatic} {
			t.Run(tc.name+"/"+strat.String(), func(t *testing.T) {
				m := irgen.Generate(tc.gen).Module
				cfg := core.DefaultConfig(strat)
				cfg.Check = core.CheckFast
				var rep *core.Report
				commits := checkIndexAtEveryCommit(t, func() {
					var err error
					if rep, err = core.Run(m, cfg); err != nil {
						t.Fatal(err)
					}
				})
				if commits < 2 || commits != rep.Merges {
					t.Fatalf("checked %d commits of %d merges; the incremental path needs at least 2", commits, rep.Merges)
				}
				if len(rep.Diagnostics) != 0 {
					t.Errorf("clean run produced diagnostics:\n%s", rep.Diagnostics.RenderString())
				}
			})
		}
	}

	t.Run("summary-merge-x4", func(t *testing.T) {
		m := irgen.Generate(suite600.Config(3)).Module
		irgen.AddDrivers(m)
		parts, err := ir.SplitModule(m, 4)
		if err != nil {
			t.Fatal(err)
		}
		ix := summary.NewIndex()
		for _, p := range parts {
			if err := ix.Add(summary.Extract(p, summary.Params{}, nil, nil)); err != nil {
				t.Fatal(err)
			}
		}
		var sr *core.SummaryReport
		commits := checkIndexAtEveryCommit(t, func() {
			if sr, _, err = core.RunSummaryMerge("linked", parts, ix, core.DefaultConfig(core.F3MStatic)); err != nil {
				t.Fatal(err)
			}
		})
		if commits < 2 || sr.Validated < 2 {
			t.Fatalf("checked %d commits, %d validated; the incremental path needs at least 2", commits, sr.Validated)
		}
	})
}

// twoPairSrc adds a second mergeable pair to twoParamSrc, so a test can
// commit @fc+@fd first and then fault the @fa+@fb commit, which a
// shared Manager audits incrementally. @callB2 is a second caller of
// @fb for the call-index fault.
const twoPairSrc = twoParamSrc + `
define i32 @fc(i32 %x) {
entry:
  %a = sub i32 %x, 1
  %b = mul i32 %a, 7
  ret i32 %b
}
define i32 @fd(i32 %x) {
entry:
  %a = sub i32 %x, 1
  %b = mul i32 %a, 9
  ret i32 %b
}
define i32 @callC(i32 %x) {
entry:
  %r = call i32 @fc(i32 %x)
  ret i32 %r
}
define i32 @callD(i32 %x) {
entry:
  %r = call i32 @fd(i32 %x)
  ret i32 %r
}
define i32 @callB2(i32 %x) {
entry:
  %r2 = call i32 @fb(i32 %x, i32 4)
  ret i32 %r2
}`

// commitSecond commits @fc+@fd and audits it with mgr (it must be
// clean), then merges and commits @fa+@fb, calling beforeCommit in
// between. It returns the second commit's record, unaudited.
func commitSecond(t *testing.T, m *ir.Module, mgr *analysis.Manager, opts merge.Options, beforeCommit func()) *merge.CommitInfo {
	t.Helper()
	res, err := merge.Pair(m, m.Func("fc"), m.Func("fd"), opts)
	if err != nil {
		t.Fatalf("Pair(fc, fd): %v", err)
	}
	if ds := analysis.AuditCommit(mgr, m, merge.Commit(m, res)); len(ds) != 0 {
		t.Fatalf("first commit audited dirty:\n%s", ds.RenderString())
	}
	if beforeCommit != nil {
		beforeCommit()
	}
	if res, err = merge.Pair(m, m.Func("fa"), m.Func("fb"), opts); err != nil {
		t.Fatalf("Pair(fa, fb): %v", err)
	}
	return merge.Commit(m, res)
}

// auditSecond audits a non-first commit with the shared Manager and
// checks that the incremental audit renders exactly what a full walk
// (a fresh Manager) renders.
func auditSecond(t *testing.T, mgr *analysis.Manager, m *ir.Module, info *merge.CommitInfo) analysis.Diagnostics {
	t.Helper()
	full := analysis.AuditCommit(analysis.NewManager(), m, info).RenderString()
	ds := analysis.AuditCommit(mgr, m, info)
	if got := ds.RenderString(); got != full {
		t.Errorf("incremental audit differs from a full walk:\n got %q\nwant %q", got, full)
	}
	return ds
}

func TestAuditCatchesDanglingCallSiteSecondCommit(t *testing.T) {
	m := mustParse(t, twoPairSrc)
	mgr := analysis.NewManager()
	info := commitSecond(t, m, mgr, merge.DefaultOptions(), nil)
	if info.B.Thunked {
		t.Fatal("expected @fb to be deleted, not thunked")
	}
	call := m.Func("callB").Blocks[0].Instrs[0]
	call.Operands = []ir.Value{info.B.Fn, call.CallArgs()[1], call.CallArgs()[2]}

	ds := auditSecond(t, mgr, m, info)
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

func TestAuditCatchesDroppedThunkArgumentSecondCommit(t *testing.T) {
	m := mustParse(t, twoPairSrc)
	mgr := analysis.NewManager()
	info := commitSecond(t, m, mgr, merge.DefaultOptions(), nil)
	fa := m.Func("fa")
	if fa == nil || !info.A.Thunked {
		t.Fatal("expected @fa to survive as a thunk")
	}
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

	ds := auditSecond(t, mgr, m, info)
	if !strings.Contains(ds.RenderString(), "want forwarded parameter") {
		t.Errorf("dropped thunk argument not caught; got:\n%s", ds.RenderString())
	}
}

// TestAuditCatchesCallerOutsideCommitInfo seeds a fault the commit
// record cannot show: the merger's call-site index loses @callB2's call
// of @fb before the second commit, so Commit deletes @fb without
// rewriting that call and CommitInfo.Callers does not name @callB2. The
// audit must still find the dangling call through its own reference
// index.
func TestAuditCatchesCallerOutsideCommitInfo(t *testing.T) {
	m := mustParse(t, twoPairSrc)
	mgr := analysis.NewManager()
	idx := merge.NewCallIndex(m)
	opts := merge.DefaultOptions()
	opts.Index = idx
	callB2 := m.Func("callB2")
	info := commitSecond(t, m, mgr, opts, func() { idx.RemoveFunction(callB2) })
	if info.B.Thunked || m.Func("fb") != nil {
		t.Fatal("expected @fb to be deleted, not thunked")
	}
	for _, c := range info.Callers {
		if c == callB2 {
			t.Fatal("@callB2 was rewritten; the seeded fault did not take")
		}
	}

	ds := auditSecond(t, mgr, m, info)
	want := "error [merge-audit] @callB2:%entry:%r2: call site still targets deleted function @fb"
	if got := strings.TrimSpace(ds.RenderString()); got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}
