package core

import (
	"fmt"
	"strings"
	"testing"

	"f3m/internal/align"
	"f3m/internal/ir"
	"f3m/internal/irgen"
	"f3m/internal/merge"
	"f3m/internal/obs"
)

// reportKey renders every schedule-independent field of a report into
// one comparable string: the pair log (without wall-clock durations),
// the aggregate counters, the effective parameters, the LSH statistics
// and the canonically rendered diagnostics. Two runs that differ only
// in scheduling must produce identical keys.
func reportKey(t *testing.T, rep *Report) string {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "strategy=%v funcs=%d attempts=%d merges=%d size=%d->%d\n",
		rep.Strategy, rep.NumFuncs, rep.Attempts, rep.Merges, rep.SizeBefore, rep.SizeAfter)
	fmt.Fprintf(&sb, "t=%v b=%d k=%d lsh=%+v\n", rep.Threshold, rep.Bands, rep.K, rep.LSHStats)
	for _, p := range rep.Pairs {
		fmt.Fprintf(&sb, "pair %s + %s sim=%v attempted=%v profitable=%v saving=%d\n",
			p.A, p.B, p.Similarity, p.Attempted, p.Profitable, p.Saving)
	}
	if err := rep.Diagnostics.Render(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// metricsJSON serializes the deterministic metrics export.
func metricsJSON(t *testing.T, mx *obs.Metrics) string {
	t.Helper()
	var sb strings.Builder
	if err := mx.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// detGenConfigs returns the corpora the determinism tests sweep: the
// default population plus a long-straightline variant whose blocks
// clear the banded aligner's minimum length, so the byte-identical
// contract is proven through the fast path as well as the full DP.
func detGenConfigs(seed int64) []irgen.Config {
	long := irgen.DefaultConfig(seed)
	long.Families = 8
	long.Singletons = 10
	long.BlocksMin, long.BlocksMax = 2, 4
	long.InstrsMin, long.InstrsMax = 30, 60
	long.MutationMax = 0.2
	long.Callers = 4
	return []irgen.Config{irgen.DefaultConfig(seed), long}
}

// runDetRun executes one pipeline run on a freshly generated module
// with strict checks and a metrics registry.
func runDetRun(t *testing.T, strat Strategy, gen irgen.Config, workers int) (*Report, string) {
	t.Helper()
	m := irgen.Generate(gen).Module
	cfg := DefaultConfig(strat)
	cfg.Workers = workers
	cfg.Check = CheckStrict
	cfg.Metrics = obs.NewMetrics()
	rep, err := Run(m, cfg)
	if err != nil {
		t.Fatalf("%v w=%d: %v", strat, workers, err)
	}
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("%v w=%d: module invalid: %v", strat, workers, err)
	}
	return rep, metricsJSON(t, cfg.Metrics)
}

// TestWorkersDeterminismBanded: the Report — pair log, counters, LSH
// statistics, strict-mode Diagnostics — and the deterministic metrics
// export must be byte-identical for every Workers setting, over a
// corpus that drives the banded aligner as well as the full DP.
func TestWorkersDeterminismBanded(t *testing.T) {
	bandedBefore := align.BandedHits()
	for _, strat := range []Strategy{F3MStatic, F3MAdaptive} {
		for _, seed := range []int64{42, 103} {
			for gi, gen := range detGenConfigs(seed) {
				rep1, json1 := runDetRun(t, strat, gen, 1)
				key1 := reportKey(t, rep1)
				if rep1.Merges == 0 {
					t.Fatalf("%v seed %d gen %d: baseline merged nothing; test is vacuous", strat, seed, gi)
				}
				for _, w := range []int{2, 8} {
					rep, json := runDetRun(t, strat, gen, w)
					if key := reportKey(t, rep); key != key1 {
						t.Errorf("%v seed %d gen %d: report differs at Workers=%d:\n--- w=1 ---\n%s\n--- w=%d ---\n%s",
							strat, seed, gi, w, key1, w, key)
					}
					if json != json1 {
						t.Errorf("%v seed %d gen %d: deterministic metrics JSON differs at Workers=%d", strat, seed, gi, w)
					}
				}
			}
		}
	}
	// The determinism contract must hold *through* the banded aligner,
	// not around it: if the fast path never fired over this corpus the
	// byte-identical comparison above proved nothing about it.
	if align.BandedHits() == bandedBefore {
		t.Error("banded fast path never engaged across the determinism corpus; banded coverage is vacuous")
	}
}

// addTupleDrivers is addDrivers over a caller-supplied salt corpus: one
// variadic driver per (candidate, salt), so the differential check
// exercises each merged function on several argument tuples.
func addTupleDrivers(m *ir.Module, salts []int64) []string {
	c := m.Ctx
	var names []string
	for _, f := range candidates(m) {
		for si, salt := range salts {
			dn := fmt.Sprintf("tdrv_%s_%d", f.Name(), si)
			d := m.NewFunc(dn, c.VariadicFunc(c.I32))
			bd := ir.NewBuilder(d.NewBlock("entry"))
			args := make([]ir.Value, len(f.Params))
			for i, p := range f.Params {
				if p.Ty.IsFloat() {
					args[i] = ir.ConstFloat(p.Ty, float64(salt)+0.5)
				} else {
					args[i] = ir.ConstInt(p.Ty, salt+int64(i))
				}
			}
			r := ir.Value(bd.Call(f, args...))
			switch rt := f.ReturnType(); {
			case rt == c.I32:
			case rt.IsFloat():
				r = bd.Cast(ir.OpFPToSI, r, c.I32)
			case rt.IsInt() && rt.Bits > 32:
				r = bd.Cast(ir.OpTrunc, r, c.I32)
			case rt.IsInt():
				r = bd.Cast(ir.OpSExt, r, c.I32)
			default:
				r = ir.ConstInt(c.I32, 0)
			}
			bd.Ret(r)
			names = append(names, dn)
		}
	}
	return names
}

// TestWorkersDifferential is the pipeline-level differential sweep:
// run the full pass under strict checks at 1, 2 and 8 workers and
// check, through the interpreter, that every driver — calling the
// original functions on an argument-tuple corpus through their possibly
// rewritten call sites — still computes what the unmerged reference
// module computes.
func TestWorkersDifferential(t *testing.T) {
	salts := []int64{0, 5, -7, 95}
	gcfg := irgen.DefaultConfig(7)
	gcfg.Callers = 0

	ref := irgen.Generate(gcfg).Module
	drivers := addTupleDrivers(ref, salts)
	want := make(map[string]int64, len(drivers))
	for _, d := range drivers {
		want[d] = runDriver(t, ref, d)
	}

	for _, w := range []int{1, 2, 8} {
		work := irgen.Generate(gcfg).Module
		addTupleDrivers(work, salts)
		cfg := DefaultConfig(F3MStatic)
		cfg.Workers = w
		cfg.Check = CheckStrict
		rep, err := Run(work, cfg)
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		if rep.Merges == 0 {
			t.Fatalf("w=%d: no merges; differential is vacuous", w)
		}
		if len(rep.Diagnostics) != 0 {
			t.Fatalf("w=%d: strict diagnostics: %v", w, rep.Diagnostics)
		}
		for _, d := range drivers {
			if got := runDriver(t, work, d); got != want[d] {
				t.Errorf("w=%d: %s = %d, want %d", w, d, got, want[d])
			}
		}
	}
}

// staleFixture builds a module with two identical mergeable functions.
func staleFixture(t *testing.T) (*ir.Module, *ir.Function, *ir.Function) {
	t.Helper()
	src := `
define i32 @left(i32 %x) {
entry:
  %a = add i32 %x, 3
  %b = mul i32 %a, 7
  %c = xor i32 %b, 11
  %d = add i32 %c, 5
  ret i32 %d
}
define i32 @right(i32 %x) {
entry:
  %a = add i32 %x, 3
  %b = mul i32 %a, 7
  %c = xor i32 %b, 11
  %d = add i32 %c, 5
  ret i32 %d
}`
	m, err := ir.ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	return m, m.Func("left"), m.Func("right")
}

// TestStaleOperandRevalidation: attemptMerge must refuse a pair whose
// operand is no longer a live module member, before any alignment work.
func TestStaleOperandRevalidation(t *testing.T) {
	m, fa, fb := staleFixture(t)
	m.RemoveFunc(fb)

	cfg := DefaultConfig(F3MStatic)
	cfg.Metrics = obs.NewMetrics()
	rep := &Report{}
	ok, err := attemptMerge(m, fa, fb, cfg, rep, nil, 0, 1, nil)
	if err != nil || ok {
		t.Fatalf("attemptMerge on stale operand = (%v, %v), want rejection", ok, err)
	}
	if got := cfg.Metrics.CounterValue("merge.stale_operand"); got != 1 {
		t.Errorf("merge.stale_operand = %d, want 1", got)
	}
	if rep.Merges != 0 || rep.Attempts != 1 {
		t.Errorf("report merges=%d attempts=%d, want 0/1", rep.Merges, rep.Attempts)
	}
	if err := ir.VerifyModule(m); err != nil {
		t.Errorf("module invalid after rejection: %v", err)
	}
}

// TestStaleCommitFault seeds the race the commit-time re-validation
// guards against: the merge hook consumes an operand between alignment
// and commit. The committer must detect it, discard the merged
// function, and leave the module valid.
func TestStaleCommitFault(t *testing.T) {
	m, fa, fb := staleFixture(t)

	orig := mergePair
	mergePair = func(mm *ir.Module, a, b *ir.Function, opts merge.Options) (*merge.Result, error) {
		res, err := orig(mm, a, b, opts)
		if err == nil {
			mm.RemoveFunc(b) // the seeded fault
		}
		return res, err
	}
	defer func() { mergePair = orig }()

	cfg := DefaultConfig(F3MStatic)
	cfg.Metrics = obs.NewMetrics()
	rep := &Report{}
	ok, err := attemptMerge(m, fa, fb, cfg, rep, nil, 0, 1, nil)
	if err != nil || ok {
		t.Fatalf("attemptMerge with consumed operand = (%v, %v), want discard", ok, err)
	}
	if got := cfg.Metrics.CounterValue("merge.stale_commit"); got != 1 {
		t.Errorf("merge.stale_commit = %d, want 1", got)
	}
	if rep.Merges != 0 {
		t.Errorf("report shows %d merges, want 0", rep.Merges)
	}
	if m.Func("left") != fa {
		t.Error("surviving operand was disturbed")
	}
	if strings.Contains(moduleFuncNames(m), "merged.") {
		t.Error("discarded merged function still in module")
	}
	if err := ir.VerifyModule(m); err != nil {
		t.Errorf("module invalid after discard: %v", err)
	}
}

func moduleFuncNames(m *ir.Module) string {
	var names []string
	for _, f := range m.Funcs {
		names = append(names, f.Name())
	}
	return strings.Join(names, ",")
}

// TestCachePoisonIllFormed injects structurally broken cache entries
// into every merge attempt of a full pipeline run. Validation must
// reject each one and recompute, leaving the report byte-identical to
// a clean run and the strict checks silent.
func TestCachePoisonIllFormed(t *testing.T) {
	cleanRep, _ := runDetRun(t, F3MStatic, irgen.DefaultConfig(42), 1)
	cleanKey := reportKey(t, cleanRep)

	m := irgen.Generate(irgen.DefaultConfig(42)).Module
	cch := align.NewCache(0)
	cfg := DefaultConfig(F3MStatic)
	cfg.Check = CheckStrict
	cfg.Metrics = obs.NewMetrics()
	cfg.MergeOpts.AlignCache = cch

	orig := mergePair
	mergePair = func(mm *ir.Module, a, b *ir.Function, opts merge.Options) (*merge.Result, error) {
		cch.CorruptNextForTest(1, true)
		return orig(mm, a, b, opts)
	}
	defer func() { mergePair = orig }()

	rep, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if key := reportKey(t, rep); key != cleanKey {
		t.Errorf("poisoned-cache report differs from clean run:\n--- clean ---\n%s\n--- poisoned ---\n%s", cleanKey, key)
	}
	if st := cch.Stats(); st.Rejects == 0 {
		t.Error("no cache rejects recorded; the fault never fired")
	}
	if len(rep.Diagnostics) != 0 {
		t.Errorf("strict diagnostics under cache poisoning: %v", rep.Diagnostics)
	}
}

// TestCachePoisonWellFormed injects legal-but-wrong (all-gap) cache
// entries, which pass validation by construction. Merge decisions may
// shift, but the merger's own operand re-verification must keep the
// module valid and semantics intact.
func TestCachePoisonWellFormed(t *testing.T) {
	gcfg := irgen.DefaultConfig(42)
	gcfg.Callers = 0
	ref := irgen.Generate(gcfg).Module
	drivers := addDrivers(ref)
	want := make(map[string]int64, len(drivers))
	for _, d := range drivers {
		want[d] = runDriver(t, ref, d)
	}

	work := irgen.Generate(gcfg).Module
	addDrivers(work)
	cch := align.NewCache(0)
	cfg := DefaultConfig(F3MStatic)
	cfg.Check = CheckStrict
	cfg.MergeOpts.AlignCache = cch

	orig := mergePair
	mergePair = func(mm *ir.Module, a, b *ir.Function, opts merge.Options) (*merge.Result, error) {
		cch.CorruptNextForTest(1, false)
		return orig(mm, a, b, opts)
	}
	defer func() { mergePair = orig }()

	rep, err := Run(work, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diagnostics) != 0 {
		t.Errorf("strict diagnostics under well-formed poisoning: %v", rep.Diagnostics)
	}
	if err := ir.VerifyModule(work); err != nil {
		t.Fatalf("module invalid: %v", err)
	}
	for _, d := range drivers {
		if got := runDriver(t, work, d); got != want[d] {
			t.Errorf("%s = %d, want %d", d, got, want[d])
		}
	}
}
