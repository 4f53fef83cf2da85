package core

import (
	"errors"
	"os"
	"testing"

	"f3m/internal/ir"
	"f3m/internal/irgen"
	"f3m/internal/merge"
	"f3m/internal/minic"
)

// normalizePairs strips the wall-clock field so pair logs can be
// compared across runs (StageTimes and MergeDur are the only report
// fields allowed to differ between worker counts).
func normalizePairs(ps []PairOutcome) []PairOutcome {
	out := make([]PairOutcome, len(ps))
	for i, p := range ps {
		p.MergeDur = 0
		out[i] = p
	}
	return out
}

// checkSameDecisions asserts two reports made identical merge
// decisions.
func checkSameDecisions(t *testing.T, label string, a, b *Report) {
	t.Helper()
	if a.Merges != b.Merges {
		t.Errorf("%s: merges %d vs %d", label, a.Merges, b.Merges)
	}
	if a.Attempts != b.Attempts {
		t.Errorf("%s: attempts %d vs %d", label, a.Attempts, b.Attempts)
	}
	if a.SizeAfter != b.SizeAfter {
		t.Errorf("%s: size-after %d vs %d", label, a.SizeAfter, b.SizeAfter)
	}
	if a.LSHStats != b.LSHStats {
		t.Errorf("%s: LSH stats differ: %+v vs %+v", label, a.LSHStats, b.LSHStats)
	}
	pa, pb := normalizePairs(a.Pairs), normalizePairs(b.Pairs)
	if len(pa) != len(pb) {
		t.Errorf("%s: pair log length %d vs %d", label, len(pa), len(pb))
		return
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Errorf("%s: pair %d differs: %+v vs %+v", label, i, pa[i], pb[i])
		}
	}
}

// TestParallelDeterminism: every Workers setting must produce the
// byte-identical report (and final module size) the sequential path
// produces, for every strategy.
func TestParallelDeterminism(t *testing.T) {
	gencfg := irgen.DefaultConfig(404)
	gencfg.Callers = 0
	for _, strat := range []Strategy{HyFM, F3MStatic, F3MAdaptive} {
		m1 := irgen.Generate(gencfg).Module
		c1 := DefaultConfig(strat)
		c1.Workers = 1
		rep1, err := Run(m1, c1)
		if err != nil {
			t.Fatalf("%v workers=1: %v", strat, err)
		}
		for _, w := range []int{0, 2, 4, 7} {
			mw := irgen.Generate(gencfg).Module
			cw := DefaultConfig(strat)
			cw.Workers = w
			repw, err := Run(mw, cw)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", strat, w, err)
			}
			if err := ir.VerifyModule(mw); err != nil {
				t.Fatalf("%v workers=%d: invalid module: %v", strat, w, err)
			}
			checkSameDecisions(t, strat.String(), rep1, repw)
		}
	}
}

// TestParallelDeterminismTestdata runs the same check on the checked-in
// mini-C module.
func TestParallelDeterminismTestdata(t *testing.T) {
	src, err := os.ReadFile("../../testdata/handlers.c")
	if err != nil {
		t.Fatal(err)
	}
	compile := func() *ir.Module {
		m, err := minic.Compile("handlers.c", string(src))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1 := compile()
	c1 := DefaultConfig(F3MStatic)
	c1.Workers = 1
	rep1, err := Run(m1, c1)
	if err != nil {
		t.Fatal(err)
	}
	m4 := compile()
	c4 := DefaultConfig(F3MStatic)
	c4.Workers = 4
	rep4, err := Run(m4, c4)
	if err != nil {
		t.Fatal(err)
	}
	checkSameDecisions(t, "handlers.c", rep1, rep4)
	if rep1.Merges == 0 {
		t.Error("testdata module merged nothing; determinism check is vacuous")
	}
}

// TestParallelSemanticsPreserved exercises the parallel path under the
// full differential harness (and, under -race, guards the worker pool).
func TestParallelSemanticsPreserved(t *testing.T) {
	for _, strat := range []Strategy{HyFM, F3MStatic} {
		cfg := irgen.DefaultConfig(505)
		cfg.Callers = 0
		gen := irgen.Generate(cfg)
		work := gen.Module
		drivers := addDrivers(work)

		ref := irgen.Generate(cfg).Module
		addDrivers(ref)
		want := make(map[string]int64, len(drivers))
		for _, d := range drivers {
			want[d] = runDriver(t, ref, d)
		}

		rcfg := DefaultConfig(strat)
		rcfg.Workers = 4
		if _, err := Run(work, rcfg); err != nil {
			t.Fatal(err)
		}
		if err := ir.VerifyModule(work); err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		for _, d := range drivers {
			if got := runDriver(t, work, d); got != want[d] {
				t.Errorf("%v workers=4: %s = %d, want %d", strat, d, got, want[d])
			}
		}
	}
}

// TestMergeErrorPropagates: an unexpected merge failure must surface
// through Run's error return, not crash the caller's process.
func TestMergeErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	old := mergePair
	mergePair = func(m *ir.Module, fa, fb *ir.Function, o merge.Options) (*merge.Result, error) {
		return nil, boom
	}
	defer func() { mergePair = old }()

	gencfg := irgen.DefaultConfig(606)
	gencfg.Callers = 0
	for _, strat := range []Strategy{HyFM, F3MStatic} {
		m := irgen.Generate(gencfg).Module
		_, err := Run(m, DefaultConfig(strat))
		if !errors.Is(err, boom) {
			t.Errorf("%v: Run error = %v, want wrapped boom", strat, err)
		}
	}
}

// TestResolveWorkers pins the knob semantics: 0 = GOMAXPROCS, 1 =
// sequential, N = N.
func TestResolveWorkers(t *testing.T) {
	if got := resolveWorkers(1); got != 1 {
		t.Errorf("resolveWorkers(1) = %d", got)
	}
	if got := resolveWorkers(6); got != 6 {
		t.Errorf("resolveWorkers(6) = %d", got)
	}
	if got := resolveWorkers(0); got < 1 {
		t.Errorf("resolveWorkers(0) = %d", got)
	}
	if got := resolveWorkers(-3); got < 1 {
		t.Errorf("resolveWorkers(-3) = %d", got)
	}
}

// TestParallelFor covers the chunked scheduler against a plain loop.
func TestParallelFor(t *testing.T) {
	for _, n := range []int{0, 1, 5, 1000} {
		for _, w := range []int{1, 2, 4, 16} {
			got := make([]int, n)
			poolRun(n, w, nil, "test", func(i int) { got[i] = i + 1 })
			for i, v := range got {
				if v != i+1 {
					t.Fatalf("n=%d w=%d: index %d not visited (got %d)", n, w, i, v)
				}
			}
		}
	}
}
