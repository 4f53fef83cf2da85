package core

import (
	"fmt"
	"strings"
	"testing"

	"f3m/internal/analysis"
	"f3m/internal/ir"
	"f3m/internal/irgen"
	"f3m/internal/obs"
)

// permutedTwinCfg generates a population where every family is a seed
// plus one block-permuted semantic twin: many small blocks, so the
// layout shuffle scrambles a large share of the cross-block shingles.
// At seed 5 the layout-order MinHash similarity of every twin pair
// stays below 0.88 while the canonical-order similarity is exactly 1.0
// (the canonicalizer fully undoes the shuffle), so a 0.95 threshold
// cleanly separates the two strategies; the same seed keeps all twelve
// twin merges profitable under the size model.
func permutedTwinCfg(seed int64) irgen.Config {
	return irgen.Config{
		Seed: seed, Families: 12, FamilySizeMin: 1, FamilySizeMax: 1,
		Singletons: 0, BlocksMin: 10, BlocksMax: 16, InstrsMin: 1, InstrsMax: 2,
		Callers: 0, PermutedFraction: 1.0,
	}
}

const permutedThreshold = 0.95

// TestCFGStrategyPermutedDifferential is the ground-truth experiment
// for CFG-aware alignment: on block-permuted twins the sequence
// strategy's layout-order fingerprints fall below the threshold and it
// commits zero merges, while f3m-cfg's canonical-order fingerprints
// see identical functions and merge every twin — with every commit
// re-proved by the translation validator.
func TestCFGStrategyPermutedDifferential(t *testing.T) {
	gcfg := permutedTwinCfg(5)

	// Sequence strategy: every twin pair ranks below the threshold.
	mSeq := irgen.Generate(gcfg).Module
	cSeq := DefaultConfig(F3MStatic)
	cSeq.Threshold = permutedThreshold
	cSeq.Check = CheckValidate
	repSeq, err := Run(mSeq, cSeq)
	if err != nil {
		t.Fatal(err)
	}
	if repSeq.Merges != 0 {
		t.Errorf("sequence strategy committed %d merges on permuted twins, want 0", repSeq.Merges)
	}

	// CFG strategy: every twin pair ranks at 1.0 and merges.
	res := irgen.Generate(gcfg)
	mCfg := res.Module
	cCfg := DefaultConfig(F3MCFG)
	cCfg.Threshold = permutedThreshold
	cCfg.Metrics = obs.NewMetrics()
	repCfg, err := Run(mCfg, cCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.VerifyModule(mCfg); err != nil {
		t.Fatalf("module invalid after f3m-cfg: %v", err)
	}

	merged := map[string]bool{}
	for _, p := range repCfg.Pairs {
		if p.Profitable {
			merged[p.A], merged[p.B] = true, true
		}
	}
	twins := 0
	for _, inf := range res.Info {
		if !inf.Permuted {
			continue
		}
		twins++
		if !merged[inf.Name] {
			t.Errorf("f3m-cfg did not merge permuted twin %s", inf.Name)
		}
	}
	if twins != gcfg.Families {
		t.Fatalf("fixture planted %d twins, want %d", twins, gcfg.Families)
	}
	if repCfg.Merges < twins {
		t.Errorf("f3m-cfg merges = %d, want at least %d", repCfg.Merges, twins)
	}

	// f3m-cfg forces -check=validate; every commit must have been
	// proved, with no errors surfacing.
	if nerr := repCfg.Diagnostics.Count(analysis.Error); nerr != 0 {
		t.Errorf("f3m-cfg run produced %d check errors", nerr)
	}
	if got := repCfg.Metrics.CounterValue("analysis.tv.commits"); got < int64(twins) {
		t.Errorf("validator proved %d commits, want at least %d", got, twins)
	}

	// The reorder histograms must have fired: every twin pair has moved
	// blocks, so the moves histogram records at least one nonzero entry.
	moves := repCfg.Metrics.Histogram("align.cfg.block_moves", blockMoveBounds)
	if moves.Count() < int64(twins) {
		t.Errorf("align.cfg.block_moves observed %d attempts, want at least %d", moves.Count(), twins)
	}
	if moves.Sum() == 0 {
		t.Error("align.cfg.block_moves sum is zero: no reordering was detected")
	}
	if sc := repCfg.Metrics.Histogram("align.cfg.score", decileBounds); sc.Count() == 0 {
		t.Error("align.cfg.score histogram never observed")
	}
}

// TestCFGStrategyValidateFloor: the f3m-cfg strategy must refuse to
// run below -check=validate (the CFG aligner reorders the artifact the
// merger consumes, so every commit is re-proved).
func TestCFGStrategyValidateFloor(t *testing.T) {
	m := irgen.Generate(permutedTwinCfg(5)).Module
	cfg := DefaultConfig(F3MCFG)
	cfg.Threshold = permutedThreshold
	cfg.Check = CheckOff
	cfg.Metrics = obs.NewMetrics()
	rep, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Merges == 0 {
		t.Fatal("fixture produced no merges; floor check is vacuous")
	}
	if nerr := rep.Diagnostics.Count(analysis.Error); nerr != 0 {
		t.Errorf("forced-validate run produced %d errors", nerr)
	}
	if got := rep.Metrics.CounterValue("analysis.tv.commits"); got < int64(rep.Merges) {
		t.Errorf("validator ran on %d of %d commits despite -check=off; f3m-cfg must force validate", got, rep.Merges)
	}
}

// TestCFGStrategyDeterminism pins byte-identical merge decisions for
// f3m-cfg across worker counts.
func TestCFGStrategyDeterminism(t *testing.T) {
	gcfg := permutedTwinCfg(7)
	gcfg.Families = 10
	gcfg.FamilySizeMax = 3 // mutated variants too, not just exact twins
	gcfg.Singletons = 8
	gcfg.Callers = 4

	run := func(workers int) *Report {
		t.Helper()
		m := irgen.Generate(gcfg).Module
		cfg := DefaultConfig(F3MCFG)
		cfg.Threshold = 0.8
		cfg.Workers = workers
		rep, err := Run(m, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := ir.VerifyModule(m); err != nil {
			t.Fatalf("workers=%d: invalid module: %v", workers, err)
		}
		return rep
	}

	ref := run(1)
	if ref.Merges == 0 {
		t.Fatal("fixture merged nothing; determinism check is vacuous")
	}
	for _, w := range []int{2, 8} {
		rep := run(w)
		checkSameDecisions(t, fmt.Sprintf("f3m-cfg w=%d", w), ref, rep)
	}
}

// TestParseStrategy pins the CLI strategy-name surface: every
// published name round-trips, and the unknown-name error enumerates
// the supported set.
func TestParseStrategy(t *testing.T) {
	want := map[string]Strategy{
		"hyfm":      HyFM,
		"f3m":       F3MStatic,
		"f3m-adapt": F3MAdaptive,
		"f3m-cfg":   F3MCFG,
	}
	names := StrategyNames()
	if len(names) != len(want) {
		t.Fatalf("StrategyNames() = %v, want %d entries", names, len(want))
	}
	for _, n := range names {
		s, err := ParseStrategy(n)
		if err != nil {
			t.Errorf("ParseStrategy(%q): %v", n, err)
		}
		if s != want[n] {
			t.Errorf("ParseStrategy(%q) = %v, want %v", n, s, want[n])
		}
	}
	_, err := ParseStrategy("bogus")
	if err == nil {
		t.Fatal("ParseStrategy(bogus) succeeded")
	}
	for _, n := range names {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("error %q does not mention supported strategy %q", err, n)
		}
	}
}
