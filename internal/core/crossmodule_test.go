package core

import (
	"fmt"
	"strings"
	"testing"

	"f3m/internal/analysis/summary"
	"f3m/internal/ir"
	"f3m/internal/irgen"
	"f3m/internal/merge"
	"f3m/internal/obs"
)

// splitAndIndex splits m into n separately-parsed modules, extracts a
// summary from each, and ingests them into a fresh index.
func splitAndIndex(t *testing.T, m *ir.Module, n int) ([]*ir.Module, *summary.Index) {
	t.Helper()
	parts, err := ir.SplitModule(m, n)
	if err != nil {
		t.Fatal(err)
	}
	ix := summary.NewIndex()
	for _, p := range parts {
		if err := ix.Add(summary.Extract(p, summary.Params{}, nil, nil)); err != nil {
			t.Fatal(err)
		}
	}
	return parts, ix
}

// summaryReportKey extends reportKey with the partition-independent
// cross-module accounting. CrossModulePlanned/CrossModuleMerges are
// deliberately excluded: which pairs span a module boundary is a
// property of the partitioning, not of the program.
func summaryReportKey(t *testing.T, sr *SummaryReport) string {
	t.Helper()
	return fmt.Sprintf("planned=%d validated=%d stale=%d missp=%d\n%s",
		sr.Planned, sr.Validated, sr.Stale, sr.Misspeculated,
		reportKey(t, sr.Report))
}

func runSummaryMerge(t *testing.T, m *ir.Module, n int) (*SummaryReport, *ir.Module) {
	t.Helper()
	parts, ix := splitAndIndex(t, m, n)
	cfg := DefaultConfig(F3MStatic)
	cfg.Metrics = obs.NewMetrics()
	sr, linked, err := RunSummaryMerge("linked", parts, ix, cfg)
	if err != nil {
		t.Fatalf("split=%d: %v", n, err)
	}
	if err := ir.VerifyModule(linked); err != nil {
		t.Fatalf("split=%d: merged module invalid: %v", n, err)
	}
	return sr, linked
}

// TestSummaryMergeDeterminism is the cross-module determinism
// contract: the same program partitioned into 2, 4 or 8 separately
// parsed modules produces the identical report — pair log, counters,
// accounting, diagnostics.
func TestSummaryMergeDeterminism(t *testing.T) {
	m := irgen.Generate(irgen.DefaultConfig(61)).Module

	var baseKey string
	var baseText string
	for _, n := range []int{2, 4, 8} {
		sr, linked := runSummaryMerge(t, m, n)
		if sr.Misspeculated != 0 || sr.Replays != 0 {
			t.Fatalf("split=%d: misspeculation on clean inputs: %+v", n, sr)
		}
		if sr.Diagnostics.Count(0) != 0 {
			t.Fatalf("split=%d: diagnostics on clean inputs:\n%s", n, sr.Diagnostics.RenderString())
		}
		if sr.CrossModuleMerges == 0 || sr.CrossModulePlanned == 0 {
			t.Fatalf("split=%d: no cross-module pairs; test is vacuous", n)
		}
		key := summaryReportKey(t, sr)
		text := ir.ModuleString(linked)
		if baseKey == "" {
			baseKey, baseText = key, text
			if sr.Merges == 0 {
				t.Fatal("baseline merged nothing; test is vacuous")
			}
			continue
		}
		if key != baseKey {
			t.Errorf("report differs at split=%d:\n--- base ---\n%s\n--- got ---\n%s", n, baseKey, key)
		}
		if text != baseText {
			t.Errorf("merged module differs at split=%d", n)
		}
	}
}

// TestSummaryMergeDifferential proves the point of the whole scheme:
// pairs that round-robin splitting placed in different modules cannot
// be merged by any per-module run, but the summary-driven global run
// commits them. The corpus plants two-member families — round-robin
// splitting into two modules separates every adjacent pair, so the
// per-module runs provably cannot reach the family merges the global
// plan finds.
func TestSummaryMergeDifferential(t *testing.T) {
	gcfg := irgen.DefaultConfig(61)
	gcfg.Families = 12
	gcfg.FamilySizeMin, gcfg.FamilySizeMax = 2, 2
	gcfg.Singletons = 10
	gcfg.MutationMax = 0.1
	gcfg.Callers = 5
	gcfg.ConfuserFraction = 0
	m := irgen.Generate(gcfg).Module
	parts, ix := splitAndIndex(t, m, 2)

	// Per-module baseline: the best any summary-free run can do.
	perModule := 0
	for _, p := range parts {
		// Run mutates its module; per-module runs get private copies.
		cp, err := ir.ParseModule(ir.ModuleString(p))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(F3MStatic)
		cfg.Check = CheckValidate
		rep, err := Run(cp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		perModule += rep.Merges
	}

	cfg := DefaultConfig(F3MStatic)
	cfg.Metrics = obs.NewMetrics()
	sr, linked, err := RunSummaryMerge("linked", parts, ix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.VerifyModule(linked); err != nil {
		t.Fatal(err)
	}
	if sr.CrossModuleMerges == 0 {
		t.Fatal("no cross-module merges committed")
	}
	if sr.Merges <= perModule {
		t.Errorf("summary run committed %d merges, per-module runs %d — no cross-module win", sr.Merges, perModule)
	}
	if sr.Misspeculated != 0 {
		t.Errorf("misspeculated=%d on clean inputs", sr.Misspeculated)
	}
	if got := cfg.Metrics.CounterValue("summary.validated"); got != int64(sr.Validated) {
		t.Errorf("summary.validated counter=%d, want %d", got, sr.Validated)
	}
	if sr.Validated != sr.Merges {
		t.Errorf("validated=%d != merges=%d", sr.Validated, sr.Merges)
	}
}

// TestSummaryMergeStaleSummary corrupts one summary's staleness facts
// (sequence digest, then signature hash) and proves the optimistic
// merge degrades to a skipped pair: no merge of the lying summary, no
// replay, clean diagnostics, valid module.
func TestSummaryMergeStaleSummary(t *testing.T) {
	m := irgen.Generate(irgen.DefaultConfig(61)).Module

	// Learn a committed pair from a clean run.
	cleanSr, _ := runSummaryMerge(t, m, 2)
	var victim string
	for _, p := range cleanSr.Pairs {
		if p.Profitable {
			victim = p.A
			break
		}
	}
	if victim == "" {
		t.Fatal("clean run committed nothing")
	}

	corruptions := []struct {
		name    string
		corrupt func(fs *summary.FuncSummary)
	}{
		{"seq_digest", func(fs *summary.FuncSummary) { fs.SeqDigest ^= 0xdead }},
		{"sig_hash", func(fs *summary.FuncSummary) { fs.SigHash ^= 0xbeef }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			parts, ix := splitAndIndex(t, m, 2)
			found := false
			for _, ms := range ix.Modules() {
				for _, fs := range ms.Funcs {
					if fs.Name == victim {
						tc.corrupt(fs)
						found = true
					}
				}
			}
			if !found {
				t.Fatalf("victim %s not in any summary", victim)
			}
			cfg := DefaultConfig(F3MStatic)
			cfg.Metrics = obs.NewMetrics()
			sr, linked, err := RunSummaryMerge("linked", parts, ix, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := ir.VerifyModule(linked); err != nil {
				t.Fatalf("merged module invalid: %v", err)
			}
			if sr.Stale == 0 {
				t.Error("corrupted summary not detected as stale")
			}
			if sr.Misspeculated != 0 || sr.Replays != 0 {
				t.Errorf("staleness should not need a replay: %+v", sr)
			}
			if got := cfg.Metrics.CounterValue("summary.stale"); got != int64(sr.Stale) {
				t.Errorf("summary.stale counter=%d, want %d", got, sr.Stale)
			}
			if sr.Diagnostics.Count(0) != 0 {
				t.Errorf("diagnostics after stale skip:\n%s", sr.Diagnostics.RenderString())
			}
			for _, p := range sr.Pairs {
				if (p.A == victim || p.B == victim) && p.Attempted {
					t.Errorf("pair %s + %s attempted despite corrupt summary", p.A, p.B)
				}
			}
		})
	}
}

// TestSummaryMergeMisspeculation injects a fault past the staleness
// check: the summaries are honest but the merge itself is corrupted
// before commit, so only the translation validator can catch it. The
// run must detect the refuted commit, replay without the pair, and end
// with a clean report and a valid module — and summary.misspeculated
// must say it happened.
func TestSummaryMergeMisspeculation(t *testing.T) {
	m := irgen.Generate(irgen.DefaultConfig(61)).Module
	parts, ix := splitAndIndex(t, m, 2)

	orig := mergePair
	defer func() { mergePair = orig }()
	sabotaged := false
	mergePair = func(mod *ir.Module, fa, fb *ir.Function, opts merge.Options) (*merge.Result, error) {
		res, err := orig(mod, fa, fb, opts)
		if err == nil && !sabotaged && res.Profitable && len(res.Merged.Params) > 0 {
			// Swap the sides of the first select on the discriminator:
			// the merged body now computes B's value on A's path. Only
			// the validator sees it.
			fid := ir.Value(res.Merged.Params[0])
			res.Merged.Instructions(func(in *ir.Instr) {
				if !sabotaged && in.Op == ir.OpSelect && in.Operands[0] == fid {
					in.Operands[1], in.Operands[2] = in.Operands[2], in.Operands[1]
					sabotaged = true
				}
			})
		}
		return res, err
	}

	cfg := DefaultConfig(F3MStatic)
	cfg.Metrics = obs.NewMetrics()
	sr, linked, err := RunSummaryMerge("linked", parts, ix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sabotaged {
		t.Fatal("sabotage never fired; test is vacuous")
	}
	if err := ir.VerifyModule(linked); err != nil {
		t.Fatalf("merged module invalid after replay: %v", err)
	}
	if sr.Misspeculated != 1 || sr.Replays != 1 {
		t.Errorf("misspeculated=%d replays=%d, want 1/1", sr.Misspeculated, sr.Replays)
	}
	if got := cfg.Metrics.CounterValue("summary.misspeculated"); got != 1 {
		t.Errorf("summary.misspeculated counter=%d, want 1", got)
	}
	// The final (replayed) report must be clean: the refuted commit was
	// rolled back with the tainted module, not shipped.
	if sr.Diagnostics.Count(0) != 0 {
		t.Errorf("diagnostics survived the replay:\n%s", sr.Diagnostics.RenderString())
	}
	if sr.Validated != sr.Merges {
		t.Errorf("validated=%d != merges=%d", sr.Validated, sr.Merges)
	}
	// The blacklisted pair appears as an unattempted outcome.
	unattempted := 0
	for _, p := range sr.Pairs {
		if !p.Attempted && p.B != "" {
			unattempted++
		}
	}
	if unattempted == 0 {
		t.Error("blacklisted pair not recorded in the final report")
	}
}

// TestSummaryMergeEmptyAndTiny covers the degenerate ends: one module,
// and modules with nothing mergeable.
func TestSummaryMergeSingleModule(t *testing.T) {
	m := irgen.Generate(irgen.DefaultConfig(61)).Module
	parts, ix := splitAndIndex(t, m, 1)
	cfg := DefaultConfig(F3MStatic)
	sr, linked, err := RunSummaryMerge("linked", parts, ix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.VerifyModule(linked); err != nil {
		t.Fatal(err)
	}
	if sr.CrossModulePlanned != 0 || sr.CrossModuleMerges != 0 {
		t.Errorf("cross-module accounting nonzero for one module: %+v", sr)
	}
	if sr.Merges == 0 {
		t.Error("single-module summary run merged nothing")
	}
	if !strings.Contains(linked.Name, "linked") {
		t.Errorf("linked module name %q", linked.Name)
	}
}
