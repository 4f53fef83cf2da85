package f3m_test

// One benchmark per table and figure of the paper's evaluation (the
// experiment registry runs at Tiny scale so `go test -bench=.`
// completes in minutes), plus headline micro-benchmarks for the
// mechanisms the paper's speedups come from: exhaustive vs LSH ranking,
// MinHash generation, and the merge operation itself.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"f3m/internal/analysis/summary"
	"f3m/internal/core"
	"f3m/internal/experiments"
	"f3m/internal/fingerprint"
	"f3m/internal/irgen"
	"f3m/internal/lsh"
	"f3m/internal/merge"
	"f3m/internal/obs"
)

func benchOptions() experiments.Options {
	return experiments.Options{Seed: 20220402, Tiny: true, Repeats: 1}
}

// benchExperiment runs a registered experiment as a benchmark body.
func benchExperiment(b *testing.B, id string) {
	run, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	o := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := run(o)
		if len(tab.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

// --- one bench per paper table/figure ---

func BenchmarkTable1SuiteGen(b *testing.B)               { benchExperiment(b, "table1") }
func BenchmarkFig3HyFMBreakdown(b *testing.B)            { benchExperiment(b, "fig3") }
func BenchmarkFig4FreqCorrelation(b *testing.B)          { benchExperiment(b, "fig4") }
func BenchmarkFig6SelectedPairHistogram(b *testing.B)    { benchExperiment(b, "fig6") }
func BenchmarkFig9ContributionBySimilarity(b *testing.B) { benchExperiment(b, "fig9") }
func BenchmarkFig10MinHashCorrelation(b *testing.B)      { benchExperiment(b, "fig10") }
func BenchmarkFig11SizeReduction(b *testing.B)           { benchExperiment(b, "fig11") }
func BenchmarkFig12CompileTime(b *testing.B)             { benchExperiment(b, "fig12") }
func BenchmarkFig13StageBreakdown(b *testing.B)          { benchExperiment(b, "fig13") }
func BenchmarkFig14ThresholdSweep(b *testing.B)          { benchExperiment(b, "fig14") }
func BenchmarkFig15KRSweep(b *testing.B)                 { benchExperiment(b, "fig15") }
func BenchmarkFig16BucketCap(b *testing.B)               { benchExperiment(b, "fig16") }
func BenchmarkFig17RuntimeImpact(b *testing.B)           { benchExperiment(b, "fig17") }
func BenchmarkExtProfile(b *testing.B)                   { benchExperiment(b, "ext-profile") }

// BenchmarkMinBlockRatio ablates the block-pair acceptance threshold:
// lower values merge more partial blocks (more guarded diamonds),
// higher values only merge nearly identical blocks.
func BenchmarkMinBlockRatio(b *testing.B) {
	spec := irgen.SuiteSpec{Name: "ablate", Funcs: 400, AvgInstrs: 22, CloneFraction: 0.45}
	for _, ratio := range []float64{0.25, 0.5, 0.75, 1.0} {
		b.Run(fmt.Sprintf("ratio=%.2f", ratio), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := irgen.Generate(spec.Config(9)).Module
				cfg := core.DefaultConfig(core.F3MStatic)
				cfg.MergeOpts.MinBlockRatio = ratio
				b.StartTimer()
				rep, err := core.Run(m, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*rep.Reduction(), "size-reduction-%")
			}
		})
	}
}

// --- headline mechanism benchmarks ---

// BenchmarkRanking compares the cost of pairing every function with a
// candidate under exhaustive opcode-frequency search (HyFM) vs MinHash
// + LSH (F3M), across population sizes. This is the paper's Figure 3 /
// Figure 13 phenomenon reduced to its core.
func BenchmarkRanking(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000} {
		pop := irgen.GenerateEncoded(7, n, 25, 0.4)

		b.Run(fmt.Sprintf("HyFM-exhaustive/n=%d", n), func(b *testing.B) {
			type freq [64]int32
			fps := make([]freq, len(pop.Seqs))
			for i, seq := range pop.Seqs {
				for _, e := range seq {
					fps[i][uint32(e)&63]++
				}
			}
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				for i := range fps {
					best, bestD := -1, int32(1<<30)
					for j := range fps {
						if i == j {
							continue
						}
						var d int32
						for k := 0; k < 64; k++ {
							x := fps[i][k] - fps[j][k]
							if x < 0 {
								x = -x
							}
							d += x
						}
						if d < bestD {
							best, bestD = j, d
						}
					}
					_ = best
				}
			}
		})

		b.Run(fmt.Sprintf("F3M-LSH/n=%d", n), func(b *testing.B) {
			cfg := (&fingerprint.Config{K: 200, ShingleSize: 2, Seed: 0xF3}).Prepare()
			for it := 0; it < b.N; it++ {
				ix := lsh.NewIndex(lsh.DefaultParams())
				sigs := make([]fingerprint.MinHash, len(pop.Seqs))
				for i, seq := range pop.Seqs {
					sigs[i] = cfg.New(seq)
					ix.Insert(i, sigs[i])
				}
				for i := range sigs {
					ix.Best(i, sigs[i], 0)
				}
			}
		})

		b.Run(fmt.Sprintf("F3M-adaptive/n=%d", n), func(b *testing.B) {
			t, params, k := lsh.AdaptiveParams(n)
			cfg := (&fingerprint.Config{K: k, ShingleSize: 2, Seed: 0xF3}).Prepare()
			for it := 0; it < b.N; it++ {
				ix := lsh.NewIndex(params)
				sigs := make([]fingerprint.MinHash, len(pop.Seqs))
				for i, seq := range pop.Seqs {
					sigs[i] = cfg.New(seq)
					ix.Insert(i, sigs[i])
				}
				for i := range sigs {
					ix.Best(i, sigs[i], t)
				}
			}
		})
	}
}

// BenchmarkParallelPreprocessRank measures preprocessing (fingerprinting
// + LSH build) and candidate ranking across core.Config.Workers settings
// on the largest generated module the pipeline benchmarks use. Workers
// fans out only the fingerprinting; the LSH build, ranking and the
// merge/commit loop are sequential, so the per-op `preprocess+rank-ms`
// metric shows the fingerprinting gain diluted by the sequential
// stages (total ns/op also includes the merge loop). The determinism
// tests in internal/core assert the merge decisions are byte-identical
// across worker counts, and the `merges` metric makes that visible
// here too. Worker fan-out only pays on a multicore machine
// (GOMAXPROCS > 1); on a single CPU the goroutine scheduling shows up
// as pure overhead.
func BenchmarkParallelPreprocessRank(b *testing.B) {
	spec := irgen.SuiteSpec{Name: "parallel", Funcs: 4000, AvgInstrs: 25, CloneFraction: 0.4}
	for _, strat := range []core.Strategy{core.F3MStatic, core.HyFM} {
		for _, w := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", strat, w), func(b *testing.B) {
				var stage time.Duration
				merges := 0
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					m := irgen.Generate(spec.Config(11)).Module
					cfg := core.DefaultConfig(strat)
					cfg.Workers = w
					b.StartTimer()
					rep, err := core.Run(m, cfg)
					if err != nil {
						b.Fatal(err)
					}
					stage += rep.Times.Preprocess + rep.Times.RankSuccess + rep.Times.RankFail
					merges = rep.Merges
				}
				b.ReportMetric(float64(stage.Milliseconds())/float64(b.N), "preprocess+rank-ms")
				b.ReportMetric(float64(merges), "merges")
			})
		}
	}
}

// BenchmarkObsOverhead measures what the observability layer costs the
// whole pipeline: `off` is the default nil-handle configuration (the
// hooks reduce to one nil check each and must stay within noise of the
// pre-instrumentation pipeline), `traced` and `metered` enable the
// tracer and the metrics registry. Compare ns/op of the three
// sub-benchmarks; the acceptance bar is `off` within 2% of what
// BenchmarkPipeline/F3M measured before the hooks existed, i.e.
// disabled observability is free.
func BenchmarkObsOverhead(b *testing.B) {
	spec := irgen.SuiteSpec{Name: "bench", Funcs: 800, AvgInstrs: 22, CloneFraction: 0.45}
	modes := []struct {
		name string
		set  func(*core.Config)
	}{
		{"off", func(*core.Config) {}},
		{"traced", func(c *core.Config) { c.Tracer = obs.NewTracer() }},
		{"metered", func(c *core.Config) { c.Metrics = obs.NewMetrics() }},
		{"both", func(c *core.Config) { c.Tracer = obs.NewTracer(); c.Metrics = obs.NewMetrics() }},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := irgen.Generate(spec.Config(3)).Module
				cfg := core.DefaultConfig(core.F3MStatic)
				mode.set(&cfg)
				b.StartTimer()
				if _, err := core.Run(m, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMergeStage measures a whole F3M pass — preprocessing, the
// LSH build and the sequential rank/align/codegen/commit loop — on an
// 800-function clone-rich module. `merges` pins the outcome, so a
// change that moves ns/op by merging differently shows up next to the
// time. scripts/bench.sh records these numbers in BENCH_merge.json and
// gates allocs/op against BENCH_budget.json.
func BenchmarkMergeStage(b *testing.B) {
	spec := irgen.SuiteSpec{Name: "mergebench", Funcs: 800, AvgInstrs: 22, CloneFraction: 0.45}
	b.ReportAllocs()
	merges := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := irgen.Generate(spec.Config(3)).Module
		cfg := core.DefaultConfig(core.F3MStatic)
		// Collect generator garbage outside the timed window so ns/op
		// reflects the merge stage, not irgen's leftovers.
		runtime.GC()
		b.StartTimer()
		rep, err := core.Run(m, cfg)
		if err != nil {
			b.Fatal(err)
		}
		merges = rep.Merges
	}
	b.ReportMetric(float64(merges), "merges")
}

// BenchmarkAlignStrategies compares the sequence pipeline against the
// CFG-aware one on a population dense with block-permuted semantic
// twins — the adversarial input the canonical dominator-tree order was
// built for. Both runs use -check=validate so ns/op is apples to
// apples (f3m-cfg forces it). `align-score` is the mean alignment
// score over attempted pairs: the sequence aligner mis-pairs shuffled
// blocks and scores low, the canonical aligner recovers the original
// order and scores high, and `merges` shows what that buys at commit
// time. `block-moves` (cfg only) is the mean number of reordered block
// pairs per attempt. scripts/bench.sh records all of it in
// BENCH_align.json to track the trajectory across PRs.
func BenchmarkAlignStrategies(b *testing.B) {
	gcfg := irgen.Config{
		Seed: 3, Families: 60, FamilySizeMin: 2, FamilySizeMax: 3,
		Singletons: 30, BlocksMin: 8, BlocksMax: 14, InstrsMin: 2, InstrsMax: 4,
		MutationMin: 0, MutationMax: 0.3, Callers: 10, PermutedFraction: 1.0,
	}
	for _, tc := range []struct {
		name  string
		strat core.Strategy
	}{
		{"sequence", core.F3MStatic},
		{"cfg", core.F3MCFG},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var scoreSum, moveSum float64
			var scoreN, moveN int64
			merges := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := irgen.Generate(gcfg).Module
				cfg := core.DefaultConfig(tc.strat)
				// High-precision regime: at this threshold ranking only
				// surfaces near-identical pairs, so the twins' fate is
				// decided by fingerprint order — the axis under test.
				cfg.Threshold = 0.9
				cfg.Check = core.CheckValidate
				cfg.Metrics = obs.NewMetrics()
				runtime.GC()
				b.StartTimer()
				rep, err := core.Run(m, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				merges = rep.Merges
				if h := rep.Metrics.Histogram("align.score", nil); h.Count() > 0 {
					scoreSum += h.Sum()
					scoreN += h.Count()
				}
				if h := rep.Metrics.Histogram("align.cfg.block_moves", nil); h.Count() > 0 {
					moveSum += h.Sum()
					moveN += h.Count()
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(merges), "merges")
			if scoreN > 0 {
				b.ReportMetric(scoreSum/float64(scoreN), "align-score")
			}
			if moveN > 0 {
				b.ReportMetric(moveSum/float64(moveN), "block-moves")
			}
		})
	}
}

// BenchmarkSummaryExtract measures the per-module half of the
// cross-module workflow: reducing a module to its merge summaries plus
// the versioned JSON encoding `f3m summary` writes. This is the work a
// build system repeats per changed module, so throughput
// (`summaries/s`) is the headline number and `bytes/func` tracks the
// summary format's weight — the whole point of summaries is shipping
// these bytes instead of IR. scripts/bench.sh records both in
// BENCH_summary.json to track the trajectory across PRs.
func BenchmarkSummaryExtract(b *testing.B) {
	spec := irgen.SuiteSpec{Name: "sumbench", Funcs: 800, AvgInstrs: 22, CloneFraction: 0.45}
	m := irgen.Generate(spec.Config(3)).Module
	b.ReportAllocs()
	b.ResetTimer()
	funcs, bytes := 0, 0
	for i := 0; i < b.N; i++ {
		ms := summary.Extract(m, summary.Params{}, nil, nil)
		enc, err := ms.Encode()
		if err != nil {
			b.Fatal(err)
		}
		funcs = ms.NumFuncs
		bytes = len(enc)
	}
	if funcs > 0 {
		if s := b.Elapsed().Seconds(); s > 0 {
			b.ReportMetric(float64(funcs)*float64(b.N)/s, "summaries/s")
		}
		b.ReportMetric(float64(bytes)/float64(funcs), "bytes/func")
	}
}

// BenchmarkMergePair measures one align+codegen+cleanup merge attempt.
func BenchmarkMergePair(b *testing.B) {
	cfg := irgen.DefaultConfig(5)
	cfg.Callers = 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := irgen.Generate(cfg).Module
		fa, fb := m.Func("fam0_v0"), m.Func("fam0_v1")
		b.StartTimer()
		res, err := merge.Pair(m, fa, fb, merge.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		merge.Discard(m, res)
		b.StartTimer()
	}
}

// BenchmarkPipeline measures whole-module merging per strategy on a
// mid-size module.
func BenchmarkPipeline(b *testing.B) {
	spec := irgen.SuiteSpec{Name: "bench", Funcs: 800, AvgInstrs: 22, CloneFraction: 0.45}
	for _, strat := range []core.Strategy{core.HyFM, core.F3MStatic, core.F3MAdaptive} {
		b.Run(strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := irgen.Generate(spec.Config(3)).Module
				b.StartTimer()
				if _, err := core.Run(m, core.DefaultConfig(strat)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
