// Package core assembles the paper's systems into whole-module
// function-merging passes:
//
//   - HyFM, the state-of-the-art baseline (Section II): opcode-frequency
//     fingerprints ranked by exhaustive nearest-neighbour search;
//   - F3M static (Section III): MinHash fingerprints ranked through an
//     LSH index with fixed k=200, r=2, b=100;
//   - F3M adaptive (Section III-D): threshold and band count derived
//     from the function count via Equations 3 and 4.
//
// A Run reports the same stage breakdown the paper's Figures 3 and 13
// plot (preprocessing, ranking, alignment and code generation, each
// split by whether the attempted merge succeeded) plus the pair log the
// distribution figures are built from.
//
// Run is the authoritative entry point for batch (one-shot) use and for
// the merge-as-a-service daemon alike: internal/serve replays Run over
// its live module set on every incremental re-merge, passing a
// persistent alignment cache through Config.MergeOpts. Because the
// cache is outcome-neutral and the Report is identical for every
// Workers value, the daemon's reports stay byte-identical
// to a one-shot run over the same modules (DESIGN.md, "Serving").
package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"f3m/internal/align"
	"f3m/internal/analysis"
	"f3m/internal/fingerprint"
	"f3m/internal/ir"
	"f3m/internal/lsh"
	"f3m/internal/merge"
	"f3m/internal/obs"
)

// Strategy selects the ranking mechanism.
type Strategy int

// Available strategies.
const (
	// HyFM: opcode-frequency fingerprints, exhaustive O(n^2) ranking.
	HyFM Strategy = iota
	// F3MStatic: MinHash + LSH with the paper's fixed defaults.
	F3MStatic
	// F3MAdaptive: MinHash + LSH with Equations 3 and 4 choosing the
	// threshold, band count and fingerprint size.
	F3MAdaptive
	// F3MCFG: F3M static parameters with CFG-aware alignment: MinHash
	// fingerprints are computed over the canonical dominator-tree block
	// order (align.Canonicalize) instead of the layout order, and the
	// merger pairs blocks with the reorder-tolerant canonical matcher
	// (align.MatchBlocksCFG). Block-permuted semantic twins, which the
	// sequence strategies rank near zero, rank at their true similarity.
	// Every commit is gated through the translation validator: the run
	// forces at least CheckValidate.
	F3MCFG
)

// String names the strategy as in the paper's legends.
func (s Strategy) String() string {
	switch s {
	case HyFM:
		return "HyFM"
	case F3MStatic:
		return "F3M"
	case F3MAdaptive:
		return "F3M-adapt"
	case F3MCFG:
		return "F3M-cfg"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// StrategyNames lists the accepted -strategy spellings, in menu order.
func StrategyNames() []string {
	return []string{"hyfm", "f3m", "f3m-adapt", "f3m-cfg"}
}

// ParseStrategy maps a CLI -strategy spelling to its Strategy value;
// the error enumerates the supported spellings.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "hyfm":
		return HyFM, nil
	case "f3m":
		return F3MStatic, nil
	case "f3m-adapt":
		return F3MAdaptive, nil
	case "f3m-cfg":
		return F3MCFG, nil
	}
	return 0, fmt.Errorf("unknown strategy %q (supported: %s)",
		name, strings.Join(StrategyNames(), ", "))
}

// Config parameterizes a pass run.
type Config struct {
	Strategy Strategy

	// K is the MinHash fingerprint size (F3M only). Zero means the
	// static default 200, or the adaptive choice under F3MAdaptive.
	K int

	// Rows and Bands are the LSH shape (F3M only). Zero means r=2 and
	// b=K/r.
	Rows, Bands int

	// Threshold is the minimum MinHash similarity for a candidate to
	// be attempted (F3M only). Under F3MAdaptive it is derived from
	// the function count unless explicitly set non-negative here.
	// Use a negative value to request the default.
	Threshold float64

	// BucketCap caps per-bucket comparisons (F3M only); 0 = paper
	// default 100; negative = unlimited.
	BucketCap int

	// Seed selects the MinHash hash family.
	Seed uint64

	// Workers is the degree of parallelism for fingerprinting, the one
	// stage that fans out: 0 (the default) uses GOMAXPROCS, 1 forces
	// the sequential path, any other value sets the pool size. Every
	// setting produces the identical Report — same pairs, merges and
	// counters; only the StageTimes wall clocks differ. The LSH build,
	// ranking and the commit loop are always sequential, so module
	// mutation semantics do not depend on Workers. RunSummaryMerge
	// fingerprints nothing and ignores it.
	Workers int

	// Hotness, when set, enables the profile-guided extension the
	// paper sketches as future work (Section IV-F): among candidates
	// of nearly equal similarity, the ranking prefers the least
	// frequently executed one, steering merge overhead away from hot
	// code. The value is a per-function execution weight (e.g. call
	// counts from the interpreter).
	Hotness func(name string) float64

	// HotnessSlack is the similarity band treated as "equally good"
	// when Hotness is set (default 0.05).
	HotnessSlack float64

	// HotSkip, when positive and Hotness is set, excludes functions
	// with hotness >= HotSkip from merging altogether: guard and
	// select overhead never lands on the hot set, trading a little
	// code-size reduction for (nearly) zero runtime overhead — the
	// full version of the paper's Section IV-F conjecture.
	HotSkip float64

	// MergeOpts tune code generation and profitability.
	MergeOpts merge.Options

	// Tracer, when set, receives a span per pipeline stage and per
	// merge attempt (see internal/obs). Nil — the default — disables
	// tracing; the pipeline then pays one nil check per hook.
	Tracer *obs.Tracer

	// Metrics, when set, receives the candidate-funnel counters, LSH
	// occupancy statistics, alignment-score histograms and pool
	// utilization (see internal/obs). The deterministic subset of the
	// registry — everything but wall-clock and worker-count gauges —
	// is identical for every Workers setting, extending the
	// determinism contract to the metrics export. Nil disables
	// metrics collection.
	Metrics *obs.Metrics

	// Check selects the static-analysis level (see internal/analysis):
	// CheckOff disables it, CheckFast audits each committed merge, and
	// CheckStrict adds full-module verification before and after the
	// pipeline plus a lint sweep over the merged functions. All
	// checkers run from the sequential phases of the pipeline, so
	// Report.Diagnostics is identical for every Workers setting.
	Check CheckMode
}

// DefaultConfig returns the configuration for a strategy with the
// paper's defaults.
func DefaultConfig(s Strategy) Config {
	return Config{
		Strategy:  s,
		Threshold: -1,
		Seed:      0xF3F3F3F3,
		MergeOpts: merge.DefaultOptions(),
	}
}

// StageTimes is the cost breakdown of one run, mirroring the stage
// split of Figures 3 and 13. Ranking time is attributed to Success or
// Fail according to the outcome of the merge attempt it led to (no
// candidate counts as Fail).
type StageTimes struct {
	Preprocess     time.Duration
	RankSuccess    time.Duration
	RankFail       time.Duration
	AlignSuccess   time.Duration
	AlignFail      time.Duration
	CodegenSuccess time.Duration
	CodegenFail    time.Duration
}

// Total sums all stages.
func (t StageTimes) Total() time.Duration {
	return t.Preprocess + t.RankSuccess + t.RankFail +
		t.AlignSuccess + t.AlignFail + t.CodegenSuccess + t.CodegenFail
}

// PairOutcome logs one ranking decision and its merge outcome; the
// distribution figures (6 and 9) are drawn from these.
type PairOutcome struct {
	A, B string

	// Similarity is the fingerprint similarity under the strategy's
	// metric (normalized frequency similarity for HyFM, MinHash
	// Jaccard estimate for F3M).
	Similarity float64

	// Attempted is false when ranking produced no candidate.
	Attempted bool

	// Profitable reports whether the merge was committed.
	Profitable bool

	// Saving is the size-model reduction achieved (0 when not
	// committed).
	Saving int

	// MergeDur is the align+codegen time spent on the attempt.
	MergeDur time.Duration
}

// Report summarizes a pass run.
type Report struct {
	Strategy              Strategy
	NumFuncs              int
	Attempts              int
	Merges                int
	SizeBefore, SizeAfter int
	Times                 StageTimes
	Pairs                 []PairOutcome

	// Threshold/Bands/K record the effective parameters (interesting
	// under F3MAdaptive).
	Threshold float64
	Bands, K  int

	// LSHStats carries bucket counters (F3M only).
	LSHStats lsh.IndexStats

	// Metrics echoes Config.Metrics after the run has published into
	// it, so callers that handed a registry to Run can read the named
	// counters straight off the report (the experiments harness does).
	// Nil when metrics were disabled.
	Metrics *obs.Metrics

	// Diagnostics collects the findings of the configured Check mode,
	// in emission order (Render sorts canonically). Empty when checks
	// were off or everything passed.
	Diagnostics analysis.Diagnostics
}

// Reduction is the fractional code-size reduction achieved. Degenerate
// size accounting — a non-positive starting size or a negative final
// size, neither of which a real run produces — reports 0 rather than a
// nonsensical (or infinite) ratio.
func (r *Report) Reduction() float64 {
	if r.SizeBefore <= 0 || r.SizeAfter < 0 {
		return 0
	}
	return 1 - float64(r.SizeAfter)/float64(r.SizeBefore)
}

// ModuleCost is the size model applied to a whole module.
func ModuleCost(m *ir.Module) int {
	c := 0
	for _, f := range m.Funcs {
		c += merge.Cost(f)
	}
	return c
}

// Run applies the configured function-merging pass to the module,
// mutating it in place, and returns the report.
func Run(m *ir.Module, cfg Config) (*Report, error) {
	switch cfg.Strategy {
	case HyFM:
		return runHyFM(m, cfg)
	case F3MStatic, F3MAdaptive, F3MCFG:
		return runF3M(m, cfg)
	}
	return nil, fmt.Errorf("core: unknown strategy %d", cfg.Strategy)
}

// withCallIndex builds the live call-site index the merger uses for
// profitability and for rewriting call sites without whole-module
// walks (one walk here instead of two per commit).
func withCallIndex(m *ir.Module, cfg Config) Config {
	if cfg.MergeOpts.Index == nil && cfg.MergeOpts.CallSiteCount == nil {
		cfg.MergeOpts.Index = merge.NewCallIndex(m)
	}
	// The translation validator compares every commit against the
	// pre-merge bodies, which only exist if Commit snapshots them.
	if cfg.Check >= CheckValidate {
		cfg.MergeOpts.SnapshotOriginals = true
	}
	return cfg
}

// candidates snapshots the mergeable function definitions.
func candidates(m *ir.Module) []*ir.Function {
	var out []*ir.Function
	for _, f := range m.Funcs {
		if !f.IsDecl() && !f.Sig.Variadic {
			out = append(out, f)
		}
	}
	return out
}

// mergePair is the merge entry point, indirected so tests can inject
// failures into the error-propagation path.
var mergePair = merge.Pair

// Histogram bounds for the run-level metrics. Similarity and alignment
// scores live in [0,1], so deciles; savings are integer size-model
// units with a long tail, so powers of two; encoded lengths likewise.
var (
	decileBounds     = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	savingBounds     = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}
	encodedLenBounds = []float64{4, 8, 16, 32, 64, 128, 256, 512}
	blockMoveBounds  = []float64{0, 1, 2, 4, 8, 16, 32}
)

// liveInModule reports whether f is still the module's definition under
// its name — false once a commit deleted it (thunked originals remain
// live: their body changed but the object did not).
func liveInModule(m *ir.Module, f *ir.Function) bool {
	return m.Func(f.Name()) == f
}

// attemptMerge runs align+codegen+profitability for one ranked pair and
// commits on success, updating the report stages, the funnel counters
// and the attempt span (a child of parent, which is nil when tracing
// is off). It reports whether the pair was committed. Unexpected merge
// errors (anything but ErrIncompatible) are returned to the caller
// rather than panicking, so Run surfaces them through its error result.
func attemptMerge(m *ir.Module, fa, fb *ir.Function, cfg Config, rep *Report, eng *analysis.Engine, rankDur time.Duration, sim float64, parent *obs.Span) (bool, error) {
	sp := parent.Child("attempt")
	sp.SetAttr("a", fa.Name())
	sp.SetAttr("b", fb.Name())
	defer sp.End()
	mx := cfg.Metrics
	outcome := PairOutcome{A: fa.Name(), B: fb.Name(), Similarity: sim, Attempted: true}

	// Re-validate the operands before aligning: both functions must
	// still be live module members. The sequential algorithm's merged[]
	// flags make this vacuous in a healthy run; it is the backstop
	// against stale pairs reaching the merger (exercised by the
	// seeded-fault tests).
	if !liveInModule(m, fa) || !liveInModule(m, fb) {
		rep.Times.RankFail += rankDur
		rep.Pairs = append(rep.Pairs, outcome)
		rep.Attempts++
		mx.Counter("merge.stale_operand").Inc()
		sp.SetAttr("outcome", "stale-operand")
		return false, nil
	}
	mx.Histogram("rank.similarity", decileBounds).Observe(sim)

	res, err := mergePair(m, fa, fb, cfg.MergeOpts)
	if err != nil {
		if !errors.Is(err, merge.ErrIncompatible) {
			return false, fmt.Errorf("core: merging %s + %s: %w", fa.Name(), fb.Name(), err)
		}
		// Incompatible pairs cost ranking plus a trivial align check.
		rep.Times.RankFail += rankDur
		rep.Pairs = append(rep.Pairs, outcome)
		rep.Attempts++
		mx.Counter("merge.incompatible").Inc()
		sp.SetAttr("outcome", "incompatible")
		return false, nil
	}
	rep.Attempts++
	outcome.MergeDur = res.AlignDur + res.CodegenDur
	mx.Counter(obs.FunnelAligned).Inc()
	mx.Histogram("align.score", decileBounds).Observe(res.AlignScore)
	if res.BlockMoves >= 0 {
		// CFG-aware attempt: record how much block reordering the
		// canonical matcher absorbed and the score it reached. Both are
		// observed only from the sequential committer, so the histograms
		// stay deterministic for every Workers setting.
		mx.Histogram("align.cfg.block_moves", blockMoveBounds).Observe(float64(res.BlockMoves))
		mx.Histogram("align.cfg.score", decileBounds).Observe(res.AlignScore)
	}
	if res.Profitable {
		// Re-validate before committing: if anything consumed an
		// operand between alignment and commit (a misbehaving merge
		// hook, a seeded fault), committing would rewrite call sites of
		// a function no longer in the module. Discard instead.
		if !liveInModule(m, fa) || !liveInModule(m, fb) {
			merge.Discard(m, res)
			rep.Times.RankFail += rankDur
			rep.Times.AlignFail += res.AlignDur
			rep.Times.CodegenFail += res.CodegenDur
			rep.Pairs = append(rep.Pairs, outcome)
			mx.Counter("merge.stale_commit").Inc()
			sp.SetAttr("outcome", "stale-commit")
			return false, nil
		}
		info := merge.Commit(m, res)
		if eng != nil {
			eng.AuditCommit(m, info)
		}
		rep.Merges++
		rep.Times.RankSuccess += rankDur
		rep.Times.AlignSuccess += res.AlignDur
		rep.Times.CodegenSuccess += res.CodegenDur
		outcome.Profitable = true
		outcome.Saving = res.SizeSaving()
		rep.Pairs = append(rep.Pairs, outcome)
		mx.Counter(obs.FunnelProfitable).Inc()
		mx.Counter(obs.FunnelCommitted).Inc()
		mx.Histogram("merge.saving", savingBounds).Observe(float64(outcome.Saving))
		sp.SetAttr("outcome", "committed")
		sp.SetAttr("saving", outcome.Saving)
		return true, nil
	}
	merge.Discard(m, res)
	rep.Times.RankFail += rankDur
	rep.Times.AlignFail += res.AlignDur
	rep.Times.CodegenFail += res.CodegenDur
	rep.Pairs = append(rep.Pairs, outcome)
	mx.Counter("merge.unprofitable").Inc()
	sp.SetAttr("outcome", "unprofitable")
	return false, nil
}

// publishRunMetrics records the run-level results into the registry
// once a pass finishes: module sizes and effective parameters as
// deterministic gauges, stage wall clocks as volatile ones (they differ
// across machines and runs, so the deterministic JSON export excludes
// them). It also echoes the registry on the report. No-op when metrics
// are disabled.
func publishRunMetrics(rep *Report, cfg Config) {
	mx := cfg.Metrics
	rep.Metrics = mx
	if mx == nil {
		return
	}
	mx.Gauge("core.funcs").Set(float64(rep.NumFuncs))
	mx.Gauge("size.before").Set(float64(rep.SizeBefore))
	mx.Gauge("size.after").Set(float64(rep.SizeAfter))
	mx.Gauge("core.threshold").Set(rep.Threshold)
	mx.Gauge("core.bands").Set(float64(rep.Bands))
	mx.Gauge("core.k").Set(float64(rep.K))
	t := rep.Times
	mx.VolatileGauge("time.preprocess_ns").Set(float64(t.Preprocess))
	mx.VolatileGauge("time.rank_ns").Set(float64(t.RankSuccess + t.RankFail))
	mx.VolatileGauge("time.align_ns").Set(float64(t.AlignSuccess + t.AlignFail))
	mx.VolatileGauge("time.codegen_ns").Set(float64(t.CodegenSuccess + t.CodegenFail))
	mx.VolatileGauge("time.total_ns").Set(float64(t.Total()))
}

// publishCacheMetrics exports the alignment-cache counters. Hit and
// miss counts depend on what the cache already held — callers may
// share one cache across runs (the serving daemon does, and
// RunSummaryMerge keeps it across replays) — so all four are volatile.
func publishCacheMetrics(mx *obs.Metrics, c *align.Cache) {
	if mx == nil || c == nil {
		return
	}
	st := c.Stats()
	mx.VolatileCounter("merge.cache_hit").Add(st.Hits)
	mx.VolatileCounter("merge.cache_miss").Add(st.Misses)
	mx.VolatileCounter("merge.cache_reject").Add(st.Rejects)
	mx.VolatileCounter("merge.cache_evict").Add(st.Evictions)
}

// runHyFM is the baseline: exhaustive nearest-neighbour ranking over
// opcode-frequency fingerprints.
func runHyFM(m *ir.Module, cfg Config) (*Report, error) {
	rep := &Report{Strategy: HyFM}
	rep.SizeBefore = ModuleCost(m)
	cfg = withCallIndex(m, cfg)
	if cfg.MergeOpts.AlignCache == nil {
		cfg.MergeOpts.AlignCache = align.NewCache(0)
	}
	mx := cfg.Metrics
	eng := startChecks(m, cfg)

	run := cfg.Tracer.StartSpan("run")
	run.SetAttr("strategy", HyFM)
	defer run.End()

	start := time.Now()
	pre := run.Child("preprocess")
	funcs := candidates(m)
	rep.NumFuncs = len(funcs)
	fps := make([]*fingerprint.FreqVector, len(funcs))
	poolRun(len(funcs), resolveWorkers(cfg.Workers), mx, "fingerprint", func(i int) {
		fps[i] = fingerprint.FreqFunc(funcs[i])
	})
	mx.Counter(obs.FunnelFingerprinted).Add(int64(len(funcs)))
	pre.End()
	rep.Times.Preprocess = time.Since(start)

	loop := run.Child("merge-loop")
	merged := make([]bool, len(funcs))
	for i := range funcs {
		if merged[i] {
			continue
		}
		rankStart := time.Now()
		best, compared := nearestNeighbour(fps, i, merged)
		rankDur := time.Since(rankStart)
		mx.Counter(obs.FunnelCompared).Add(compared)
		if best < 0 {
			rep.Times.RankFail += rankDur
			rep.Pairs = append(rep.Pairs, PairOutcome{A: funcs[i].Name()})
			continue
		}
		mx.Counter(obs.FunnelAboveThreshold).Inc()
		sim := fps[i].Similarity(fps[best])
		ok, err := attemptMerge(m, funcs[i], funcs[best], cfg, rep, eng, rankDur, sim, loop)
		if err != nil {
			return nil, err
		}
		if ok {
			merged[i], merged[best] = true, true
		}
	}
	loop.End()
	rep.SizeAfter = ModuleCost(m)
	finishChecks(m, cfg, eng, rep)
	publishCacheMetrics(mx, cfg.MergeOpts.AlignCache)
	publishRunMetrics(rep, cfg)
	return rep, nil
}

// nearestNeighbour finds, among the unmerged fingerprints, the index
// nearest to fps[i] by Manhattan distance (-1 if there is none); ties
// go to the lowest index (the first minimum). compared counts the
// distance computations performed (the candidate-funnel "compared"
// stage).
func nearestNeighbour(fps []*fingerprint.FreqVector, i int, merged []bool) (best int, compared int64) {
	best, bestDist := -1, int(^uint(0)>>1)
	for j := range fps {
		if j == i || merged[j] {
			continue
		}
		compared++
		if d := fps[i].Distance(fps[j]); d < bestDist {
			best, bestDist = j, d
		}
	}
	return best, compared
}

// runF3M ranks with MinHash + LSH, with static or adaptive parameters;
// F3MCFG additionally canonicalizes block order before fingerprinting
// and merges with the reorder-tolerant block matcher.
func runF3M(m *ir.Module, cfg Config) (*Report, error) {
	rep := &Report{Strategy: cfg.Strategy}
	rep.SizeBefore = ModuleCost(m)
	if cfg.Strategy == F3MCFG {
		// CFG-aware merging commits pairs the sequence pipeline never
		// sees (reordered twins), so every commit is proven by the
		// translation validator; a caller asking for a weaker check mode
		// is upgraded, mirroring RunSummaryMerge.
		cfg.MergeOpts.CFGAlign = true
		if cfg.Check < CheckValidate {
			cfg.Check = CheckValidate
		}
	}
	cfg = withCallIndex(m, cfg)
	if cfg.MergeOpts.AlignCache == nil {
		cfg.MergeOpts.AlignCache = align.NewCache(0)
	}
	mx := cfg.Metrics
	eng := startChecks(m, cfg)

	run := cfg.Tracer.StartSpan("run")
	run.SetAttr("strategy", cfg.Strategy)
	defer run.End()

	start := time.Now()
	pre := run.Child("preprocess")
	funcs := candidates(m)
	rep.NumFuncs = len(funcs)

	// Resolve parameters.
	k, rows, bands := cfg.K, cfg.Rows, cfg.Bands
	threshold := cfg.Threshold
	if cfg.Strategy == F3MAdaptive {
		at, params, ak := lsh.AdaptiveParams(len(funcs))
		if threshold < 0 {
			threshold = at
		}
		if k == 0 {
			k = ak
		}
		if rows == 0 {
			rows = params.Rows
		}
		if bands == 0 {
			bands = params.Bands
		}
	} else {
		if threshold < 0 {
			threshold = 0
		}
		if k == 0 {
			k = 200
		}
		if rows == 0 {
			rows = 2
		}
		if bands == 0 {
			bands = k / rows
		}
	}
	rep.Threshold, rep.Bands, rep.K = threshold, bands, k

	// Fingerprinting is embarrassingly parallel per function (the
	// prepared config is read-only). The encoded-length histogram
	// records integers from parallel code, which keeps its float sum
	// schedule-independent.
	mhCfg := (&fingerprint.Config{K: k, ShingleSize: 2, Seed: cfg.Seed}).Prepare()
	sigs := make([]fingerprint.MinHash, len(funcs))

	// Under F3MCFG the MinHash input is the canonical dominator-tree
	// block order, so reordered twins produce (near-)identical shingle
	// sets and rank at their true similarity. The orders are computed
	// sequentially through the analysis manager — the engine's cache, so
	// the post-commit checkers reuse the same dominator trees — before
	// the parallel encode fan-out (the manager is not concurrency-safe).
	var canonOrd []*align.CanonOrder
	if cfg.Strategy == F3MCFG {
		cn := pre.Child("canonicalize")
		canonOrd = make([]*align.CanonOrder, len(funcs))
		for i, f := range funcs {
			if eng != nil {
				canonOrd[i] = eng.Manager().Canon(f)
			} else {
				canonOrd[i] = align.Canonicalize(f, nil)
			}
		}
		cn.End()
	}
	fp := pre.Child("fingerprint")
	encLen := mx.Histogram("fingerprint.encoded_len", encodedLenBounds)
	poolRun(len(funcs), resolveWorkers(cfg.Workers), mx, "fingerprint", func(i int) {
		var enc []fingerprint.Encoded
		if canonOrd != nil {
			enc = fingerprint.EncodeBlocks(canonOrd[i].Blocks)
		} else {
			enc = fingerprint.EncodeFunc(funcs[i])
		}
		encLen.Observe(float64(len(enc)))
		sigs[i] = mhCfg.New(enc)
	})
	mx.Counter(obs.FunnelFingerprinted).Add(int64(len(funcs)))
	fp.End()
	lb := pre.Child("lsh-build")
	ix := lsh.NewIndex(lsh.Params{Rows: rows, Bands: bands, BucketCap: cfg.BucketCap})
	ix.BatchInsert(0, sigs)
	mx.Counter(obs.FunnelBucketed).Add(int64(ix.Stats().Inserted))
	lb.End()
	pre.End()
	rep.Times.Preprocess = time.Since(start)

	hotSkip := func(i int) bool {
		return cfg.Hotness != nil && cfg.HotSkip > 0 && cfg.Hotness(funcs[i].Name()) >= cfg.HotSkip
	}

	loop := run.Child("merge-loop")
	merged := make([]bool, len(funcs))
	for i := range funcs {
		if merged[i] || hotSkip(i) {
			continue
		}
		rankStart := time.Now()
		accept := func(id int) bool { return !merged[id] && !hotSkip(id) }
		var best lsh.Candidate
		var found bool
		if cfg.Hotness == nil {
			best, found = ix.BestWhere(i, sigs[i], threshold, accept)
		} else {
			// Profile-guided selection needs the candidate list: among
			// candidates within the similarity slack of the best, pick
			// the coldest.
			cands := ix.Query(i, sigs[i], threshold)
			for _, c := range cands {
				if accept(c.ID) {
					best = c
					found = true
					break
				}
			}
			if found {
				slack := cfg.HotnessSlack
				if slack == 0 {
					slack = 0.05
				}
				coldest := cfg.Hotness(funcs[best.ID].Name())
				for _, c := range cands {
					if !accept(c.ID) || c.Similarity < best.Similarity-slack {
						continue
					}
					if h := cfg.Hotness(funcs[c.ID].Name()); h < coldest {
						coldest = h
						best = c
					}
				}
			}
		}
		rankDur := time.Since(rankStart)
		if !found {
			rep.Times.RankFail += rankDur
			rep.Pairs = append(rep.Pairs, PairOutcome{A: funcs[i].Name()})
			continue
		}
		ok, err := attemptMerge(m, funcs[i], funcs[best.ID], cfg, rep, eng, rankDur, best.Similarity, loop)
		if err != nil {
			return nil, err
		}
		if ok {
			merged[i], merged[best.ID] = true, true
			ix.Remove(i, sigs[i])
			ix.Remove(best.ID, sigs[best.ID])
		}
	}
	loop.End()
	rep.LSHStats = ix.Stats()
	rep.SizeAfter = ModuleCost(m)
	finishChecks(m, cfg, eng, rep)
	// The index accumulates comparison and candidate counts across the
	// whole loop; fold them into the funnel and publish the occupancy
	// distributions now that querying is done.
	ix.PublishMetrics(mx)
	mx.Counter(obs.FunnelCompared).Add(rep.LSHStats.Comparisons)
	mx.Counter(obs.FunnelAboveThreshold).Add(rep.LSHStats.CandidatesFound)
	publishCacheMetrics(mx, cfg.MergeOpts.AlignCache)
	publishRunMetrics(rep, cfg)
	return rep, nil
}
