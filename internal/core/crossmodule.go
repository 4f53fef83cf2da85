package core

// Optimistic cross-module merging (ROADMAP: summary-based link-time
// merging, after the Optimistic Global Function Merger). The flow is
// two-phase:
//
//  1. Modular analysis (internal/analysis/summary): each module is
//     reduced — separately, possibly by another process — to
//     per-function summaries, and a global summary.Index plans merges
//     over the summaries alone.
//  2. Optimistic link-time merging (this file): the modules are linked
//     (ir.LinkModules) and the plan's pairs are attempted in order by
//     the standard merge machinery. The plan is advice computed from
//     data that may be stale, so nothing from it is trusted: each
//     pair's summaries are re-checked against the linked bodies
//     (FuncSummary.Matches) before alignment, and every commit is
//     re-proved by the merge auditor and the translation validator
//     (RunSummaryMerge forces -check=validate). A summary that lied —
//     corrupted, out of date, or a digest collision — is caught either
//     by the staleness check (pair skipped, no replay needed) or by
//     the validator (commit refuted: the linked module is discarded,
//     the pair blacklisted, and the link+merge replayed from the
//     pristine inputs, which LinkModules never mutates).
//
// Replays make misspeculation costly but safe: the final module has
// only validated merges, and the final report is as clean as a run
// that never planned the bad pair.

import (
	"f3m/internal/analysis"
	"f3m/internal/analysis/summary"
	"f3m/internal/ir"
)

// SummaryReport extends the standard Report with the cross-module
// accounting of one RunSummaryMerge.
type SummaryReport struct {
	*Report

	// Modules is the number of input modules linked.
	Modules int

	// Planned is the number of pairs the summary plan proposed;
	// CrossModulePlanned the subset spanning two modules.
	Planned            int
	CrossModulePlanned int

	// CrossModuleMerges counts committed merges whose functions were
	// defined in different input modules — the wins no per-module run
	// can reach.
	CrossModuleMerges int

	// Validated counts committed merges proven by the validator in the
	// final (accepted) run.
	Validated int

	// Stale counts planned pairs rejected by the summary staleness
	// check before any merge work.
	Stale int

	// Misspeculated counts commits the validator refuted; each one
	// forced a replay. Zero on clean inputs.
	Misspeculated int

	// Replays is the number of times the link+merge phase re-ran.
	Replays int
}

// planKey names a planned pair for the skip set.
func planKey(p summary.PlanPair) string { return p.A.Name + "\x00" + p.B.Name }

// RunSummaryMerge links the modules and merges optimistically along
// the index's plan, returning the report and the merged linked module.
// The inputs are never mutated (LinkModules clones), which is what
// makes replay after a refuted commit possible. The check level is
// forced to at least CheckValidate: optimism without the validator
// would let a colliding summary miscompile.
//
// Planning and merging are sequential, so Workers plays no part. The
// report is identical for every partitioning of the same program into
// modules, because planning runs over the name-sorted global function
// list.
func RunSummaryMerge(name string, mods []*ir.Module, ix *summary.Index, cfg Config) (*SummaryReport, *ir.Module, error) {
	if cfg.Check < CheckValidate {
		cfg.Check = CheckValidate
	}
	// The call index is per linked module; a caller-supplied index
	// would describe the wrong module.
	cfg.MergeOpts.Index = nil

	threshold := cfg.Threshold
	if threshold < 0 {
		threshold = 0
	}
	mx := cfg.Metrics

	sr := &SummaryReport{Modules: len(mods)}
	plan := ix.Plan(threshold, 0, mx)
	sr.Planned = len(plan.Pairs)
	sr.CrossModulePlanned = plan.CrossModule

	skip := make(map[string]bool)
	for {
		linked, err := ir.LinkModules(name, mods...)
		if err != nil {
			return nil, nil, err
		}
		rep, stats, badKey, err := runPlan(linked, plan, skip, cfg)
		if err != nil {
			return nil, nil, err
		}
		sr.Stale += stats.stale
		if badKey != "" {
			// A committed merge failed validation: the linked module is
			// tainted. Blacklist the pair and replay from the pristine
			// inputs.
			skip[badKey] = true
			sr.Misspeculated++
			sr.Replays++
			mx.Counter("summary.misspeculated").Inc()
			continue
		}
		sr.Report = rep
		sr.Validated = stats.validated
		sr.CrossModuleMerges = stats.cross
		mx.Counter("summary.validated").Add(int64(stats.validated))
		return sr, linked, nil
	}
}

// planRunStats is one runPlan execution's accounting.
type planRunStats struct {
	validated int // committed merges with no new error diagnostics
	cross     int // validated subset spanning two input modules
	stale     int // pairs newly rejected by the staleness check
}

// runPlan executes the plan's pairs against one freshly linked module.
// It returns the run's report and, when a committed merge produced an
// error-severity diagnostic (merge audit or translation validation),
// the offending pair's key — the module is then tainted and the caller
// must replay. Pairs in skip are recorded as unattempted outcomes so
// the final report still accounts for every planned pair.
func runPlan(m *ir.Module, plan *summary.Plan, skip map[string]bool, cfg Config) (*Report, planRunStats, string, error) {
	var stats planRunStats
	rep := &Report{Strategy: cfg.Strategy}
	rep.SizeBefore = ModuleCost(m)
	rep.NumFuncs = plan.NumFuncs
	rep.Threshold, rep.Bands, rep.K = plan.Threshold, plan.Params.Bands, plan.Params.K
	rep.LSHStats = plan.LSHStats
	cfg = withCallIndex(m, cfg)
	mx := cfg.Metrics
	eng := startChecks(m, cfg)

	run := cfg.Tracer.StartSpan("summary-merge")
	run.SetAttr("pairs", len(plan.Pairs))
	defer run.End()

	loop := run.Child("merge-loop")
	defer loop.End()
	for _, pr := range plan.Pairs {
		key := planKey(pr)
		if skip[key] {
			rep.Pairs = append(rep.Pairs, PairOutcome{A: pr.A.Name, B: pr.B.Name, Similarity: pr.Similarity})
			continue
		}
		fa, fb := m.Func(pr.A.Name), m.Func(pr.B.Name)
		// The optimism check: the summaries were computed from module
		// state we never saw. Re-derive the cheap facts from the linked
		// bodies and skip the pair on any mismatch — a stale summary
		// must degrade to a missed merge, not reach the merger.
		if !pr.A.Matches(fa) || !pr.B.Matches(fb) {
			skip[key] = true
			stats.stale++
			mx.Counter("summary.stale").Inc()
			rep.Pairs = append(rep.Pairs, PairOutcome{A: pr.A.Name, B: pr.B.Name, Similarity: pr.Similarity})
			continue
		}
		before := len(eng.All)
		ok, err := attemptMerge(m, fa, fb, cfg, rep, eng, 0, pr.Similarity, loop)
		if err != nil {
			return nil, stats, "", err
		}
		if !ok {
			continue
		}
		if hasNewError(eng, before) {
			// The validator (or auditor) refuted a commit that is
			// already applied to m: taint.
			return rep, stats, key, nil
		}
		stats.validated++
		if pr.CrossModule() {
			stats.cross++
		}
	}
	rep.SizeAfter = ModuleCost(m)
	finishChecks(m, cfg, eng, rep)
	publishRunMetrics(rep, cfg)
	return rep, stats, "", nil
}

// hasNewError reports whether the engine accumulated an error-severity
// diagnostic past index from.
func hasNewError(eng *analysis.Engine, from int) bool {
	for _, d := range eng.All[from:] {
		if d.Sev >= analysis.Error {
			return true
		}
	}
	return false
}
