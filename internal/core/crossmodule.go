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
//     (FuncSummary.Matches) before alignment, and every profitable
//     merge is proven by the translation validator before it is
//     committed (RunSummaryMerge forces -check=validate). A summary
//     that lied — corrupted, out of date, or a digest collision — is
//     caught either by the staleness check (pair skipped) or by the
//     validator (merge refuted and discarded, like an unprofitable
//     one).
//
// Optimism is about the plan only: the linked module never holds an
// unproven merge, so one link and one pass over the plan suffice.

import (
	"fmt"

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

	// Validated counts committed merges, each proven by the validator
	// before its commit.
	Validated int

	// Stale counts planned pairs rejected by the summary staleness
	// check before any merge work. Profitable pairs the validator
	// refuted are counted in the embedded Report's Refuted.
	Stale int

	// Replays is always 0: the link+merge phase runs once. It stays
	// until the benchmark's summary.replays row, which reads it, goes.
	Replays int
}

// RunSummaryMerge links the modules and merges optimistically along
// the index's plan, returning the report and the merged linked module.
// The inputs are never mutated (LinkModules clones). The check level is
// forced to at least CheckValidate: optimism without the validator
// would let a colliding summary miscompile. A merge audit error after a
// commit is a bug in Commit, not a property of the pair, and is
// returned as an error.
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

	m, err := ir.LinkModules(name, mods...)
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{Strategy: cfg.Strategy}
	rep.SizeBefore = ModuleCost(m)
	rep.NumFuncs = plan.NumFuncs
	rep.Threshold, rep.Bands, rep.K = plan.Threshold, plan.Params.Bands, plan.Params.K
	rep.LSHStats = plan.LSHStats
	sr.Report = rep
	cfg = withCallIndex(m, cfg)
	eng := startChecks(m, cfg)

	run := cfg.Tracer.StartSpan("summary-merge")
	run.SetAttr("pairs", len(plan.Pairs))
	defer run.End()

	loop := run.Child("merge-loop")
	defer loop.End()
	for _, pr := range plan.Pairs {
		fa, fb := m.Func(pr.A.Name), m.Func(pr.B.Name)
		// The optimism check: the summaries were computed from module
		// state we never saw. Re-derive the cheap facts from the linked
		// bodies and skip the pair on any mismatch — a stale summary
		// must degrade to a missed merge, not reach the merger.
		if !pr.A.Matches(fa) || !pr.B.Matches(fb) {
			sr.Stale++
			mx.Counter("summary.stale").Inc()
			rep.Pairs = append(rep.Pairs, PairOutcome{A: pr.A.Name, B: pr.B.Name, Similarity: pr.Similarity})
			continue
		}
		before := len(eng.All)
		ok, err := attemptMerge(m, fa, fb, cfg, rep, eng, 0, pr.Similarity, loop)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			continue
		}
		// A committed merge was proven before its commit, so any error
		// now is the audit's: Commit mis-wired the module.
		if ds := eng.All[before:]; ds.Count(analysis.Error) > 0 {
			return nil, nil, fmt.Errorf("core: committing %s + %s: merge audit failed:\n%s",
				pr.A.Name, pr.B.Name, ds.RenderString())
		}
		sr.Validated++
		if pr.CrossModule() {
			sr.CrossModuleMerges++
		}
	}
	rep.SizeAfter = ModuleCost(m)
	finishChecks(m, cfg, eng, rep)
	publishRunMetrics(rep, cfg)
	mx.Counter("summary.validated").Add(int64(sr.Validated))
	return sr, m, nil
}
