package summary

import (
	"fmt"
	"sort"

	"f3m/internal/fingerprint"
	"f3m/internal/lsh"
	"f3m/internal/obs"
)

// Index is the global half of the modular analysis: it ingests
// ModuleSummaries from any number of separately parsed (or separately
// built, or remote) modules and plans cross-module merges over the
// summaries alone. It never touches IR — the whole point is that the
// program's modules need not be in memory together until link time.
//
// An Index is not safe for concurrent use.
type Index struct {
	params Params
	mods   []*ModuleSummary

	// owner maps each defined function name to the module that defines
	// it, enforcing the one-definition rule before link time.
	owner map[string]string
}

// NewIndex returns an empty index. The first Add fixes the parameters
// every later module must match.
func NewIndex() *Index {
	return &Index{owner: make(map[string]string)}
}

// Params returns the parameter set the index compares under (zero
// until the first Add).
func (ix *Index) Params() Params { return ix.params }

// Modules returns the ingested summaries in Add order.
func (ix *Index) Modules() []*ModuleSummary { return ix.mods }

// Add ingests one module's summaries. It fails fast — before any IR is
// loaded or linked — on the mismatches that would otherwise surface as
// link errors or, worse, as incomparable fingerprints silently ranking
// garbage: wrong format version, differing fingerprint parameters,
// colliding module names (which would make every pair look
// intra-module and break the cross-module accounting), and duplicate
// definitions of one function name, within or across modules.
func (ix *Index) Add(ms *ModuleSummary) error {
	if ms.Version != Version {
		return fmt.Errorf("summary: module %s: version %q not supported (want %q)", ms.Module, ms.Version, Version)
	}
	for _, prev := range ix.mods {
		if prev.Module == ms.Module {
			return fmt.Errorf("summary: module name %q already ingested; summarize each module under a distinct name", ms.Module)
		}
	}
	if len(ix.mods) == 0 {
		ix.params = ms.Params.withDefaults()
	} else if !ix.params.Equal(ms.Params.withDefaults()) {
		return fmt.Errorf("summary: module %s: params %+v incomparable with index params %+v",
			ms.Module, ms.Params, ix.params)
	}
	listed := make(map[string]bool, len(ms.Funcs))
	for _, fs := range ms.Funcs {
		if prev, dup := ix.owner[fs.Name]; dup {
			return fmt.Errorf("summary: function @%s defined in both %s and %s", fs.Name, prev, ms.Module)
		}
		if listed[fs.Name] {
			return fmt.Errorf("summary: module %s lists function @%s twice", ms.Module, fs.Name)
		}
		listed[fs.Name] = true
	}
	for _, fs := range ms.Funcs {
		ix.owner[fs.Name] = ms.Module
	}
	ix.mods = append(ix.mods, ms)
	return nil
}

// PlanPair is one planned optimistic merge: two function summaries,
// possibly from different modules, whose fingerprints rank them as
// merge candidates. The link-time driver attempts them in plan order.
type PlanPair struct {
	// AModule/BModule name the defining modules (equal for an
	// intra-module pair the global ranking happened to prefer).
	AModule, BModule string

	// A and B are the paired summaries.
	A, B *FuncSummary

	// Similarity is the MinHash Jaccard estimate.
	Similarity float64
}

// CrossModule reports whether the pair spans two modules — the merges
// a per-module run provably cannot find.
func (p PlanPair) CrossModule() bool { return p.AModule != p.BModule }

// Plan is a cross-module merge plan: the ranked pair list plus the
// parameters it was computed under. Plans are deterministic functions
// of the ingested summary set — the same summaries produce the same
// plan regardless of module order, worker count, or how the program
// was partitioned into modules, because planning runs over the
// name-sorted global function list.
type Plan struct {
	Params    Params
	Threshold float64

	// Pairs lists the planned merges in ranking order.
	Pairs []PlanPair

	// NumFuncs is the global candidate count the plan ranked over.
	NumFuncs int

	// CrossModule counts the pairs spanning two modules.
	CrossModule int

	// LSHStats carries the planning index's bucket counters.
	LSHStats lsh.IndexStats
}

// planEntry is one globally-indexed candidate function.
type planEntry struct {
	mod *ModuleSummary
	fn  *FuncSummary
}

// Plan ranks every summarized function against every other through an
// LSH index over the fingerprints and emits the greedy pair list the
// link-time merge loop will attempt, mirroring the in-process
// pipeline's ranking loop (best surviving candidate per function,
// each function in at most one pair). threshold < 0 selects the
// static default 0. Planning is sequential: the int argument is
// ignored, and kept only so existing callers still compile. Metrics
// (nil-safe): summary.planned counts planned pairs,
// summary.planned_cross the cross-module subset.
func (ix *Index) Plan(threshold float64, _ int, mx *obs.Metrics) *Plan {
	if threshold < 0 {
		threshold = 0
	}
	p := ix.params.withDefaults()
	plan := &Plan{Params: p, Threshold: threshold}

	// Canonical global order: sort candidates by name. Ingest order
	// must not matter — the same program split 2 or 8 ways, or the
	// same summaries arriving shard-by-shard in any order, must yield
	// the same plan. Names are unique (Add enforces it), so the order
	// is total.
	var entries []planEntry
	for _, ms := range ix.mods {
		for _, fn := range ms.Funcs {
			if fn.Variadic {
				continue // merger refuses variadic signatures
			}
			entries = append(entries, planEntry{mod: ms, fn: fn})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].fn.Name < entries[j].fn.Name })
	plan.NumFuncs = len(entries)
	if len(entries) < 2 {
		return plan
	}

	sigs := make([]fingerprint.MinHash, len(entries))
	for i, e := range entries {
		sigs[i] = e.fn.MinHash.MinHash()
	}

	lix := lsh.NewIndex(lsh.Params{Rows: p.Rows, Bands: p.Bands, BucketCap: p.BucketCap})
	lix.BatchInsert(0, sigs)

	planned := mx.Counter("summary.planned")
	plannedCross := mx.Counter("summary.planned_cross")
	matched := make([]bool, len(entries))
	accept := func(id int) bool { return !matched[id] }
	for i := range entries {
		if matched[i] {
			continue
		}
		best, found := lix.BestWhere(i, sigs[i], threshold, accept)
		if !found {
			continue
		}
		matched[i], matched[best.ID] = true, true
		pair := PlanPair{
			AModule:    entries[i].mod.Module,
			BModule:    entries[best.ID].mod.Module,
			A:          entries[i].fn,
			B:          entries[best.ID].fn,
			Similarity: best.Similarity,
		}
		plan.Pairs = append(plan.Pairs, pair)
		planned.Inc()
		if pair.CrossModule() {
			plan.CrossModule++
			plannedCross.Inc()
		}
	}
	plan.LSHStats = lix.Stats()
	return plan
}
