package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"f3m/internal/align"
	"f3m/internal/analysis"
	"f3m/internal/ir"
	"f3m/internal/obs"
)

// setupReps is how many times a run builds its input; setup_s is the
// median of their scaled times. The last build's input is the one the
// passes merge.
const setupReps = 5

// procs is how many threads a run lets execute Go code at once. One:
// on a shared host with two virtual CPUs, the gcc-row pass on two
// threads used about 1.8 times the CPU of the pass on one and took
// longer in wall time, and its times followed the host's other guests
// more than the program. With one thread, process CPU time also leaves
// out the time the host steals. The pass's default worker count
// follows it, so every stage takes its sequential path, as on a
// one-CPU machine.
const procs = 1

// minPasses is the fewest timed passes a run makes, however short its
// time budget.
const minPasses = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is what a run reports beside its result: evidence for the
// steadiness self-check, printed as a "# info" line.
type runInfo struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Passes   int       `json:"passes"`
	PassS    []float64 `json:"pass_s"`
	StealPct float64   `json:"steal_pct"`
	ProbeS   float64   `json:"probe_s"`
	Digest   string    `json:"digest"`
	Problems []string  `json:"problems,omitempty"`
}

// endToEnd lists the end-to-end metrics in report order. BENCHMARK.json
// declares the same names, units and directions (TestBenchmarkJSON).
var endToEnd = []struct{ name, unit string }{
	{"compile_s", "s"},
	{"compile_cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
	{"allocs_k", "thousand"},
	{"size_reduction_pct", "%"},
	{"runtime_overhead_pct", "%"},
	{"ok_ratio", "ratio"},
}

// verdict is the correctness check of one pass.
type verdict struct {
	ok     int    // drivers whose result equals the reference
	steps  int64  // dynamic instructions of all drivers after merging
	digest string // report-level outcome, identical on every pass
	funnel string // deterministic counters of a traced pass ("" untraced)
	reason string // why the whole pass failed, "" when it did not
}

// checkPass checks one pass's output: the pass returned no error, the
// merged module verifies, the checkers found no error, and every driver
// returns what it returned on the unmerged module. A pass whose only
// fault is an error diagnostic still reports its dynamic instruction
// count, so the size and runtime metrics stay measured.
func checkPass(in *input, res *passResult, passErr error) verdict {
	switch {
	case passErr != nil:
		return verdict{reason: "pass failed: " + passErr.Error()}
	case res.merged == nil || res.rep == nil:
		return verdict{reason: "pass returned no module"}
	}
	if err := ir.VerifyModule(res.merged); err != nil {
		return verdict{reason: "merged module does not verify: " + err.Error()}
	}
	outs, steps := interpret(res.merged, in.drivers)
	v := verdict{steps: steps}
	for i, o := range outs {
		if o == in.ref[i] {
			v.ok++
		}
	}
	for _, d := range res.rep.Diagnostics {
		if d.Sev >= analysis.Error {
			v.reason = fmt.Sprintf("%d error diagnostics, first: %s", res.rep.Diagnostics.Count(analysis.Error), d)
			return v
		}
	}
	rep := res.rep
	v.digest = fmt.Sprintf("attempts=%d merges=%d size=%d->%d steps=%d cross=%d replays=%d",
		rep.Attempts, rep.Merges, rep.SizeBefore, rep.SizeAfter, steps, res.crossMerges, res.replays)
	if rep.Metrics != nil {
		v.funnel = countersDigest(rep.Metrics.Snapshot(false))
	}
	return v
}

// countersDigest renders the deterministic counters of a snapshot.
func countersDigest(s obs.Snapshot) string {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s=%d ", name, s.Counters[name])
	}
	return b.String()
}

// tally accumulates the correctness of a run's passes. A pass whose
// outcome differs from the first pass's breaks the determinism contract
// and counts all its drivers as failed, like a pass that errors.
type tally struct {
	attempted, failed int
	digest, funnel    string
	problems          []string
}

func (t *tally) add(in *input, v verdict) {
	t.attempted += len(in.drivers)
	reason := v.reason
	if reason == "" && t.digest == "" {
		t.digest = v.digest
	}
	if reason == "" && v.digest != t.digest {
		reason = fmt.Sprintf("outcome %q differs from first pass %q", v.digest, t.digest)
	}
	if reason == "" && v.funnel != "" {
		if t.funnel == "" {
			t.funnel = v.funnel
		} else if v.funnel != t.funnel {
			reason = "deterministic counters differ from first traced pass"
		}
	}
	if reason != "" {
		t.failed += len(in.drivers)
		t.problem(reason)
		return
	}
	if bad := len(in.drivers) - v.ok; bad > 0 {
		t.failed += bad
		t.problem(fmt.Sprintf("%d driver results differ from the reference", bad))
	}
}

// problem records why a pass failed, once per distinct reason.
func (t *tally) problem(reason string) {
	for _, p := range t.problems {
		if p == reason {
			return
		}
	}
	t.problems = append(t.problems, reason)
}

// options are one run's settings.
type options struct {
	seed    int64
	seconds float64
	trace   bool
}

// run executes one benchmark run: build the input setupReps times, one
// warm-up pass, then timed passes until the time budget is spent. The
// host-speed probe runs before every set-up and pass and after the last
// pass, and the reported set-up and pass times are scaled by it. With
// tracing on, untraced and traced passes alternate: the untraced ones
// give the trace overhead, the traced ones the per-layer metrics.
func run(w workload, o options, log io.Writer) (*result, *runInfo, []layerRow, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	steal := startSteal()
	pr := newProbe()
	var probes []cost

	var in *input
	var setupS []float64
	setupLayers := map[string][]float64{}
	for r := 0; r < setupReps; r++ {
		in = nil
		runtime.GC()
		probes = append(probes, pr.measure())
		start := time.Now()
		var err error
		if in, err = w.setup(o.seed); err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		for name, s := range in.times {
			setupLayers[name] = append(setupLayers[name], s)
		}
	}
	fmt.Fprintf(log, "f3mbench: %s seed %d: %d functions, %d drivers, set-up %.3fs (median of %d)\n",
		w.name, o.seed, len(in.mod.Funcs), len(in.drivers), median(setupS), setupReps)

	var (
		t          tally
		stepsAfter int64
		reduction  float64
	)
	// onePass clones, runs and checks one pass. For a traced pass it
	// also returns the pass's layer sample.
	onePass := func(traced bool) (passCost, *layerSample) {
		cloneStart := time.Now()
		work := w.prepare(in)
		cloneS := time.Since(cloneStart).Seconds()
		cfg := w.config()
		if traced {
			cfg.Metrics = obs.NewMetrics()
			cfg.Tracer = obs.NewTracer()
		}
		runtime.GC()
		probeAt := len(probes)
		probes = append(probes, pr.measure())
		banded := align.BandedHits()
		s0 := sampleRuntime()
		res, err := w.pass(in, work, cfg)
		end, endCPU := time.Now(), cpuSeconds()
		cost := s0.since(end, endCPU)
		cost.probeAt = probeAt
		bandedHits := align.BandedHits() - banded

		v := checkPass(in, res, err)
		t.add(in, v)
		if v.steps > 0 {
			stepsAfter = v.steps
			reduction = 100 * res.rep.Reduction()
		}
		if !traced || err != nil {
			return cost, nil
		}
		ls := newLayerSample(w, res, cost)
		if w.parts == 0 {
			ls.bench["ir.clone_s"] = cloneS
		}
		ls.bench["align.banded_hits"] = float64(bandedHits)
		ls.bench["interp.steps_after"] = float64(v.steps)
		measureOutsidePass(w, in, res, ls)
		return cost, ls
	}

	onePass(false) // warm-up: fills lazy state and pools, never timed
	var costs, tracedCosts []passCost
	var samples []*layerSample
	stride := 1
	if o.trace {
		stride = 2
	}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; i < minPasses*stride || time.Now().Before(deadline); i++ {
		traced := o.trace && i%2 == 1
		cost, ls := onePass(traced)
		fmt.Fprintf(log, "f3mbench: pass %d (traced=%v): %.3fs wall, %.3fs cpu, %.0f MB, %.0f gc, probe before %.3fs\n",
			i, traced, cost.wall, cost.cpu, cost.allocMB, cost.gcCycles, probes[cost.probeAt].wall)
		if !traced {
			costs = append(costs, cost)
			continue
		}
		tracedCosts = append(tracedCosts, cost)
		if ls != nil {
			samples = append(samples, ls)
		}
	}
	probes = append(probes, pr.measure())
	probeS := median(each(probes, func(c cost) float64 { return c.wall }))
	// Setup r ran between probes r and r+1, and a pass between the
	// probe at its probeAt and the next one.
	setupScaled := make([]float64, len(setupS))
	for r, s := range setupS {
		setupScaled[r] = scaled(s, probes[r].wall, probes[r+1].wall)
	}
	compile := each(costs, func(c passCost) float64 {
		return scaled(c.wall, probes[c.probeAt].wall, probes[c.probeAt+1].wall)
	})
	compileCPU := each(costs, func(c passCost) float64 {
		return scaled(c.cpu, probes[c.probeAt].cpu, probes[c.probeAt+1].cpu)
	})
	peak, err := peakRSSMB()
	if err != nil {
		return nil, nil, nil, err
	}

	wall := func(c passCost) float64 { return c.wall }
	res := &result{
		Attempted: t.attempted,
		Failed:    t.failed,
		Correct:   t.failed == 0 && t.digest != "",
	}
	info := &runInfo{
		Workload: w.name,
		Seed:     o.seed,
		Passes:   len(costs) + len(tracedCosts),
		PassS:    each(costs, wall),
		StealPct: steal.pct(),
		ProbeS:   probeS,
		Digest:   t.digest,
		Problems: t.problems,
	}
	if !o.trace {
		vals := map[string]float64{
			"compile_s":            median(compile),
			"compile_cpu_s":        median(compileCPU),
			"setup_s":              median(setupScaled),
			"peak_rss_mb":          peak,
			"alloc_mb":             median(each(costs, func(c passCost) float64 { return c.allocMB })),
			"allocs_k":             median(each(costs, func(c passCost) float64 { return c.allocsK })),
			"size_reduction_pct":   reduction,
			"runtime_overhead_pct": 100 * (float64(stepsAfter)/float64(in.refSteps) - 1),
			"ok_ratio":             float64(t.attempted-t.failed) / float64(t.attempted),
		}
		res.Metrics = make(map[string]metric, len(endToEnd))
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: finite(vals[m.name]), Unit: m.unit}
		}
		return res, info, nil, nil
	}

	// Run-level values every layer sample shares.
	for _, ls := range samples {
		for name, xs := range setupLayers {
			ls.bench[name] = median(xs)
		}
		ls.bench["interp.steps_before"] = float64(in.refSteps)
		ls.bench["obs.trace_overhead_pct"] = 100 * (median(each(tracedCosts, wall))/median(each(costs, wall)) - 1)
		ls.bench["host.steal_pct"] = info.StealPct
		ls.bench["host.probe_s"] = probeS
	}
	rows := evalLayers(w, samples)
	res.Metrics = make(map[string]metric, len(rows))
	for _, r := range rows {
		if r.declared {
			res.Metrics[r.name] = metric{Value: finite(r.value), Unit: r.unit}
		}
	}
	return res, info, rows, nil
}

// each returns f of every element of cs.
func each[T any](cs []T, f func(T) float64) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = f(c)
	}
	return out
}

// finite maps NaN and infinities, which JSON cannot carry, to 0.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
