package main

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"f3m/internal/align"
	"f3m/internal/analysis"
	"f3m/internal/core"
	"f3m/internal/ir"
	"f3m/internal/obs"
)

// layerSample is everything one traced pass tells about the layers:
// the registry snapshot and the span export of the pipeline, and the
// benchmark's own timings and counts around public calls.
type layerSample struct {
	snap  obs.Snapshot
	spans map[string][]float64 // span name → durations in seconds

	// bench holds the benchmark-side values by per-layer metric name.
	bench map[string]float64
}

// newLayerSample reads a traced pass: the registry by name and the
// tracer's text export, plus the pass's own cost and accounting.
func newLayerSample(w workload, res *passResult, cost passCost) *layerSample {
	ls := &layerSample{bench: map[string]float64{}}
	if mx := res.rep.Metrics; mx != nil {
		ls.snap = mx.Snapshot(true)
	}
	var b strings.Builder
	if tr := res.tracer; tr != nil {
		if err := tr.WriteText(&b); err == nil {
			ls.spans = parseSpans(strings.NewReader(b.String()))
		}
	}
	for name, s := range res.times {
		ls.bench[name] = s
	}
	ls.bench["core.compile_traced_s"] = cost.wall
	ls.bench["gc.cycles"] = cost.gcCycles
	ls.bench["gc.cpu_s"] = cost.gcCPU
	if w.parts > 0 {
		ls.bench["summary.cross_merges"] = float64(res.crossMerges)
		ls.bench["summary.replays"] = float64(res.replays)
	}
	return ls
}

// measureOutsidePass times layers by calling their public entry points
// once more outside the timed pass. Two run on every workload, so their
// layers are measured where the pass itself does not use them:
// canonical block ordering of every function of the pristine module,
// and the CFG block matcher over the pass's committed pairs (their
// pristine bodies; pairs involving an already merged function are
// skipped). The others are strict verification of the pristine module
// and, for split workloads, planning (with the pass's worker count) and
// linking, which the pass runs but does not time on their own.
func measureOutsidePass(w workload, in *input, res *passResult, ls *layerSample) {
	start := time.Now()
	for _, f := range in.mod.Funcs {
		align.Canonicalize(f, nil)
	}
	ls.bench["canon.module_s"] = time.Since(start).Seconds()

	cfg := w.config()
	cache := align.NewCache(0)
	var pairs, moves int
	start = time.Now()
	for _, p := range res.rep.Pairs {
		fa, fb := in.mod.Func(p.A), in.mod.Func(p.B)
		if !p.Profitable || fa == nil || fb == nil {
			continue
		}
		_, _, _, mv := align.MatchBlocksCFG(fa, fb, cfg.MergeOpts.MinBlockRatio, cache)
		pairs++
		moves += mv
	}
	ls.bench["align.cfg.match_s"] = time.Since(start).Seconds()
	if pairs > 0 {
		ls.bench["align.cfg.block_moves_mean"] = float64(moves) / float64(pairs)
	}

	if w.check >= core.CheckStrict {
		start = time.Now()
		analysis.NewEngine(nil).StrictModule(in.mod)
		ls.bench["analysis.module_check_s"] = time.Since(start).Seconds()
	}
	if w.parts > 0 && res.index != nil {
		threshold := cfg.Threshold
		if threshold < 0 {
			threshold = 0
		}
		// core.RunSummaryMerge plans with cfg.Workers, GOMAXPROCS when
		// it is not positive, and publishes into the pass's registry.
		workers := cfg.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		start = time.Now()
		res.index.Plan(threshold, workers, obs.NewMetrics())
		ls.bench["summary.plan_s"] = time.Since(start).Seconds()

		start = time.Now()
		if _, err := ir.LinkModules("linked", in.parts...); err == nil {
			ls.bench["ir.link_s"] = time.Since(start).Seconds()
		}
	}
}

// parseSpans reads obs.Tracer.WriteText output: after the header line,
// one span per line, its name and duration first. Unfinished spans and
// lines that do not parse are skipped.
func parseSpans(r io.Reader) map[string][]float64 {
	out := map[string][]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || fields[0] == "trace:" {
			continue
		}
		d, err := time.ParseDuration(fields[1])
		if err != nil {
			continue
		}
		out[fields[0]] = append(out[fields[0]], d.Seconds())
	}
	return out
}

// layerDef is one per-layer metric: where it comes from and on which
// workloads its layer does work.
type layerDef struct {
	name, unit string
	// active reports whether the layer works on the workload; nil means
	// on every workload. An idle layer reads 0.
	active func(w workload) bool
	// value reads the metric from one traced pass; ok is false when the
	// source (a metric name, a span) is absent.
	value func(s *layerSample) (v float64, ok bool)
}

// declared reports whether BENCHMARK.json declares the metric: its
// layer works on at least one listed workload. The metric of a layer
// only held-out workloads reach would read 0 on every listed run; it
// still shows in the traced run's table.
func (def layerDef) declared() bool {
	if def.active == nil {
		return true
	}
	for _, w := range listed() {
		if def.active(w) {
			return true
		}
	}
	return false
}

// layerRow is one evaluated per-layer metric.
type layerRow struct {
	name, unit string
	value      float64
	status     string // "ok", "idle" or "missing"
	declared   bool
}

// Sources. Each returns ok=false when its name is absent, so a metric
// that a later change renames or removes shows up as a missing row.

func bench(name string) func(*layerSample) (float64, bool) {
	return func(s *layerSample) (float64, bool) {
		v, ok := s.bench[name]
		return v, ok
	}
}

func spanSum(name string) func(*layerSample) (float64, bool) {
	return func(s *layerSample) (float64, bool) {
		ds, ok := s.spans[name]
		var sum float64
		for _, d := range ds {
			sum += d
		}
		return sum, ok
	}
}

func counter(name string) func(*layerSample) (float64, bool) {
	return func(s *layerSample) (float64, bool) {
		v, ok := s.snap.Counters[name]
		return float64(v), ok
	}
}

func gauge(name string) func(*layerSample) (float64, bool) {
	return func(s *layerSample) (float64, bool) {
		v, ok := s.snap.Gauges[name]
		return v, ok
	}
}

// nanos reads a time.*_ns gauge in seconds.
func nanos(name string) func(*layerSample) (float64, bool) {
	return scale(gauge(name), 1e-9)
}

func histMean(name string) func(*layerSample) (float64, bool) {
	return func(s *layerSample) (float64, bool) {
		h, ok := s.snap.Histograms[name]
		if !ok || h.Count == 0 {
			return 0, ok
		}
		return h.Sum / float64(h.Count), true
	}
}

func histSum(name string) func(*layerSample) (float64, bool) {
	return func(s *layerSample) (float64, bool) {
		h, ok := s.snap.Histograms[name]
		return h.Sum, ok
	}
}

func scale(f func(*layerSample) (float64, bool), k float64) func(*layerSample) (float64, bool) {
	return func(s *layerSample) (float64, bool) {
		v, ok := f(s)
		return v * k, ok
	}
}

// ratio divides two sources; an empty denominator reads 0.
func ratio(num, den func(*layerSample) (float64, bool)) func(*layerSample) (float64, bool) {
	return func(s *layerSample) (float64, bool) {
		n, ok1 := num(s)
		d, ok2 := den(s)
		if !ok1 || !ok2 {
			return 0, false
		}
		if d == 0 {
			return 0, true
		}
		return n / d, true
	}
}

// attempts reads the merge-attempt spans: their count, or a percentile
// of their durations in milliseconds.
func attempts(pct float64) func(*layerSample) (float64, bool) {
	return func(s *layerSample) (float64, bool) {
		ds, ok := s.spans["attempt"]
		if !ok {
			return 0, false
		}
		if pct == 0 {
			return float64(len(ds)), true
		}
		return 1e3 * percentile(ds, pct), true
	}
}

// unattributed is the part of the traced pass no layer accounts for:
// the pass's wall time minus the pipeline's stage total and minus the
// benchmark-timed summary layers inside the pass. Commit, merge audit,
// translation validation and strict checks fall here, as does summary
// planning inside core.RunSummaryMerge.
func unattributed(s *layerSample) (float64, bool) {
	wall, ok1 := s.bench["core.compile_traced_s"]
	total, ok2 := nanos("time.total_ns")(s)
	if !ok1 || !ok2 {
		return 0, false
	}
	for _, name := range []string{"summary.extract_s", "summary.encode_s", "summary.decode_s"} {
		wall -= s.bench[name]
	}
	return wall - total, true
}

// Activity predicates.
func lshRanked(w workload) bool  { return w.parts == 0 && w.strategy != core.HyFM }
func inProcess(w workload) bool  { return w.parts == 0 }
func cfgAligned(w workload) bool { return w.strategy == core.F3MCFG }
func checked(w workload) bool    { return w.check >= core.CheckStrict }
func validated(w workload) bool  { return w.check >= core.CheckValidate }
func summarized(w workload) bool { return w.parts > 0 }

// layers lists the per-layer metrics in report order. BENCHMARK.json
// declares the same names and units, less those of layers no listed
// workload reaches (TestBenchmarkJSON).
var layers = []layerDef{
	{"irgen.generate_s", "s", nil, bench("irgen.generate_s")},
	{"ir.print_s", "s", nil, bench("ir.print_s")},
	{"ir.parse_s", "s", nil, bench("ir.parse_s")},
	{"ir.verify_s", "s", nil, bench("ir.verify_s")},
	{"ir.split_s", "s", summarized, bench("ir.split_s")},
	{"ir.clone_s", "s", inProcess, bench("ir.clone_s")},
	{"interp.reference_s", "s", nil, bench("interp.reference_s")},
	{"interp.steps_before", "count", nil, bench("interp.steps_before")},
	{"interp.steps_after", "count", nil, bench("interp.steps_after")},

	{"fingerprint.s", "s", lshRanked, spanSum("fingerprint")},
	{"fingerprint.encoded_len_mean", "count", lshRanked, histMean("fingerprint.encoded_len")},
	{"canon.s", "s", cfgAligned, spanSum("canonicalize")},
	{"canon.module_s", "s", nil, bench("canon.module_s")},
	{"lsh.build_s", "s", lshRanked, spanSum("lsh-build")},
	{"lsh.comparisons", "count", lshRanked, counter("lsh.comparisons")},
	{"lsh.bucket_cap_skips", "count", lshRanked, counter("lsh.bucket_cap_skips")},
	{"lsh.max_bucket_load", "count", lshRanked, gauge("lsh.max_bucket_load")},
	{"rank.s", "s", inProcess, nanos("time.rank_ns")},
	{"rank.compared", "count", inProcess, counter(obs.FunnelCompared)},
	{"rank.above_threshold", "count", inProcess, counter(obs.FunnelAboveThreshold)},

	{"align.s", "s", nil, nanos("time.align_ns")},
	{"align.cache_hit_ratio", "ratio", nil, ratio(counter("merge.cache_hit"),
		func(s *layerSample) (float64, bool) {
			h, ok1 := s.snap.Counters["merge.cache_hit"]
			m, ok2 := s.snap.Counters["merge.cache_miss"]
			return float64(h + m), ok1 && ok2
		})},
	{"align.banded_hits", "count", nil, bench("align.banded_hits")},
	{"align.score_mean", "ratio", nil, histMean("align.score")},
	{"align.cfg.match_s", "s", nil, bench("align.cfg.match_s")},
	{"align.cfg.block_moves_mean", "count", nil, bench("align.cfg.block_moves_mean")},

	{"codegen.s", "s", nil, nanos("time.codegen_ns")},
	{"merge.attempts", "count", nil, attempts(0)},
	{"merge.commits", "count", nil, counter(obs.FunnelCommitted)},
	{"merge.commit_ratio", "ratio", nil, ratio(counter(obs.FunnelCommitted), attempts(0))},
	{"merge.attempt_p50_ms", "ms", nil, attempts(50)},
	{"merge.attempt_p99_ms", "ms", nil, attempts(99)},

	{"analysis.tv_s", "s", validated, scale(histSum("analysis.tv.validate_ms"), 1e-3)},
	{"analysis.tv.commits", "count", validated, counter("analysis.tv.commits")},
	{"analysis.checks", "count", checked, counter("analysis.checks")},
	{"analysis.module_check_s", "s", checked, bench("analysis.module_check_s")},
	{"analysis.validated_ratio", "ratio", validated, ratio(counter("analysis.tv.commits"), counter(obs.FunnelCommitted))},

	{"core.unattributed_s", "s", nil, unattributed},
	{"core.unattributed_pct", "%", nil, scale(ratio(unattributed, bench("core.compile_traced_s")), 100)},

	{"summary.extract_s", "s", summarized, bench("summary.extract_s")},
	{"summary.encode_s", "s", summarized, bench("summary.encode_s")},
	{"summary.decode_s", "s", summarized, bench("summary.decode_s")},
	{"summary.plan_s", "s", summarized, bench("summary.plan_s")},
	{"summary.bytes_per_func", "bytes", summarized, histMean("summary.bytes_per_func")},
	{"summary.planned", "count", summarized, counter("summary.planned")},
	{"summary.cross_merges", "count", summarized, bench("summary.cross_merges")},
	{"summary.replays", "count", summarized, bench("summary.replays")},
	{"ir.link_s", "s", summarized, bench("ir.link_s")},

	{"gc.cycles", "count", nil, bench("gc.cycles")},
	{"gc.cpu_s", "s", nil, bench("gc.cpu_s")},
	{"obs.trace_overhead_pct", "%", nil, bench("obs.trace_overhead_pct")},
	{"host.steal_pct", "%", nil, bench("host.steal_pct")},
	{"host.probe_s", "s", nil, bench("host.probe_s")},
}

// evalLayers evaluates every per-layer metric over the traced passes'
// samples, taking the median across passes. An idle layer reads 0; an
// active layer whose source is absent from every sample is a missing
// row reading 0. Neither is an error.
func evalLayers(w workload, samples []*layerSample) []layerRow {
	rows := make([]layerRow, 0, len(layers))
	for _, def := range layers {
		row := layerRow{name: def.name, unit: def.unit, status: "idle", declared: def.declared()}
		if def.active == nil || def.active(w) {
			var vals []float64
			for _, s := range samples {
				if v, ok := def.value(s); ok {
					vals = append(vals, v)
				}
			}
			row.status = "missing"
			if len(vals) > 0 {
				row.value, row.status = median(vals), "ok"
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// writeLayerTable prints the per-layer rows for a human reader.
func writeLayerTable(out io.Writer, w workload, rows []layerRow) {
	fmt.Fprintf(out, "# per-layer metrics, %s (median over traced passes)\n", w.name)
	for _, r := range rows {
		val := fmt.Sprintf("%.6g", r.value)
		if r.status != "ok" {
			val = r.status
		}
		fmt.Fprintf(out, "# %-30s %14s %s\n", r.name, val, r.unit)
	}
}
