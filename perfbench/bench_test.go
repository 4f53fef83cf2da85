package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"f3m/internal/analysis"
	"f3m/internal/core"
	"f3m/internal/obs"
)

// small is a seconds-scale stand-in for the real workloads, so the run
// loop and the checks can be tested quickly.
var small = workload{name: "small", suite: "462.libquantum", strategy: core.F3MStatic, check: core.CheckOff}

// TestMissingMetricIsARow: a per-layer source that disappears (here:
// every registry name and span) yields a "missing" row reading 0, not
// an error, while layers idle on the workload read 0 as "idle".
func TestMissingMetricIsARow(t *testing.T) {
	w, err := findWorkload("gcc-f3m")
	if err != nil {
		t.Fatal(err)
	}
	empty := &layerSample{bench: map[string]float64{}}
	rows := evalLayers(w, []*layerSample{empty})
	if len(rows) != len(layers) {
		t.Fatalf("%d rows, want one per layer metric (%d)", len(rows), len(layers))
	}
	status := map[string]string{}
	for _, r := range rows {
		status[r.name] = r.status
		if r.value != 0 {
			t.Errorf("%s = %v from an empty sample, want 0", r.name, r.value)
		}
	}
	for name, want := range map[string]string{
		"rank.s":              "missing",
		"core.unattributed_s": "missing",
		"lsh.comparisons":     "missing",
		"canon.s":             "idle",
		"analysis.tv_s":       "idle",
		"summary.extract_s":   "idle",
	} {
		if status[name] != want {
			t.Errorf("%s: status %q, want %q", name, status[name], want)
		}
	}
	var b bytes.Buffer
	writeLayerTable(&b, w, rows)
	if !strings.Contains(b.String(), "missing") {
		t.Errorf("layer table does not show missing rows:\n%s", b.String())
	}

	// Present sources read through.
	full := &layerSample{
		snap:  obs.Snapshot{Gauges: map[string]float64{"time.rank_ns": 2e9, "time.total_ns": 3e9}},
		bench: map[string]float64{"core.compile_traced_s": 4},
	}
	for _, r := range evalLayers(w, []*layerSample{full}) {
		switch r.name {
		case "rank.s":
			if r.status != "ok" || r.value != 2 {
				t.Errorf("rank.s = %v (%s), want 2 (ok)", r.value, r.status)
			}
		case "core.unattributed_s":
			if r.status != "ok" || r.value != 1 {
				t.Errorf("core.unattributed_s = %v (%s), want 1 (ok)", r.value, r.status)
			}
		}
	}
}

// TestCorruptedReferenceFailsDrivers: the correctness gate is not
// vacuous. A clean pass matches every driver; the same pass checked
// against a reference with one corrupted result fails that driver, and
// a pass that errors fails all of them. Failed passes are counted.
func TestCorruptedReferenceFailsDrivers(t *testing.T) {
	in, err := small.setup(3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := small.pass(in, small.prepare(in), small.config())
	if err != nil {
		t.Fatal(err)
	}
	if res.rep.Merges == 0 {
		t.Fatal("no merges: the check would compare an unmerged module")
	}

	var clean tally
	clean.add(in, checkPass(in, res, nil))
	if clean.failed != 0 || clean.attempted != len(in.drivers) {
		t.Fatalf("clean pass: %d of %d failed (%v)", clean.failed, clean.attempted, clean.problems)
	}

	in.ref[0] = "i32 123456789"
	var bad tally
	bad.add(in, checkPass(in, res, nil))
	if bad.failed != 1 {
		t.Errorf("corrupted reference: %d failed, want 1", bad.failed)
	}
	bad.add(in, checkPass(in, nil, io.ErrUnexpectedEOF))
	if want := 1 + len(in.drivers); bad.failed != want || bad.attempted != 2*len(in.drivers) {
		t.Errorf("after an erroring pass: %d of %d failed, want %d of %d",
			bad.failed, bad.attempted, want, 2*len(in.drivers))
	}
	if ok := float64(bad.attempted-bad.failed) / float64(bad.attempted); ok >= 1 {
		t.Errorf("ok_ratio %v, want below 1", ok)
	}

	// An error diagnostic fails every driver but keeps the pass measured.
	res.rep.Diagnostics = append(res.rep.Diagnostics, analysis.Diagnostic{Sev: analysis.Error, Checker: "tv", Msg: "refuted"})
	v := checkPass(in, res, nil)
	if v.reason == "" || v.steps == 0 {
		t.Errorf("error diagnostic: reason %q, steps %d; want a reason and a step count", v.reason, v.steps)
	}
}

// TestOutcomeDriftFails: a pass whose outcome differs from the first
// pass's breaks the determinism contract and fails all its drivers.
func TestOutcomeDriftFails(t *testing.T) {
	in := &input{drivers: []string{"a", "b"}}
	var tl tally
	tl.add(in, verdict{ok: 2, digest: "merges=1", funnel: "x=1 "})
	tl.add(in, verdict{ok: 2, digest: "merges=1", funnel: "x=1 "})
	if tl.failed != 0 {
		t.Fatalf("identical passes: %d failed", tl.failed)
	}
	tl.add(in, verdict{ok: 2, digest: "merges=2"})
	tl.add(in, verdict{ok: 2, digest: "merges=1", funnel: "x=2 "})
	if tl.failed != 4 || len(tl.problems) != 2 {
		t.Errorf("drifting passes: %d failed, problems %v; want 4 failed, 2 problems", tl.failed, tl.problems)
	}
}

// TestRun drives whole runs of the small workload, untraced and traced,
// and a split one through the summary layers.
func TestRun(t *testing.T) {
	res, info, rows, err := run(small, options{seed: 1, seconds: 0.01}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 || rows != nil {
		t.Fatalf("untraced run: %+v %+v", res, info)
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics, want %d", len(res.Metrics), len(endToEnd))
	}
	for _, m := range endToEnd {
		if v := res.Metrics[m.name]; v.Value <= 0 || v.Unit != m.unit {
			t.Errorf("%s = %+v, want a positive value in %s", m.name, v, m.unit)
		}
	}

	split := small
	split.check, split.parts = core.CheckValidate, 2
	res, info, rows, err = run(split, options{seed: 1, seconds: 0.01, trace: true}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(declaredLayers()) {
		t.Fatalf("traced run: correct=%v, %d metrics (%v)", res.Correct, len(res.Metrics), info.Problems)
	}
	for _, r := range rows {
		if r.status == "missing" {
			t.Errorf("%s missing on a traced split run", r.name)
		}
	}
	for _, name := range []string{"summary.extract_s", "summary.plan_s", "ir.link_s", "analysis.tv_s", "align.cfg.match_s", "core.unattributed_s"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want positive", name, res.Metrics[name].Value)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		// statistics.quantiles(xs, n=4)[0] and [2]
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 1.2, 5.5}, 1.2, 5.5},
		{[]float64{2, 1}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestParseSpans(t *testing.T) {
	tr := obs.NewTracer()
	run := tr.StartSpan("run")
	a := run.Child("attempt")
	time.Sleep(time.Millisecond)
	a.End()
	run.Child("attempt").End()
	run.Child("open")
	run.End()
	var b strings.Builder
	if err := tr.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	spans := parseSpans(strings.NewReader(b.String()))
	if len(spans["attempt"]) != 2 || len(spans["run"]) != 1 {
		t.Fatalf("parsed %v from\n%s", spans, b.String())
	}
	if spans["attempt"][0] < 1e-3 {
		t.Errorf("attempt span %vs, want at least 1ms", spans["attempt"][0])
	}
	if _, ok := spans["open"]; ok {
		t.Errorf("unfinished span parsed")
	}
}

// TestBenchmarkJSON: BENCHMARK.json declares exactly the workloads that
// are not held out and the metrics this program reports, with bounds
// of at most 0.25 and the largest one on setup_s.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want 6", len(raw))
	}
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	ws := listed()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("%d workloads declared, %d defined and not held out", len(spec.Workloads), len(ws))
	}
	for i, w := range spec.Workloads {
		if w.Name != ws[i].name || w.Why != ws[i].why {
			t.Errorf("workload %d: declared %q (%q), defined %q (%q)", i, w.Name, w.Why, ws[i].name, ws[i].why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d reported", len(spec.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: declared %s [%s], reported %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v, want the largest bound %v", setupBound, maxBound)
	}
	ls := declaredLayers()
	if len(spec.PerLayer) != len(ls) {
		t.Fatalf("%d per-layer metrics declared, %d reported", len(spec.PerLayer), len(ls))
	}
	for i, m := range spec.PerLayer {
		if m.Name != ls[i].name || m.Unit != ls[i].unit {
			t.Errorf("per-layer %d: declared %s [%s], reported %s [%s]", i, m.Name, m.Unit, ls[i].name, ls[i].unit)
		}
	}
}

// declaredLayers returns the per-layer metrics a traced run reports.
func declaredLayers() []layerDef {
	var ls []layerDef
	for _, def := range layers {
		if def.declared() {
			ls = append(ls, def)
		}
	}
	return ls
}

// TestScaled checks that the host-speed scaling takes out a host that
// runs everything at half speed but keeps a slower program visible.
func TestScaled(t *testing.T) {
	if got := scaled(2, probeRef, probeRef); got != 2 {
		t.Errorf("at reference speed: %v, want 2", got)
	}
	if got := scaled(4, 2*probeRef, 2*probeRef); math.Abs(got-2) > 1e-12 {
		t.Errorf("on a host at half speed: %v, want 2", got)
	}
	if got := scaled(4.4, 2*probeRef, 2*probeRef); math.Abs(got-2.2) > 1e-12 {
		t.Errorf("10 %% slower program on a host at half speed: %v, want 2.2", got)
	}
	if c := newProbe().measure(); c.wall <= 0 {
		t.Errorf("probe took %v", c.wall)
	}
}
