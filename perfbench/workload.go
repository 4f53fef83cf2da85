package main

import (
	"fmt"
	"time"

	"f3m/internal/analysis/summary"
	"f3m/internal/core"
	"f3m/internal/interp"
	"f3m/internal/ir"
	"f3m/internal/irgen"
	"f3m/internal/obs"
)

// workload is one input family and the merging pass run over it.
type workload struct {
	name string
	// why is the one-line reason the workload exists (README.md and
	// BENCHMARK.json carry the same text).
	why string

	// suite names the irgen.Suites row the input is shaped after;
	// permuted is its irgen.Config.PermutedFraction.
	suite    string
	permuted float64

	strategy core.Strategy
	check    core.CheckMode

	// parts > 0 splits the input into that many modules and merges
	// them through per-part summaries (core.RunSummaryMerge) instead of
	// one core.Run over the whole module.
	parts int

	// heldOut, when set, is why the workload is left out of
	// BENCHMARK.json. It still runs by name.
	heldOut string
}

var workloads = []workload{
	{
		name:     "gcc-f3m",
		why:      "paper headline: 403.gcc row under f3m, check off; LSH ranking and codegen dominate, analysis idle",
		suite:    "403.gcc",
		strategy: core.F3MStatic,
		check:    core.CheckOff,
	},
	{
		name:     "gcc-hyfm",
		why:      "same input under hyfm: exhaustive frequency ranking replaces MinHash+LSH, so fingerprint/LSH changes show no change",
		suite:    "403.gcc",
		strategy: core.HyFM,
		check:    core.CheckOff,
		heldOut: "the time budget of the benchmark's runs fits two workloads of 25 s; of the three " +
			"that run without failures, this one is the least needed, since gcc-f3m also ranks",
	},
	{
		name:     "gobmk-cfg-validate",
		why:      "445.gobmk row with half the families block-permuted under f3m-cfg: canonical order, CFG matcher, audit, validation",
		suite:    "445.gobmk",
		permuted: 0.5,
		strategy: core.F3MCFG,
		check:    core.CheckValidate,
		heldOut: "an operation fails on it: on about one seed in five the translation validator " +
			"refutes a committed merge whose drivers all still match the reference",
	},
	{
		name:     "gobmk-xmod",
		why:      "445.gobmk row split into 4 modules and merged from encoded summaries: summary, encoding and link layers",
		suite:    "445.gobmk",
		strategy: core.F3MStatic,
		check:    core.CheckValidate,
		parts:    4,
	},
}

// listed returns the workloads BENCHMARK.json declares: all but the
// held-out ones.
func listed() []workload {
	var ws []workload
	for _, w := range workloads {
		if w.heldOut == "" {
			ws = append(ws, w)
		}
	}
	return ws
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// config is the pass configuration a user would pick for the workload:
// the strategy's defaults and the check level, nothing else.
func (w workload) config() core.Config {
	cfg := core.DefaultConfig(w.strategy)
	cfg.Check = w.check
	return cfg
}

// outcome is one driver call's result as the interpreter rendered it:
// the typed value, or the error. Rendering makes results of modules in
// different type contexts (a linked module's) comparable.
type outcome string

// input is the pristine module a run merges, the reference results of
// its drivers, and what building it cost.
type input struct {
	mod      *ir.Module
	parts    []*ir.Module // split modules, when the workload has parts
	drivers  []string
	ref      []outcome
	refSteps int64

	// times holds the set-up layer durations in seconds by metric name.
	times map[string]float64
}

// setup builds the workload's input from seed the way a user's build
// would see it: generate, print to text, parse the text back, verify,
// and interpret every driver on the unmerged module for the reference.
func (w workload) setup(seed int64) (*input, error) {
	var spec irgen.SuiteSpec
	for _, s := range irgen.Suites {
		if s.Name == w.suite {
			spec = s
		}
	}
	if spec.Name == "" {
		return nil, fmt.Errorf("irgen has no suite %q", w.suite)
	}
	in := &input{times: map[string]float64{}}
	lap := stopwatch(in.times)

	gcfg := spec.Config(seed)
	gcfg.PermutedFraction = w.permuted
	gen := irgen.Generate(gcfg).Module
	in.drivers = irgen.AddDrivers(gen)
	lap("irgen.generate_s")

	text := ir.ModuleString(gen)
	lap("ir.print_s")

	mod, err := ir.ParseModule(text)
	if err != nil {
		return nil, fmt.Errorf("parse generated module: %w", err)
	}
	lap("ir.parse_s")

	if err := ir.VerifyModule(mod); err != nil {
		return nil, fmt.Errorf("verify generated module: %w", err)
	}
	lap("ir.verify_s")
	in.mod = mod

	if w.parts > 0 {
		if in.parts, err = ir.SplitModule(mod, w.parts); err != nil {
			return nil, err
		}
		lap("ir.split_s")
	}

	in.ref, in.refSteps = interpret(mod, in.drivers)
	lap("interp.reference_s")
	return in, nil
}

// interpret calls every driver in order on one machine and returns the
// results and the dynamic instruction count.
func interpret(m *ir.Module, drivers []string) ([]outcome, int64) {
	mach := interp.NewMachine(m)
	mach.StepLimit = 1 << 62
	out := make([]outcome, len(drivers))
	for i, d := range drivers {
		f := m.Func(d)
		if f == nil {
			out[i] = outcome("error: driver @" + d + " missing")
			continue
		}
		v, err := mach.Call(f)
		if err != nil {
			out[i] = outcome("error: " + err.Error())
			continue
		}
		out[i] = outcome(v.String())
	}
	return out, mach.Steps
}

// stopwatch returns a lap function that stores the time since the
// previous lap (or since the stopwatch started) under the given name.
func stopwatch(into map[string]float64) func(name string) {
	last := time.Now()
	return func(name string) {
		now := time.Now()
		into[name] += now.Sub(last).Seconds()
		last = now
	}
}

// passResult is what one merging pass produced.
type passResult struct {
	merged *ir.Module
	rep    *core.Report

	// Cross-module accounting and the summary index (workloads with
	// parts only).
	crossMerges, replays int
	index                *summary.Index

	// tracer is the pass's tracer, nil when tracing was off.
	tracer *obs.Tracer

	// times holds benchmark-timed layers inside the pass, in seconds
	// by metric name.
	times map[string]float64
}

// prepare returns the module one pass mutates: a clone of the pristine
// module, or nil for split workloads, whose pass links fresh modules
// and never mutates its inputs.
func (w workload) prepare(in *input) *ir.Module {
	if w.parts > 0 {
		return nil
	}
	return ir.CloneModule(in.mod)
}

// pass runs the merging pass once, as a user would: one core.Run over
// the module, or, for split workloads, summarize and encode every part,
// decode the summaries into an index and merge along its plan.
func (w workload) pass(in *input, work *ir.Module, cfg core.Config) (*passResult, error) {
	res := &passResult{times: map[string]float64{}, tracer: cfg.Tracer}
	if w.parts == 0 {
		rep, err := core.Run(work, cfg)
		res.merged, res.rep = work, rep
		return res, err
	}

	lap := stopwatch(res.times)
	blobs := make([][]byte, len(in.parts))
	for i, p := range in.parts {
		ms := summary.Extract(p, summary.Params{}, nil, cfg.Metrics)
		lap("summary.extract_s")
		data, err := ms.Encode()
		if err != nil {
			return nil, err
		}
		blobs[i] = data
		lap("summary.encode_s")
	}
	ix := summary.NewIndex()
	for _, data := range blobs {
		ms, err := summary.Decode(data)
		if err != nil {
			return nil, err
		}
		if err := ix.Add(ms); err != nil {
			return nil, err
		}
	}
	lap("summary.decode_s")
	sr, linked, err := core.RunSummaryMerge("linked", in.parts, ix, cfg)
	if err != nil {
		return nil, err
	}
	res.merged, res.rep = linked, sr.Report
	res.crossMerges, res.replays, res.index = sr.CrossModuleMerges, sr.Replays, ix
	return res, nil
}
