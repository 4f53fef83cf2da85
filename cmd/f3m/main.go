// Command f3m applies function merging to a module and reports the
// result. Inputs are dispatched on file extension: .ir textual IR
// files (see internal/ir), .c mini-C source files, .wat WebAssembly
// text modules (see internal/wat), or a generated synthetic workload.
// Mini-C files concatenate into one translation unit; IR and wat
// files are linked LTO-style into one module.
//
// The serve subcommand instead starts the long-lived merge-as-a-service
// daemon (see SERVING.md for the HTTP API and `f3m serve -h` for its
// flags). The summary and merge subcommands drive the cross-module
// workflow: summary extracts a module's per-function merge summaries
// as a versioned .sum file, and merge -summaries links the summarized
// modules and merges them optimistically along a plan computed from
// the summaries alone, with every merge proven by the translation
// validator before it is committed (see DESIGN.md, "Cross-module
// merging").
//
// Usage:
//
//	f3m [flags] [file.ir | file.c | file.wat ...]
//	f3m serve [flags]
//	f3m summary [-o FILE] [-source PATH] [-k K] [file.ir | file.c | file.wat | -gen N]
//	f3m merge -summaries [flags] a.sum b.sum ...
//
//	-strategy hyfm|f3m|f3m-adapt|f3m-cfg   ranking strategy (default f3m; f3m-cfg
//	                               fingerprints and aligns in canonical dominator-tree
//	                               block order, merging block-reordered twins, and
//	                               forces -check=validate)
//	-gen N                         generate a synthetic module with ~N functions
//	-seed S                        generation seed
//	-threshold T                   similarity threshold (-1 = strategy default)
//	-k K                           MinHash fingerprint size (0 = default)
//	-workers N                     fingerprinting parallelism (0 = GOMAXPROCS, 1 = sequential)
//	-check off|fast|strict|validate  static-analysis level (fast = audit each merge; strict = full module checks; validate = strict + per-merge translation validation)
//	-emit                          print the optimized module to stdout
//	-v                             per-pair merge log
//	-trace                         print the stage-span trace after the report
//	-metrics                       print the candidate funnel and metric registry
//	-metrics-json FILE             write the deterministic metrics snapshot as JSON ("-" = stdout)
//	-cpuprofile FILE               write a pprof CPU profile of the merging pass
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"

	"f3m/internal/analysis"
	"f3m/internal/core"
	"f3m/internal/ir"
	"f3m/internal/irgen"
	"f3m/internal/minic"
	"f3m/internal/obs"
	"f3m/internal/wat"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "f3m:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "serve":
			return runServe(args[1:], stdout)
		case "summary":
			return runSummary(args[1:], stdout)
		case "merge":
			return runMergeSummaries(args[1:], stdout)
		}
	}
	fs := flag.NewFlagSet("f3m", flag.ContinueOnError)
	strategy := fs.String("strategy", "f3m", "ranking strategy: "+strings.Join(core.StrategyNames(), ", "))
	gen := fs.Int("gen", 0, "generate a synthetic module with ~N functions instead of reading files")
	seed := fs.Int64("seed", 1, "synthetic generation seed")
	threshold := fs.Float64("threshold", -1, "similarity threshold (-1 = strategy default)")
	k := fs.Int("k", 0, "MinHash fingerprint size (0 = default)")
	workers := fs.Int("workers", 0, "fingerprinting parallelism (0 = GOMAXPROCS, 1 = sequential)")
	check := fs.String("check", "off", "static-analysis level: off, fast (audit each merge), strict (full module checks) or validate (strict plus per-merge translation validation)")
	emit := fs.Bool("emit", false, "print the optimized module")
	verbose := fs.Bool("v", false, "log every selected pair")
	trace := fs.Bool("trace", false, "print the stage-span trace after the report")
	metrics := fs.Bool("metrics", false, "print the candidate funnel and metric registry")
	metricsJSON := fs.String("metrics-json", "", "write the deterministic metrics snapshot as JSON to FILE (\"-\" = stdout)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the merging pass to FILE")
	if err := fs.Parse(args); err != nil {
		return err
	}

	strat, err := core.ParseStrategy(*strategy)
	if err != nil {
		return err
	}

	mod, err := loadModule(fs.Args(), *gen, *seed)
	if err != nil {
		return err
	}

	cfg := core.DefaultConfig(strat)
	cfg.Threshold = *threshold
	cfg.K = *k
	cfg.Workers = *workers
	cfg.Check, err = core.ParseCheckMode(*check)
	if err != nil {
		return err
	}
	if *trace {
		cfg.Tracer = obs.NewTracer()
	}
	if *metrics || *metricsJSON != "" {
		cfg.Metrics = obs.NewMetrics()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	rep, err := core.Run(mod, cfg)
	if err != nil {
		return err
	}
	if err := ir.VerifyModule(mod); err != nil {
		return fmt.Errorf("internal error: module invalid after merging: %w", err)
	}

	fmt.Fprintf(stdout, "strategy:      %s (t=%.3f, k=%d, b=%d)\n", rep.Strategy, rep.Threshold, rep.K, rep.Bands)
	fmt.Fprintf(stdout, "functions:     %d\n", rep.NumFuncs)
	fmt.Fprintf(stdout, "attempts:      %d ranked pairs, %d merged\n", rep.Attempts, rep.Merges)
	fmt.Fprintf(stdout, "size:          %d -> %d (%.2f%% reduction)\n", rep.SizeBefore, rep.SizeAfter, 100*rep.Reduction())
	tt := rep.Times
	fmt.Fprintf(stdout, "pass time:     %v (preprocess %v, ranking %v, align %v, codegen %v)\n",
		tt.Total(), tt.Preprocess, tt.RankSuccess+tt.RankFail,
		tt.AlignSuccess+tt.AlignFail, tt.CodegenSuccess+tt.CodegenFail)
	if cfg.Check != core.CheckOff {
		nerr := rep.Diagnostics.Count(analysis.Error)
		fmt.Fprintf(stdout, "checks:        %s, %d diagnostics (%d errors)\n",
			cfg.Check, len(rep.Diagnostics), nerr)
		if len(rep.Diagnostics) > 0 {
			if err := rep.Diagnostics.Render(stdout); err != nil {
				return err
			}
		}
		if nerr > 0 {
			return fmt.Errorf("check=%s found %d errors", cfg.Check, nerr)
		}
	}
	if *verbose {
		for _, p := range rep.Pairs {
			if !p.Attempted {
				continue
			}
			status := "rejected"
			if p.Profitable {
				status = fmt.Sprintf("merged, saved %d", p.Saving)
			}
			fmt.Fprintf(stdout, "  %-30s + %-30s sim=%.3f %s\n", p.A, p.B, p.Similarity, status)
		}
	}
	if *metrics {
		fmt.Fprintln(stdout)
		rep.Metrics.WriteFunnel(stdout)
		fmt.Fprintln(stdout)
		rep.Metrics.WriteText(stdout)
	}
	if *metricsJSON != "" {
		w := io.Writer(stdout)
		if *metricsJSON != "-" {
			f, err := os.Create(*metricsJSON)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := rep.Metrics.WriteJSON(w); err != nil {
			return err
		}
	}
	if *trace {
		fmt.Fprintln(stdout)
		cfg.Tracer.WriteText(stdout)
	}
	if *emit {
		if err := ir.WriteModule(stdout, mod); err != nil {
			return err
		}
	}
	return nil
}

// frontendExt maps an input file name to its front end. Files with no
// extension are treated as textual IR for backward compatibility with
// piped temp files.
func frontendExt(path string) (string, error) {
	switch ext := filepath.Ext(path); ext {
	case ".ir", "":
		return ".ir", nil
	case ".c":
		return ".c", nil
	case ".wat":
		return ".wat", nil
	default:
		return "", fmt.Errorf("%s: unknown input extension %q (supported: .ir textual IR, .c mini-C, .wat WebAssembly text)", path, ext)
	}
}

// loadFile runs one input file through its front end and returns a
// verified module named after the file when the source does not name
// itself (so cross-module summary accounting gets distinct names).
func loadFile(path string) (*ir.Module, error) {
	ext, err := frontendExt(path)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	base := filepath.Base(path)
	switch ext {
	case ".c":
		return minic.Compile(base, string(data))
	case ".wat":
		return wat.Compile(strings.TrimSuffix(base, ".wat"), string(data))
	default:
		mod, err := ir.ParseModule(string(data))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if err := ir.VerifyModule(mod); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return mod, nil
	}
}

// loadModule assembles the input module from files or the generator.
// All files must use the same front end (mixing .c and .wat in one
// invocation has no defined link semantics).
func loadModule(files []string, gen int, seed int64) (*ir.Module, error) {
	if gen > 0 {
		spec := irgen.SuiteSpec{Name: "generated", Funcs: gen, AvgInstrs: 25, CloneFraction: 0.4}
		return irgen.Generate(spec.Config(seed)).Module, nil
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no input files (or use -gen N)")
	}
	ext, err := frontendExt(files[0])
	if err != nil {
		return nil, err
	}
	for _, f := range files[1:] {
		e, err := frontendExt(f)
		if err != nil {
			return nil, err
		}
		if e != ext {
			return nil, fmt.Errorf("%s: cannot mix %s and %s inputs in one invocation", f, ext, e)
		}
	}
	// Mini-C inputs are concatenated into one translation unit, like a
	// single-file amalgamation build.
	if ext == ".c" {
		var src strings.Builder
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				return nil, err
			}
			src.Write(data)
			src.WriteByte('\n')
		}
		return minic.Compile(filepath.Base(files[0]), src.String())
	}
	// IR and wat units are linked LTO-style into one module, matching
	// the paper's monolithic-bitcode setup.
	var units []*ir.Module
	for _, f := range files {
		mod, err := loadFile(f)
		if err != nil {
			return nil, err
		}
		units = append(units, mod)
	}
	if len(units) == 1 {
		return units[0], nil
	}
	return ir.LinkModules(filepath.Base(files[0])+"+", units...)
}
