package main

// The cross-module workflow: `f3m summary` reduces one module to a
// versioned summary file, `f3m merge -summaries` links the summarized
// modules and merges optimistically along a plan computed from the
// summaries alone, with every commit re-proved by the translation
// validator (see internal/analysis/summary and DESIGN.md,
// "Cross-module merging").

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"f3m/internal/analysis"
	"f3m/internal/analysis/summary"
	"f3m/internal/core"
	"f3m/internal/ir"
	"f3m/internal/obs"
)

// runSummary implements `f3m summary`: extract a module's per-function
// merge summaries as deterministic, versioned JSON.
func runSummary(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("f3m summary", flag.ContinueOnError)
	out := fs.String("o", "", "write the summary to FILE instead of stdout")
	source := fs.String("source", "", "record PATH as the module source (default: the input path as given)")
	k := fs.Int("k", 0, "MinHash fingerprint size (0 = default 200)")
	gen := fs.Int("gen", 0, "generate a synthetic module with ~N functions instead of reading files")
	seed := fs.Int64("seed", 1, "synthetic generation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	mod, err := loadModule(fs.Args(), *gen, *seed)
	if err != nil {
		return err
	}
	if mod.Name == "module" && *gen == 0 && len(fs.Args()) == 1 {
		// The parser's fallback name for files without a `module`
		// directive. Left as-is, every summarized file would share it
		// and Index.Add would reject the set (cross-module accounting
		// needs distinct names), so name the module after its file.
		base := filepath.Base(fs.Args()[0])
		mod.Name = strings.TrimSuffix(base, filepath.Ext(base))
	}
	ms := summary.Extract(mod, summary.Params{K: *k}, nil, nil)
	switch {
	case *source != "":
		ms.Source = *source
	case *gen == 0 && len(fs.Args()) == 1:
		// Recorded as given (not absolutized) so a summary checked in
		// next to its module stays portable; `f3m merge -summaries`
		// resolves relative sources against the summary file's
		// directory.
		ms.Source = fs.Args()[0]
	}
	enc, err := ms.Encode()
	if err != nil {
		return err
	}
	if *out == "" {
		_, err = stdout.Write(enc)
		return err
	}
	return os.WriteFile(*out, enc, 0o644)
}

// runMergeSummaries implements `f3m merge -summaries`: load summary
// files, plan cross-module merges over them, then link the summarized
// modules and merge optimistically under the translation validator.
func runMergeSummaries(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("f3m merge", flag.ContinueOnError)
	summaries := fs.Bool("summaries", false, "treat the inputs as .sum summary files (required; modules load from each summary's recorded source)")
	threshold := fs.Float64("threshold", -1, "similarity threshold (-1 = default)")
	check := fs.String("check", "validate", "static-analysis level; anything below validate is raised to it (optimistic merging requires the validator)")
	emit := fs.Bool("emit", false, "print the merged module")
	verbose := fs.Bool("v", false, "log every planned pair")
	metrics := fs.Bool("metrics", false, "print the candidate funnel and metric registry")
	metricsJSON := fs.String("metrics-json", "", "write the deterministic metrics snapshot as JSON to FILE (\"-\" = stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*summaries {
		return fmt.Errorf("f3m merge: only summary-driven merging is supported; pass -summaries with .sum files")
	}
	if len(fs.Args()) == 0 {
		return fmt.Errorf("f3m merge: no summary files")
	}

	ix := summary.NewIndex()
	var mods []*ir.Module
	for _, sumPath := range fs.Args() {
		data, err := os.ReadFile(sumPath)
		if err != nil {
			return err
		}
		ms, err := summary.Decode(data)
		if err != nil {
			return fmt.Errorf("%s: %w", sumPath, err)
		}
		if ms.Source == "" {
			return fmt.Errorf("%s: summary records no module source; re-run f3m summary with -source", sumPath)
		}
		src := ms.Source
		if !filepath.IsAbs(src) {
			src = filepath.Join(filepath.Dir(sumPath), src)
		}
		mod, err := loadFile(src)
		if err != nil {
			return fmt.Errorf("%s: loading module: %w", sumPath, err)
		}
		if err := ix.Add(ms); err != nil {
			return err
		}
		mods = append(mods, mod)
	}

	cfg := core.DefaultConfig(core.F3MStatic)
	cfg.Threshold = *threshold
	var err error
	cfg.Check, err = core.ParseCheckMode(*check)
	if err != nil {
		return err
	}
	if *metrics || *metricsJSON != "" {
		cfg.Metrics = obs.NewMetrics()
	}

	sr, linked, err := core.RunSummaryMerge("linked", mods, ix, cfg)
	if err != nil {
		return err
	}
	if err := ir.VerifyModule(linked); err != nil {
		return fmt.Errorf("internal error: module invalid after merging: %w", err)
	}

	rep := sr.Report
	fmt.Fprintf(stdout, "strategy:      %s cross-module (t=%.3f, k=%d, b=%d)\n", rep.Strategy, rep.Threshold, rep.K, rep.Bands)
	fmt.Fprintf(stdout, "modules:       %d summarized, %d functions\n", sr.Modules, rep.NumFuncs)
	fmt.Fprintf(stdout, "planned:       %d pairs (%d cross-module)\n", sr.Planned, sr.CrossModulePlanned)
	fmt.Fprintf(stdout, "attempts:      %d ranked pairs, %d merged (%d cross-module)\n", rep.Attempts, rep.Merges, sr.CrossModuleMerges)
	fmt.Fprintf(stdout, "validated:     %d proven, %d stale, %d refuted\n", sr.Validated, sr.Stale, sr.Refuted)
	fmt.Fprintf(stdout, "size:          %d -> %d (%.2f%% reduction)\n", rep.SizeBefore, rep.SizeAfter, 100*rep.Reduction())
	tt := rep.Times
	fmt.Fprintf(stdout, "pass time:     %v (preprocess %v, align %v, codegen %v)\n",
		tt.Total(), tt.Preprocess,
		tt.AlignSuccess+tt.AlignFail, tt.CodegenSuccess+tt.CodegenFail)
	nerr := rep.Diagnostics.Count(analysis.Error)
	fmt.Fprintf(stdout, "checks:        validate, %d diagnostics (%d errors)\n", len(rep.Diagnostics), nerr)
	if len(rep.Diagnostics) > 0 {
		if err := rep.Diagnostics.Render(stdout); err != nil {
			return err
		}
	}
	if nerr > 0 {
		return fmt.Errorf("check=validate found %d errors", nerr)
	}
	if *verbose {
		for _, p := range rep.Pairs {
			status := "skipped"
			if p.Attempted {
				status = "rejected"
				if p.Profitable {
					status = fmt.Sprintf("merged, saved %d", p.Saving)
				}
			}
			fmt.Fprintf(stdout, "  %-30s + %-30s sim=%.3f %s\n", p.A, p.B, p.Similarity, status)
		}
	}
	if *metrics {
		fmt.Fprintln(stdout)
		cfg.Metrics.WriteFunnel(stdout)
		fmt.Fprintln(stdout)
		cfg.Metrics.WriteText(stdout)
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
		if err := cfg.Metrics.WriteJSON(w); err != nil {
			return err
		}
	}
	if *emit {
		if err := ir.WriteModule(stdout, linked); err != nil {
			return err
		}
	}
	return nil
}
