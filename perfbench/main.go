// Command f3mbench is the end-to-end benchmark of the function-merging
// pass. For one workload it builds the input from a seed, runs the
// merging pass as a user would, checks every pass's output against the
// interpreter's results on the unmerged module, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of standard output. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	if err := mainErr(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "f3mbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("f3mbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see README.md)")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same input")
	seconds := fs.Float64("seconds", 20, "how long the timed passes run, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	abcheck := fs.Bool("abcheck", false, "steadiness self-check: run every listed workload as two interleaved sets and compare")
	runs := fs.Int("runs", 10, "-abcheck: runs per set and workload, seeds seed..seed+runs-1")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if *abcheck {
		if *runs < 2 {
			return fmt.Errorf("-runs must be at least 2 to give quartiles")
		}
		return abCheck(abOptions{runs: *runs, seed: *seed, seconds: *seconds}, stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if w.heldOut != "" {
		fmt.Fprintf(stderr, "f3mbench: %s is held out of BENCHMARK.json: %s\n", w.name, w.heldOut)
	}
	res, info, rows, err := run(w, options{seed: *seed, seconds: *seconds, trace: *trace == 1}, stderr)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if rows != nil {
		writeLayerTable(stdout, w, rows)
	}
	infoLine, err := json.Marshal(info)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# info %s\n", infoLine)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}
