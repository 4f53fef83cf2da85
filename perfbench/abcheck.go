package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// benchSpec is the part of BENCHMARK.json the self-check and the tests
// read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// abOptions are the self-check's settings.
type abOptions struct {
	runs    int
	seed    int64
	seconds float64
}

// abRun is one child run's outcome.
type abRun struct {
	set  string
	seed int64
	res  result
	info runInfo
}

// abCheck runs every listed workload as two interleaved sets of runs of this
// same binary, A and B, alternating which set goes first. Run i of both
// sets uses seed seed+i, as two benchmark sessions over the same seeds
// would. For every workload and end-to-end metric it prints each set's
// median and quartiles beside the metric's bound, and it checks what a
// steady benchmark must show:
//
//   - each set's spread (interquartile range over the median) is within
//     the bound;
//   - the two medians differ by no more than the bound;
//   - every run is correct, and runs of one seed in A and B report the
//     same outcome digest (the determinism contract).
//
// Each run's host steal share and median probe time are printed with
// it, so a noisy or slow host can be told from a noisy benchmark. It returns an error when a check fails.
func abCheck(o abOptions, stdout, stderr io.Writer) error {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	ws := listed()
	self, err := os.Executable()
	if err != nil {
		return err
	}

	runs := map[string][]abRun{}
	var failures []string
	fmt.Fprintf(stdout, "%-20s %-3s %6s %8s %8s %7s %7s %s\n", "workload", "set", "seed", "steal%", "probe_s", "passes", "run_s", "correct")
	for i := 0; i < o.runs; i++ {
		seed := o.seed + int64(i)
		for _, w := range ws {
			sets := []string{"A", "B"}
			if i%2 == 1 {
				sets = []string{"B", "A"}
			}
			for _, set := range sets {
				start := time.Now()
				r, err := childRun(self, w.name, seed, o.seconds, stderr)
				if err != nil {
					return fmt.Errorf("%s seed %d set %s: %w", w.name, seed, set, err)
				}
				r.set = set
				runs[w.name] = append(runs[w.name], r)
				fmt.Fprintf(stdout, "%-20s %-3s %6d %8.2f %8.3f %7d %7.1f %v\n",
					w.name, set, seed, r.info.StealPct, r.info.ProbeS, r.info.Passes, time.Since(start).Seconds(), r.res.Correct)
				if !r.res.Correct {
					failures = append(failures, fmt.Sprintf("%s seed %d set %s incorrect: %v", w.name, seed, set, r.info.Problems))
				}
			}
		}
	}

	fmt.Fprintf(stdout, "\n%-20s %-22s %30s %30s %8s %7s %s\n",
		"workload", "metric", "A median [q1 q3] spread%", "B median [q1 q3] spread%", "dmed%", "bound%", "verdict")
	for _, w := range ws {
		digests := map[int64]string{}
		for _, r := range runs[w.name] {
			if d, seen := digests[r.seed]; seen && d != r.info.Digest {
				failures = append(failures, fmt.Sprintf("%s seed %d: A and B outcomes differ: %q vs %q", w.name, r.seed, d, r.info.Digest))
			}
			digests[r.seed] = r.info.Digest
		}
		for _, m := range spec.EndToEnd {
			var a, b []float64
			for _, r := range runs[w.name] {
				v := r.res.Metrics[m.Name].Value
				if r.set == "A" {
					a = append(a, v)
				} else {
					b = append(b, v)
				}
			}
			sa, sb := summarize(a), summarize(b)
			dmed := relDiff(sb.med, sa.med)
			verdict := "ok"
			var why []string
			if sa.spread > m.Bound || sb.spread > m.Bound {
				why = append(why, "spread over bound")
			}
			if math.Abs(dmed) > m.Bound {
				why = append(why, "medians differ by more than the bound")
			}
			if len(why) > 0 {
				verdict = "FAIL: " + strings.Join(why, ", ")
				failures = append(failures, fmt.Sprintf("%s %s: %s", w.name, m.Name, strings.Join(why, ", ")))
			} else if math.Max(sa.spread, sb.spread) > m.Bound/3 {
				verdict = "ok (spread above a third of the bound)"
			}
			fmt.Fprintf(stdout, "%-20s %-22s %30s %30s %8.2f %7.1f %s\n",
				w.name, m.Name, sa, sb, 100*dmed, 100*m.Bound, verdict)
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(stdout, "FAIL", f)
		}
		return fmt.Errorf("steadiness self-check failed (%d problems)", len(failures))
	}
	fmt.Fprintln(stdout, "steadiness self-check passed")
	return nil
}

// childRun runs one benchmark run of this binary in its own process and
// parses its info line and result line.
func childRun(self, name string, seed int64, seconds float64, stderr io.Writer) (abRun, error) {
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return abRun{}, err
	}
	r := abRun{seed: seed}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# info "); ok {
			if err := json.Unmarshal([]byte(rest), &r.info); err != nil {
				return abRun{}, fmt.Errorf("info line: %w", err)
			}
		}
		last = line
	}
	if err := json.Unmarshal([]byte(last), &r.res); err != nil {
		return abRun{}, fmt.Errorf("result line: %w", err)
	}
	return r, nil
}

// setSummary is one set's median, quartiles and spread.
type setSummary struct {
	med, q1, q3, spread float64
}

func summarize(xs []float64) setSummary {
	s := setSummary{med: median(xs)}
	s.q1, s.q3 = quartiles(xs)
	if s.med != 0 {
		s.spread = (s.q3 - s.q1) / math.Abs(s.med)
	}
	return s
}

func (s setSummary) String() string {
	return fmt.Sprintf("%.4g [%.4g %.4g] %.2f", s.med, s.q1, s.q3, 100*s.spread)
}

// relDiff returns (b-a)/|a|, or 0 when both are 0.
func relDiff(b, a float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (b - a) / math.Abs(a)
}
