package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Snapshot is a point-in-time copy of a registry, the unit all
// exporters serialize. Map keys are metric names; encoding/json sorts
// them, so the serialized forms are canonical.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// HistogramSnapshot is the exported state of one histogram: Counts[i]
// holds observations <= Bounds[i], with a final overflow bucket.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot copies the registry. Volatile metrics (wall-clock times,
// worker counts, utilization gauges, cache counters)
// are included only when includeVolatile is set; leaving them out
// makes the snapshot deterministic for a given workload and
// configuration, independent of scheduling. A nil registry snapshots
// as empty.
func (m *Metrics) Snapshot(includeVolatile bool) Snapshot {
	var s Snapshot
	if m == nil {
		return s
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, c := range m.counters {
		if c.volatile && !includeVolatile {
			continue
		}
		if s.Counters == nil {
			s.Counters = make(map[string]int64, len(m.counters))
		}
		s.Counters[name] = c.Value()
	}
	for name, g := range m.gauges {
		if g.volatile && !includeVolatile {
			continue
		}
		if s.Gauges == nil {
			s.Gauges = make(map[string]float64, len(m.gauges))
		}
		s.Gauges[name] = g.Value()
	}
	for name, h := range m.histograms {
		if h.volatile && !includeVolatile {
			continue
		}
		if s.Histograms == nil {
			s.Histograms = make(map[string]HistogramSnapshot, len(m.histograms))
		}
		hs := HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Count:  h.Count(),
			Sum:    h.Sum(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hs
	}
	return s
}

// WriteJSON emits the machine-diffable export: the non-volatile
// snapshot as indented JSON with sorted keys and a trailing newline.
// For a fixed workload and configuration the output is byte-identical
// at every Workers setting — bench harnesses diff it directly.
func (m *Metrics) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(m.Snapshot(false), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// String renders the full snapshot (volatile metrics included) as
// compact JSON. It satisfies the expvar.Var interface, so an enabled
// registry can be published in-process with
// expvar.Publish("f3m", metrics). A nil registry prints "{}".
func (m *Metrics) String() string {
	data, err := json.Marshal(m.Snapshot(true))
	if err != nil {
		return "{}"
	}
	return string(data)
}

// WriteText renders a human-readable summary of every metric,
// volatile ones marked. Histograms print one bucket per line.
func (m *Metrics) WriteText(w io.Writer) error {
	if m == nil {
		_, err := fmt.Fprintln(w, "metrics: disabled")
		return err
	}
	s := m.Snapshot(true)

	m.mu.Lock()
	volatileNames := make(map[string]bool)
	for name, g := range m.gauges {
		if g.volatile {
			volatileNames[name] = true
		}
	}
	for name, c := range m.counters {
		if c.volatile {
			volatileNames[name] = true
		}
	}
	for name, h := range m.histograms {
		if h.volatile {
			volatileNames[name] = true
		}
	}
	m.mu.Unlock()

	var b strings.Builder
	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, name := range sortedKeys(s.Counters) {
			mark := ""
			if volatileNames[name] {
				mark = "  (volatile)"
			}
			fmt.Fprintf(&b, "  %-32s %d%s\n", name, s.Counters[name], mark)
		}
	}
	if len(s.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, name := range sortedKeys(s.Gauges) {
			mark := ""
			if volatileNames[name] {
				mark = "  (volatile)"
			}
			fmt.Fprintf(&b, "  %-32s %s%s\n", name, formatFloat(s.Gauges[name]), mark)
		}
	}
	if len(s.Histograms) > 0 {
		b.WriteString("histograms:\n")
		for _, name := range sortedKeys(s.Histograms) {
			h := s.Histograms[name]
			mark := ""
			if volatileNames[name] {
				mark = "  (volatile)"
			}
			fmt.Fprintf(&b, "  %-32s count=%d sum=%s%s\n", name, h.Count, formatFloat(h.Sum), mark)
			for i, c := range h.Counts {
				bound := "+Inf"
				if i < len(h.Bounds) {
					bound = "<=" + formatFloat(h.Bounds[i])
				}
				fmt.Fprintf(&b, "    %-10s %d\n", bound, c)
			}
		}
	}
	if b.Len() == 0 {
		b.WriteString("metrics: empty\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteFunnel renders the candidate-funnel counters in pipeline order,
// skipping stages never recorded (e.g. LSH stages under HyFM). The
// committed line equals core's Report.Merges by construction.
func (m *Metrics) WriteFunnel(w io.Writer) error {
	if m == nil {
		_, err := fmt.Fprintln(w, "candidate funnel: disabled")
		return err
	}
	var b strings.Builder
	b.WriteString("candidate funnel:\n")
	present := 0
	m.mu.Lock()
	counters := make(map[string]int64, len(FunnelStages))
	for _, name := range FunnelStages {
		if c, ok := m.counters[name]; ok {
			counters[name] = c.Value()
			present++
		}
	}
	m.mu.Unlock()
	for _, name := range FunnelStages {
		v, ok := counters[name]
		if !ok {
			continue
		}
		stage := strings.TrimPrefix(name, "funnel.")
		fmt.Fprintf(&b, "  %-18s %d\n", stage, v)
	}
	if present == 0 {
		b.WriteString("  (no funnel counters recorded)\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatFloat prints integers without a decimal point and everything
// else with %g, keeping the text export stable and readable.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// sortedKeys returns the sorted key set of a string-keyed map.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
