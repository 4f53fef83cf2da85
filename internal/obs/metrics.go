package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Canonical names of the candidate-funnel counters, in pipeline order.
// Each stage counts items surviving to that point of the merge
// pipeline: functions fingerprinted, signatures inserted into the LSH
// index, fingerprint comparisons performed, candidates at or above the
// similarity threshold, pairs reaching alignment, profitable merges,
// and merges actually committed to the module.
const (
	FunnelFingerprinted  = "funnel.fingerprinted"
	FunnelBucketed       = "funnel.bucketed"
	FunnelCompared       = "funnel.compared"
	FunnelAboveThreshold = "funnel.above_threshold"
	FunnelAligned        = "funnel.aligned"
	FunnelProfitable     = "funnel.profitable"
	FunnelCommitted      = "funnel.committed"
)

// FunnelStages lists the funnel counter names in pipeline order, for
// renderers that want to draw the funnel top to bottom.
var FunnelStages = []string{
	FunnelFingerprinted,
	FunnelBucketed,
	FunnelCompared,
	FunnelAboveThreshold,
	FunnelAligned,
	FunnelProfitable,
	FunnelCommitted,
}

// Metrics is a registry of named counters, gauges and histograms.
// A nil *Metrics is the disabled registry: every lookup returns a nil
// handle whose methods are no-ops, so instrumentation sites pay one
// nil check and zero allocations when observability is off.
//
// Handle lookups (Counter, Gauge, Histogram) are get-or-create and
// safe for concurrent use; the returned handles update atomically.
// Integer counters and histogram bucket counts aggregate
// order-independently, which is what keeps the deterministic export
// (WriteJSON) byte-identical across worker schedules.
type Metrics struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewMetrics returns an empty, enabled registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed. Returns
// nil (a no-op handle) when m is nil.
func (m *Metrics) Counter(name string) *Counter {
	return m.counter(name, false)
}

// VolatileCounter is Counter for counts that legitimately differ
// between runs or configurations — cache hits that depend on what a
// shared cache already held, worker counts: anything whose value
// depends on scheduling or history rather than on the workload.
// Volatile counters are excluded from the deterministic JSON export
// (WriteJSON) and shown only by WriteText and String, mirroring
// VolatileGauge. The volatility of a name is fixed by whichever call
// creates it first.
func (m *Metrics) VolatileCounter(name string) *Counter {
	return m.counter(name, true)
}

func (m *Metrics) counter(name string, volatile bool) *Counter {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.counters[name]
	if !ok {
		c = &Counter{volatile: volatile}
		m.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed. Returns nil (a
// no-op handle) when m is nil.
func (m *Metrics) Gauge(name string) *Gauge {
	return m.gauge(name, false)
}

// VolatileGauge is Gauge for values that legitimately differ between
// runs or configurations — wall-clock times, worker counts, pool
// utilization. Volatile metrics are excluded from the deterministic
// JSON export (WriteJSON) and shown only by WriteText and String.
// The volatility of a name is fixed by whichever call creates it
// first.
func (m *Metrics) VolatileGauge(name string) *Gauge {
	return m.gauge(name, true)
}

func (m *Metrics) gauge(name string, volatile bool) *Gauge {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.gauges[name]
	if !ok {
		g = &Gauge{volatile: volatile}
		m.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// upper bucket bounds (ascending; an implicit +Inf bucket is always
// appended). The bounds of a name are fixed by whichever call creates
// it first. Returns nil (a no-op handle) when m is nil.
func (m *Metrics) Histogram(name string, bounds []float64) *Histogram {
	return m.histogram(name, bounds, false)
}

// VolatileHistogram is Histogram for distributions that legitimately
// differ between runs — latencies and other wall-clock measurements.
// Volatile histograms are excluded from the deterministic JSON export
// (WriteJSON) and shown only by WriteText and String, mirroring
// VolatileCounter and VolatileGauge. The volatility of a name is fixed
// by whichever call creates it first.
func (m *Metrics) VolatileHistogram(name string, bounds []float64) *Histogram {
	return m.histogram(name, bounds, true)
}

func (m *Metrics) histogram(name string, bounds []float64, volatile bool) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.histograms[name]
	if !ok {
		h = &Histogram{
			bounds:   append([]float64(nil), bounds...),
			counts:   make([]atomic.Int64, len(bounds)+1),
			volatile: volatile,
		}
		m.histograms[name] = h
	}
	return h
}

// CounterValue reads the named counter, 0 when absent or m is nil.
func (m *Metrics) CounterValue(name string) int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	c := m.counters[name]
	m.mu.Unlock()
	return c.Value()
}

// GaugeValue reads the named gauge, 0 when absent or m is nil.
func (m *Metrics) GaugeValue(name string) float64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	g := m.gauges[name]
	m.mu.Unlock()
	return g.Value()
}

// Counter is a monotonically increasing integer metric. The zero value
// is ready to use; a nil *Counter is a no-op handle.
type Counter struct {
	v        atomic.Int64
	volatile bool
}

// Add increments the counter by d. No-op on a nil handle.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Inc increments the counter by one. No-op on a nil handle.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter; 0 on a nil handle.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float metric (last write wins; Add accumulates).
// A nil *Gauge is a no-op handle.
type Gauge struct {
	bits     atomic.Uint64
	volatile bool
}

// Set stores v. No-op on a nil handle.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add atomically adds v to the gauge (used by worker pools summing
// per-worker contributions). No-op on a nil handle.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, upd) {
			return
		}
	}
}

// Value reads the gauge; 0 on a nil handle.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets: counts[i] is the
// number of observations v <= bounds[i], and the final bucket catches
// everything larger. A nil *Histogram is a no-op handle.
//
// Bucket counts are integer atomics and aggregate
// schedule-independently. Sum is a float accumulator: observations
// recorded from parallel code must be integer-valued (exactly
// representable) for the deterministic export to stay byte-identical;
// fractional values (e.g. alignment scores) must be recorded from
// sequential code. The pipeline follows that rule.
type Histogram struct {
	bounds   []float64
	counts   []atomic.Int64 // len(bounds)+1; last bucket is +Inf
	count    atomic.Int64
	sum      Gauge
	volatile bool
}

// Observe records one value. No-op on a nil handle.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count is the total number of observations; 0 on a nil handle.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum is the running total of observed values; 0 on a nil handle.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}
