package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Maxrss is in KiB on Linux
}

// hostTicks reads the aggregate cpu line of /proc/stat and returns the
// steal ticks and the total ticks. ok is false where the file is absent.
func hostTicks() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		// Fields 9 and 10 (guest, guest_nice) are already counted in
		// user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealMeter measures the host's steal share over an interval: the
// fraction of all CPU ticks the hypervisor gave to other guests. A run
// with a high share ran on a contended host.
type stealMeter struct {
	steal, total uint64
	ok           bool
}

func startSteal() stealMeter {
	s, t, ok := hostTicks()
	return stealMeter{s, t, ok}
}

// pct returns the steal share since start in percent.
func (m stealMeter) pct() float64 {
	s, t, ok := hostTicks()
	if !ok || !m.ok || t <= m.total {
		return 0
	}
	return 100 * float64(s-m.steal) / float64(t-m.total)
}

// runtimeSample is the Go runtime's cumulative counters at one instant.
type runtimeSample struct {
	wall       time.Time
	cpu        float64
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcCPU      float64
}

var gcCPUMetric = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func sampleRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(gcCPUMetric)
	var gcCPU float64
	if gcCPUMetric[0].Value.Kind() == metrics.KindFloat64 {
		gcCPU = gcCPUMetric[0].Value.Float64()
	}
	return runtimeSample{
		allocBytes: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
		gcCycles:   ms.NumGC,
		gcCPU:      gcCPU,
		cpu:        cpuSeconds(),
		wall:       time.Now(),
	}
}

// passCost is what one timed pass cost the process.
type passCost struct {
	wall, cpu float64 // seconds
	allocMB   float64
	allocsK   float64
	gcCycles  float64
	gcCPU     float64 // seconds

	// probeAt is the index, among the run's probe costs, of the probe
	// taken just before the pass; the next one was taken after it.
	probeAt int
}

// since returns the cost between two samples. The wall clock and CPU
// are read last in sampleRuntime and must be read first after the
// pass, so the caller takes the end time itself.
func (a runtimeSample) since(endWall time.Time, endCPU float64) passCost {
	b := sampleRuntime()
	return passCost{
		wall:     endWall.Sub(a.wall).Seconds(),
		cpu:      endCPU - a.cpu,
		allocMB:  float64(b.allocBytes-a.allocBytes) / (1 << 20),
		allocsK:  float64(b.mallocs-a.mallocs) / 1e3,
		gcCycles: float64(b.gcCycles - a.gcCycles),
		gcCPU:    b.gcCPU - a.gcCPU,
	}
}
