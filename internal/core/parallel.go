package core

// Parallel fingerprinting. The paper's observation (Figures 3 and 13)
// is that once LSH removes the quadratic ranking cost, preprocessing —
// one independent fingerprint per function — dominates the merge
// stage. That is the one stage Config.Workers fans out: measured on its
// own stage at GOMAXPROCS 2 it runs about 1.9x faster on two workers,
// while the LSH build, the ranking queries, HyFM's nearest-neighbour
// scan and cross-module planning did not gain (DESIGN.md, "Parallel
// fingerprinting"), so they run sequentially.
//
// The contract is strict determinism: for any Config.Workers setting
// the pass must produce the identical Report (same pairs, same merges,
// same stats; only wall-clock stage times differ). Each worker writes
// only its own functions' slots, and everything after fingerprinting
// is sequential.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"f3m/internal/obs"
)

// resolveWorkers maps the Config.Workers knob to a pool size: 0 (or
// negative) means GOMAXPROCS, 1 forces the sequential path.
func resolveWorkers(w int) int {
	if w == 1 {
		return 1
	}
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// poolRun runs fn(i) for every i in [0, n), distributing indices over
// workers goroutines in contiguous chunks claimed from a shared
// counter; fn must be safe to call concurrently for distinct i. With
// workers <= 1 it degenerates to a plain loop. When metrics are
// enabled it records the stage's pool counters: items processed
// (deterministic) plus the volatile worker count and the summed worker
// busy time, so busy/(workers*stage wall clock) is the pool
// utilization. The timing is two clock reads per worker, not per item.
func poolRun(n, workers int, mx *obs.Metrics, stage string, fn func(i int)) {
	var busy *obs.Gauge
	if mx != nil {
		mx.Counter("pool." + stage + ".items").Add(int64(n))
		mx.VolatileGauge("pool." + stage + ".workers").Set(float64(workers))
		busy = mx.VolatileGauge("pool." + stage + ".busy_ns")
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		busy.Add(float64(time.Since(t0)))
		return
	}
	chunk := n / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			t0 := time.Now()
			defer func() { busy.Add(float64(time.Since(t0))) }()
			for {
				hi := int(next.Add(int64(chunk)))
				lo := hi - chunk
				if lo >= n {
					return
				}
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}
