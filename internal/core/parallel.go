package core

// Parallel execution of the embarrassingly parallel pass stages. The
// paper's observation (Figures 3 and 13) is that once LSH removes the
// quadratic ranking cost, preprocessing — MinHash fingerprinting, one
// independent computation per function — dominates the merge stage.
// Both it and HyFM's baseline nearest-neighbour scan split cleanly
// across workers.
//
// The contract is strict determinism: for any Config.Workers setting
// the pass must produce the identical Report (same pairs, same merges,
// same stats; only wall-clock stage times differ). That is why the
// merge loop handles one pair at a time (a ranking query may fan its
// comparisons out, but alignment, code generation and commits stay
// sequential), the LSH build is sharded by
// band (lsh.BatchInsert), and the parallel nearest-neighbour reduction
// breaks distance ties toward the lowest index exactly as the
// sequential first-minimum scan does.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"f3m/internal/fingerprint"
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

// parallelFor runs fn(i) for every i in [0, n), distributing indices
// over workers goroutines in contiguous chunks claimed from a shared
// counter. fn must be safe to call concurrently for distinct i. With
// workers <= 1 it degenerates to a plain loop.
func parallelFor(n, workers int, fn func(i int)) {
	parallelForPool(n, workers, nil, fn)
}

// parallelForPool is parallelFor with worker-pool observability: when
// busy is non-nil, each worker adds its active wall time (in
// nanoseconds) to the gauge, so busy/(workers*stage wall clock) is the
// pool utilization. The timing is two clock reads per worker, not per
// item, and is skipped entirely when busy is nil.
func parallelForPool(n, workers int, busy *obs.Gauge, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var t0 time.Time
		if busy != nil {
			t0 = time.Now()
		}
		for i := 0; i < n; i++ {
			fn(i)
		}
		if busy != nil {
			busy.Add(float64(time.Since(t0)))
		}
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
			var t0 time.Time
			if busy != nil {
				t0 = time.Now()
				defer func() { busy.Add(float64(time.Since(t0))) }()
			}
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

// poolRun is the instrumented entry the pipeline stages use: it runs
// fn over [0, n) like parallelFor and, when metrics are enabled,
// records the stage's pool counters — items processed (deterministic)
// plus the volatile worker count and summed busy time.
func poolRun(n, workers int, mx *obs.Metrics, stage string, fn func(i int)) {
	var busy *obs.Gauge
	if mx != nil {
		mx.Counter("pool." + stage + ".items").Add(int64(n))
		mx.VolatileGauge("pool." + stage + ".workers").Set(float64(workers))
		busy = mx.VolatileGauge("pool." + stage + ".busy_ns")
	}
	parallelForPool(n, workers, busy, fn)
}

// parallelScanMin is the population size below which the HyFM inner
// scan is not worth fanning out (goroutine startup would dominate the
// O(n) distance work). Purely a performance threshold: results are
// identical either way.
const parallelScanMin = 512

// nearestNeighbour finds, among the unmerged fingerprints, the index
// nearest to fps[i] by Manhattan distance, splitting the O(n) scan
// across workers. Each worker keeps the first minimum of its contiguous
// range; ranges are then reduced in ascending order with a strict
// less-than, so the overall winner is the first index attaining the
// minimal distance — exactly what the sequential scan selects. The
// third result counts the distance computations performed (the
// candidate-funnel "compared" stage); it depends only on the merged
// set, not the worker split.
func nearestNeighbour(fps []*fingerprint.FreqVector, i int, merged []bool, workers int) (best, bestDist int, compared int64) {
	n := len(fps)
	scan := func(lo, hi int) (int, int, int64) {
		b, bd := -1, int(^uint(0)>>1)
		cmp := int64(0)
		for j := lo; j < hi; j++ {
			if j == i || merged[j] {
				continue
			}
			cmp++
			if d := fps[i].Distance(fps[j]); d < bd {
				b, bd = j, d
			}
		}
		return b, bd, cmp
	}
	if workers <= 1 || n < parallelScanMin {
		return scan(0, n)
	}
	type hit struct {
		b, d int
		cmp  int64
	}
	hits := make([]hit, workers)
	per := (n + workers - 1) / workers
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			lo := w * per
			hi := lo + per
			if hi > n {
				hi = n
			}
			if lo > n {
				lo = n
			}
			hits[w].b, hits[w].d, hits[w].cmp = scan(lo, hi)
		}(w)
	}
	wg.Wait()
	best, bestDist = -1, int(^uint(0)>>1)
	for _, h := range hits {
		compared += h.cmp
		if h.b >= 0 && h.d < bestDist {
			best, bestDist = h.b, h.d
		}
	}
	return best, bestDist, compared
}
