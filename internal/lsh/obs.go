package lsh

import "f3m/internal/obs"

// Histogram bounds for the index's occupancy exports. Powers of two:
// the paper's Fig. 16 point is that the occupancy distribution is
// extremely long-tailed (a handful of buckets host most comparisons),
// and log-spaced buckets expose exactly that tail.
var (
	occupancyBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	bandFillBounds  = []float64{16, 64, 256, 1024, 4096, 16384, 65536}
)

// PublishMetrics records the index's accumulated counters and
// occupancy distributions into the registry under the "lsh." prefix:
//
//	lsh.inserted          signatures inserted (counter)
//	lsh.buckets_used      distinct non-empty buckets (counter)
//	lsh.comparisons       candidates scored (by sketch bound or lane
//	                      scan) (counter)
//	lsh.bucket_cap_skips  candidates skipped by the bucket cap — the
//	                      Fig. 16 observable (counter)
//	lsh.candidates_found  candidates returned at/above threshold (counter)
//	lsh.bands             configured band count (gauge)
//	lsh.max_bucket_load   largest bucket population seen (gauge)
//	lsh.bucket_occupancy  histogram of current bucket populations
//	lsh.band_fill         histogram of distinct buckets per band
//
// The occupancy histograms reflect the index's current state (after
// any Removes), while the counters are totals since construction.
// Publishing is deterministic for identical index state: histogram
// bucket counts are order-independent and all values are integers, so
// the deterministic JSON export stays byte-identical across worker
// counts. Call it from sequential code once querying is done. No-op
// when m is nil.
func (ix *Index) PublishMetrics(m *obs.Metrics) {
	if m == nil {
		return
	}
	m.Counter("lsh.inserted").Add(int64(ix.stats.Inserted))
	m.Counter("lsh.buckets_used").Add(int64(ix.stats.BucketsUsed))
	m.Counter("lsh.comparisons").Add(ix.stats.Comparisons)
	m.Counter("lsh.bucket_cap_skips").Add(ix.stats.CapSkips)
	m.Counter("lsh.candidates_found").Add(ix.stats.CandidatesFound)
	m.Gauge("lsh.bands").Set(float64(len(ix.buckets)))
	m.Gauge("lsh.max_bucket_load").Set(float64(ix.stats.MaxBucketLoad))

	occ := m.Histogram("lsh.bucket_occupancy", occupancyBounds)
	fill := m.Histogram("lsh.band_fill", bandFillBounds)
	for _, bm := range ix.buckets {
		fill.Observe(float64(len(bm)))
		for _, lst := range bm {
			occ.Observe(float64(len(lst)))
		}
	}
}
