package lsh

// Regression tests for the accounting and memory bugs fixed alongside
// the parallel pipeline, plus equivalence tests for the BatchInsert
// build.

import (
	"math/rand"
	"reflect"
	"testing"

	"f3m/internal/fingerprint"
)

// capSig builds a K=4 fingerprint whose first band (lanes 0-1 under
// r=2) is shared while the remaining lanes vary per id, so every id
// collides in band 0 without being a perfect match.
func capSig(id int) fingerprint.MinHash {
	return fingerprint.MinHash{1, 2, uint32(100 + id), uint32(200 + id)}
}

// TestCapSkipsCountsOnlySkipped: with cap 2 and six colliding ids, the
// query checks two candidates and the cap skips exactly the three
// unchecked others — not the already-deduplicated remainder the old
// `len(lst)-checked` accounting charged.
func TestCapSkipsCountsOnlySkipped(t *testing.T) {
	build := func() *Index {
		ix := NewIndex(Params{Rows: 2, Bands: 1, BucketCap: 2})
		for id := 0; id < 6; id++ {
			ix.Insert(id, capSig(id))
		}
		return ix
	}

	ix := build()
	ix.Query(0, capSig(0), 0)
	if got := ix.Stats().CapSkips; got != 3 {
		t.Errorf("Query CapSkips = %d, want 3 (ids 3,4,5)", got)
	}

	ix = build()
	ix.BestWhere(0, capSig(0), 0, nil)
	if got := ix.Stats().CapSkips; got != 3 {
		t.Errorf("BestWhere CapSkips = %d, want 3 (ids 3,4,5)", got)
	}
}

// TestCapSkipsIgnoresSeenInRemainder: with two identical bands, the
// second band's bucket holds only ids the first band already checked or
// skipped; candidates the dedup filter would have dropped anyway must
// not count as cap skips.
func TestCapSkipsIgnoresSeenInRemainder(t *testing.T) {
	ix := NewIndex(Params{Rows: 2, Bands: 2, BucketCap: 2})
	sig := fingerprint.MinHash{1, 2, 1, 2}
	for id := 0; id < 6; id++ {
		ix.Insert(id, sig)
	}
	// Band 0: ids 1,2 checked, unseen remainder {3,4,5} -> 3 skips.
	// Band 1: ids 0,1,2 seen, ids 3,4 checked, remainder {5} -> 1 skip.
	ix.Query(0, sig, 0)
	if got := ix.Stats().CapSkips; got != 4 {
		t.Errorf("CapSkips = %d, want 4 (3 in band 0, 1 in band 1)", got)
	}
}

// TestRemoveReclaimsBuckets: removing every id must delete the emptied
// bucket entries (no empty slices pinned in the band maps) and return
// BucketsUsed to its pre-insert value.
func TestRemoveReclaimsBuckets(t *testing.T) {
	cfg := fingerprint.DefaultConfig()
	rng := rand.New(rand.NewSource(17))
	ix := NewIndex(DefaultParams())
	sigs := make([]fingerprint.MinHash, 20)
	for i := range sigs {
		sigs[i] = cfg.New(randSeq(rng, 30, 50))
		ix.Insert(i, sigs[i])
	}
	if ix.Stats().BucketsUsed == 0 {
		t.Fatal("no buckets used after inserts")
	}
	for i := range sigs {
		ix.Remove(i, sigs[i])
	}
	if got := ix.Stats().BucketsUsed; got != 0 {
		t.Errorf("BucketsUsed = %d after removing everything, want 0", got)
	}
	if loads := ix.BucketLoadHistogram(); len(loads) != 0 {
		t.Errorf("%d bucket entries linger after removing everything", len(loads))
	}
}

// TestRemoveKeepsPopulatedBuckets: removing one of two co-bucketed ids
// must keep the bucket alive and findable.
func TestRemoveKeepsPopulatedBuckets(t *testing.T) {
	ix := NewIndex(Params{Rows: 2, Bands: 1})
	a := fingerprint.MinHash{1, 2, 7, 8}
	b := fingerprint.MinHash{1, 2, 7, 9}
	c := fingerprint.MinHash{1, 2, 7, 10}
	ix.Insert(0, a)
	ix.Insert(1, b)
	ix.Insert(2, c)
	ix.Remove(1, b)
	if got := ix.Stats().BucketsUsed; got != 1 {
		t.Errorf("BucketsUsed = %d, want 1 (bucket still holds ids 0,2)", got)
	}
	if _, ok := ix.Best(0, a, 0); !ok {
		t.Error("surviving co-bucketed candidate not found after Remove")
	}
}

// TestSeenDoesNotGrowStamp: the read path of the per-query dedup filter
// must not allocate; only mark may grow the stamp slice.
func TestSeenDoesNotGrowStamp(t *testing.T) {
	ix := NewIndex(DefaultParams())
	ix.beginQuery(0)
	n := len(ix.stamp)
	far := int32(n + 1000)
	if ix.seen(far) {
		t.Error("unmarked id reported seen")
	}
	if len(ix.stamp) != n {
		t.Errorf("seen grew stamp: %d -> %d", n, len(ix.stamp))
	}
	ix.mark(far)
	if !ix.seen(far) {
		t.Error("marked id not reported seen")
	}
	if len(ix.stamp) <= int(far) {
		t.Errorf("mark did not grow stamp to cover id %d", far)
	}
}

// TestBatchInsertMatchesSequential: the batch build must leave the
// index byte-identical to sequential insertion — bucket contents and
// order, sketch rows, stats, and every query answer.
func TestBatchInsertMatchesSequential(t *testing.T) {
	cfg := fingerprint.DefaultConfig()
	rng := rand.New(rand.NewSource(5))
	sigs := make([]fingerprint.MinHash, 300)
	base := randSeq(rng, 40, 30)
	for i := range sigs {
		// A mix of near-clones and unrelated sequences so buckets have
		// realistic crowding.
		if i%3 == 0 {
			sigs[i] = cfg.New(mutate(rng, base, 3, 30))
		} else {
			sigs[i] = cfg.New(randSeq(rng, 40, 30))
		}
	}

	seq := NewIndex(DefaultParams())
	for i, s := range sigs {
		seq.Insert(i, s)
	}
	buildStats := seq.stats
	answers := make([][]Candidate, len(sigs))
	for i := range sigs {
		answers[i] = seq.Query(i, sigs[i], 0.2)
	}
	queryStats := seq.stats

	batch := NewIndex(DefaultParams())
	batch.BatchInsert(0, sigs)
	if !reflect.DeepEqual(seq.buckets, batch.buckets) {
		t.Fatal("bucket maps differ from sequential build")
	}
	if batch.stats != buildStats {
		t.Fatalf("build stats %+v differ from sequential %+v", batch.stats, buildStats)
	}
	if batch.k != seq.k || batch.stride != seq.stride || !reflect.DeepEqual(seq.sketches, batch.sketches) {
		t.Fatal("sketch rows differ from sequential build")
	}
	for i := range sigs {
		if got := batch.Query(i, sigs[i], 0.2); !reflect.DeepEqual(got, answers[i]) {
			t.Fatalf("query %d differs: %v vs %v", i, got, answers[i])
		}
	}
	if batch.stats != queryStats {
		t.Fatalf("post-query stats %+v diverge from %+v", batch.stats, queryStats)
	}
}

// TestBatchInsertAppendsToExistingIndex: batch insertion into a
// non-empty index must extend buckets exactly like sequential Inserts.
func TestBatchInsertAppendsToExistingIndex(t *testing.T) {
	cfg := fingerprint.DefaultConfig()
	rng := rand.New(rand.NewSource(9))
	first := make([]fingerprint.MinHash, 50)
	second := make([]fingerprint.MinHash, 50)
	for i := range first {
		first[i] = cfg.New(randSeq(rng, 30, 20))
		second[i] = cfg.New(randSeq(rng, 30, 20))
	}

	seq := NewIndex(DefaultParams())
	batch := NewIndex(DefaultParams())
	for i, s := range first {
		seq.Insert(i, s)
		batch.Insert(i, s)
	}
	for i, s := range second {
		seq.Insert(len(first)+i, s)
	}
	batch.BatchInsert(len(first), second)

	if !reflect.DeepEqual(seq.buckets, batch.buckets) {
		t.Fatal("bucket maps differ after appending batch")
	}
	if seq.stats != batch.stats {
		t.Fatalf("stats differ: %+v vs %+v", batch.stats, seq.stats)
	}
}
