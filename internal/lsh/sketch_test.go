package lsh

// Tests for the one-byte-per-lane sketch that lets BestWhere skip the
// full lane scan: the bound's soundness, its storage, the allocation
// budget of a query, and how often the full scan still runs.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"f3m/internal/fingerprint"
	"f3m/internal/irgen"
)

// sketchOf packs mh into a fresh row of ceil(len(mh)/8) words.
func sketchOf(mh fingerprint.MinHash) []uint64 {
	row := make([]uint64, (len(mh)+7)/8)
	packSketch(row, mh)
	return row
}

// equalLowBytes counts the lanes of a and b whose low bytes agree: the
// value sketchBound must compute.
func equalLowBytes(a, b fingerprint.MinHash) int {
	n := 0
	for i := range a {
		if uint8(a[i]) == uint8(b[i]) {
			n++
		}
	}
	return n
}

// lowByteTwin returns a copy of mh whose every lane keeps its low byte
// but differs above it.
func lowByteTwin(rng *rand.Rand, mh fingerprint.MinHash) fingerprint.MinHash {
	out := make(fingerprint.MinHash, len(mh))
	for i, v := range mh {
		out[i] = v ^ uint32(1+rng.Intn(1<<24-1))<<8
	}
	return out
}

// TestSketchBoundAtLeastMatches: on random fingerprint pairs, some
// lanes copied and some with only the low byte copied, the bound counts
// exactly the equal low bytes, which is never less than Matches. The
// lengths cover a multiple of 8, K=60 (4 pad bytes) and tiny K.
func TestSketchBoundAtLeastMatches(t *testing.T) {
	prop := func(seed int64, kraw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := []int{1, 7, 8, 60, 200}[int(kraw)%5]
		a, b := make(fingerprint.MinHash, k), make(fingerprint.MinHash, k)
		for i := range a {
			a[i] = rng.Uint32()
			switch rng.Intn(3) {
			case 0:
				b[i] = a[i]
			case 1:
				b[i] = a[i]&0xff | rng.Uint32()&^0xff
			default:
				b[i] = rng.Uint32()
			}
		}
		bound := sketchBound(sketchOf(a), sketchOf(b), k)
		return bound == equalLowBytes(a, b) && bound >= a.Matches(b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestSketchBoundLowByteTwins: twins share every low byte and no lane,
// the worst case for the filter. The bound is K (it must not be fooled
// into skipping) while Matches is 0.
func TestSketchBoundLowByteTwins(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cfg := fingerprint.DefaultConfig()
	for _, k := range []int{200, 60} {
		a := cfg.WithK(k).New(randSeq(rng, 50, 40))
		b := lowByteTwin(rng, a)
		if got := sketchBound(sketchOf(a), sketchOf(b), k); got != k {
			t.Errorf("K=%d: twin bound = %d, want %d", k, got, k)
		}
		if got := a.Matches(b); got != 0 {
			t.Errorf("K=%d: twin Matches = %d, want 0", k, got)
		}
	}
}

// TestSketchPadBytes: with K=60 the last word holds 4 lanes and 4 pad
// bytes. Pad bytes are zero in every row and must not count as equal
// lanes, including against a row whose lanes all have a zero low byte.
func TestSketchPadBytes(t *testing.T) {
	const k = 60
	zero := make(fingerprint.MinHash, k) // every low byte 0, like padding
	ones := make(fingerprint.MinHash, k)
	for i := range ones {
		ones[i] = 0x101
	}
	row := sketchOf(ones)
	if len(row) != 8 || row[7]>>32 != 0 {
		t.Fatalf("row = %x, want 8 words with the top 4 bytes of the last zero", row)
	}
	if got := sketchBound(sketchOf(zero), row, k); got != 0 {
		t.Errorf("bound(zero, ones) = %d, want 0", got)
	}
	if got := sketchBound(row, row, k); got != k {
		t.Errorf("bound(ones, ones) = %d, want %d", got, k)
	}
}

// TestMinMatches: the count threshold admits exactly the counts whose
// Jaccard value reaches minSim, so filtering on counts drops the same
// candidates as filtering on similarities.
func TestMinMatches(t *testing.T) {
	nan := 0.0
	nan /= nan
	for _, n := range []int{0, 1, 3, 7, 60, 200} {
		for _, minSim := range []float64{-1, 0, 0.05, 0.1, 1.0 / 3, 0.3, 0.7, 1, 1.5, nan} {
			c := minMatches(minSim, n)
			for m := 0; m <= n; m++ {
				if pass := fingerprint.Similarity(m, n) >= minSim; pass != (m >= c) {
					t.Fatalf("n=%d minSim=%v: minMatches=%d, but count %d passes=%v", n, minSim, c, m, pass)
				}
			}
		}
	}
}

// TestSketchRowsFollowInsertAndRemove: a fingerprint of another length
// than the index's gets a zero row, and re-inserting an id rewrites its
// row.
func TestSketchRowsFollowInsertAndRemove(t *testing.T) {
	ix := NewIndex(Params{Rows: 2, Bands: 2})
	a := fingerprint.MinHash{1, 2, 3, 4, 5}
	ix.Insert(1, a)
	if ix.k != 5 || ix.stride != 1 || len(ix.sketches) != 2 {
		t.Fatalf("k=%d stride=%d rows=%d, want 5, 1, 2", ix.k, ix.stride, len(ix.sketches))
	}
	if ix.sketches[1] != 0x0504030201 {
		t.Errorf("row 1 = %x", ix.sketches[1])
	}
	ix.Remove(1, a)
	ix.Insert(1, fingerprint.MinHash{1, 2, 3, 4})
	if ix.sketches[1] != 0 {
		t.Errorf("short fingerprint row = %x, want 0", ix.sketches[1])
	}
}

// TestBestWhereAllocs: once the index is built and has answered one
// query, BestWhere allocates nothing per query; the query's sketch lives
// in index scratch.
func TestBestWhereAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cfg := fingerprint.DefaultConfig()
	sigs := make([]fingerprint.MinHash, 200)
	base := randSeq(rng, 40, 30)
	for i := range sigs {
		sigs[i] = cfg.New(mutate(rng, base, rng.Intn(15), 30))
	}
	ix := NewIndex(DefaultParams())
	ix.BatchInsert(0, sigs)
	accept := func(id int) bool { return id%7 != 0 }
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		ix.BestWhere(i, sigs[i], 0.1, accept)
		i = (i + 1) % len(sigs)
	})
	if allocs != 0 {
		t.Errorf("BestWhere allocates %.1f times per query, want 0", allocs)
	}
}

// TestSketchFilterEffectiveness: on BenchmarkRanking's n=4000
// population under the adaptive parameters (t=0.06, b=100, K=200), the
// sketch bound must settle all but a few percent of the scored
// candidates that do not become the answer. Every answered query needs
// one full scan to learn its best count exactly, and this population
// scores only about ten candidates per query, so those scans are not
// charged (they alone are 9% of scored candidates here). A change that
// makes the lanes' low bytes non-uniform would let most candidates
// through to the full scan; this fails instead of the gain quietly
// disappearing.
func TestSketchFilterEffectiveness(t *testing.T) {
	pop := irgen.GenerateEncoded(7, 4000, 25, 0.4)
	minSim, params, k := AdaptiveParams(len(pop.Seqs))
	cfg := (&fingerprint.Config{K: k, ShingleSize: 2, Seed: 0xF3}).Prepare()
	sigs := make([]fingerprint.MinHash, len(pop.Seqs))
	for i, seq := range pop.Seqs {
		sigs[i] = cfg.New(seq)
	}
	ix := NewIndex(params)
	ix.BatchInsert(0, sigs)
	for i := range sigs {
		ix.Best(i, sigs[i], minSim)
	}
	st := ix.Stats()
	if k != 200 || st.Comparisons == 0 {
		t.Fatalf("K=%d, %d candidates scored", k, st.Comparisons)
	}
	excess := float64(ix.fullScans-st.CandidatesFound) / float64(st.Comparisons)
	t.Logf("full scans: %d of %d scored candidates, %d answers (%.2f%% beyond the answers)",
		ix.fullScans, st.Comparisons, st.CandidatesFound, 100*excess)
	if excess >= 0.05 {
		t.Errorf("%.2f%% of scored candidates reached the full scan without becoming the answer, want < 5%%", 100*excess)
	}
}
