package lsh

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"f3m/internal/fingerprint"
)

// randSeq produces a random encoded-instruction sequence.
func randSeq(rng *rand.Rand, n, alphabet int) []fingerprint.Encoded {
	seq := make([]fingerprint.Encoded, n)
	for i := range seq {
		seq[i] = fingerprint.Encoded(rng.Intn(alphabet))
	}
	return seq
}

// mutate returns a copy with the given number of point mutations.
func mutate(rng *rand.Rand, seq []fingerprint.Encoded, edits, alphabet int) []fingerprint.Encoded {
	out := append([]fingerprint.Encoded(nil), seq...)
	for i := 0; i < edits; i++ {
		out[rng.Intn(len(out))] = fingerprint.Encoded(rng.Intn(alphabet))
	}
	return out
}

func TestQueryFindsNearClone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := fingerprint.DefaultConfig()
	ix := NewIndex(DefaultParams())

	base := randSeq(rng, 120, 64)
	clone := mutate(rng, base, 4, 64)
	sigs := []fingerprint.MinHash{cfg.New(base), cfg.New(clone)}
	// Plus unrelated noise functions.
	for i := 0; i < 50; i++ {
		sigs = append(sigs, cfg.New(randSeq(rng, 100+rng.Intn(60), 64)))
	}
	for i, s := range sigs {
		ix.Insert(i, s)
	}

	best, ok := ix.Best(0, sigs[0], 0.0)
	if !ok {
		t.Fatal("no candidate found for near-clone")
	}
	if best.ID != 1 {
		t.Errorf("best candidate = %d (sim %.2f), want 1", best.ID, best.Similarity)
	}
	if best.Similarity < 0.5 {
		t.Errorf("near-clone similarity %.2f too low", best.Similarity)
	}
}

func TestQueryExcludesSelfAndRespectsThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := fingerprint.DefaultConfig()
	ix := NewIndex(DefaultParams())
	var sigs []fingerprint.MinHash
	for i := 0; i < 20; i++ {
		sigs = append(sigs, cfg.New(randSeq(rng, 80, 16)))
	}
	for i, s := range sigs {
		ix.Insert(i, s)
	}
	for i, s := range sigs {
		for _, c := range ix.Query(i, s, 0.3) {
			if c.ID == i {
				t.Fatal("query returned the queried id")
			}
			if c.Similarity < 0.3 {
				t.Fatalf("candidate below threshold: %v", c.Similarity)
			}
		}
	}
}

func TestRemove(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := fingerprint.DefaultConfig()
	ix := NewIndex(DefaultParams())
	base := randSeq(rng, 100, 32)
	a := cfg.New(base)
	b := cfg.New(mutate(rng, base, 2, 32))
	ix.Insert(0, a)
	ix.Insert(1, b)
	if _, ok := ix.Best(0, a, 0.0); !ok {
		t.Fatal("expected candidate before removal")
	}
	ix.Remove(1, b)
	if c, ok := ix.Best(0, a, 0.0); ok {
		t.Fatalf("candidate %d survived removal", c.ID)
	}
}

func TestBucketCapLimitsComparisons(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := fingerprint.DefaultConfig()

	// All-identical fingerprints land in the same buckets, creating the
	// pathological overpopulated-bucket case from Sec. III-C.
	seq := randSeq(rng, 50, 8)
	sig := cfg.New(seq)

	capped := NewIndex(Params{Rows: 2, Bands: 2, BucketCap: 10})
	uncapped := NewIndex(Params{Rows: 2, Bands: 2, BucketCap: -1})
	const n = 200
	for i := 0; i < n; i++ {
		capped.Insert(i, sig)
		uncapped.Insert(i, sig)
	}
	capped.Query(0, sig, 0.0)
	uncapped.Query(0, sig, 0.0)

	cs, us := capped.Stats(), uncapped.Stats()
	if cs.Comparisons >= us.Comparisons {
		t.Errorf("cap did not reduce comparisons: %d vs %d", cs.Comparisons, us.Comparisons)
	}
	if cs.CapSkips == 0 {
		t.Error("expected cap skips on overpopulated bucket")
	}
	// Even capped, identical items are still found via the first bucket.
	if got := capped.Query(0, sig, 0.9); len(got) == 0 {
		t.Error("cap prevented finding identical fingerprints")
	}
}

func TestMatchProbability(t *testing.T) {
	p := DefaultParams() // r=2, b=100
	if got := p.MatchProbability(0); got != 0 {
		t.Errorf("P(0) = %v", got)
	}
	if got := p.MatchProbability(1); math.Abs(got-1) > 1e-12 {
		t.Errorf("P(1) = %v", got)
	}
	// Equation 2 at s=0.3: 1-(1-0.09)^100 ≈ 0.99992.
	if got := p.MatchProbability(0.3); math.Abs(got-0.99992) > 1e-4 {
		t.Errorf("P(0.3) = %v", got)
	}
	// Monotonic in s.
	prev := -1.0
	for s := 0.0; s <= 1.0; s += 0.05 {
		cur := p.MatchProbability(s)
		if cur < prev {
			t.Fatalf("MatchProbability not monotonic at %v", s)
		}
		prev = cur
	}
}

// TestCollisionRateMatchesEquation2 validates the implementation
// empirically: generate pairs with known MinHash similarity and check
// the bucket-collision rate tracks 1-(1-s^r)^b.
func TestCollisionRateMatchesEquation2(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := &fingerprint.Config{K: 200, ShingleSize: 2, Seed: 11}
	params := Params{Rows: 2, Bands: 25} // fewer bands so the curve has slack
	const pairs = 300

	var lowSimCollide, lowSimTotal, highSimCollide, highSimTotal int
	for i := 0; i < pairs; i++ {
		base := randSeq(rng, 150, 48)
		far := mutate(rng, base, 120, 48) // heavily mutated
		near := mutate(rng, base, 10, 48) // lightly mutated
		sb, sf, sn := cfg.New(base), cfg.New(far), cfg.New(near)

		ix := NewIndex(params)
		ix.Insert(0, sb)
		ix.Insert(1, sf)
		ix.Insert(2, sn)

		if sb.Jaccard(sf) < 0.2 {
			lowSimTotal++
			if hasCandidate(ix.Query(0, sb, 0), 1) {
				lowSimCollide++
			}
		}
		if sb.Jaccard(sn) > 0.6 {
			highSimTotal++
			if hasCandidate(ix.Query(0, sb, 0), 2) {
				highSimCollide++
			}
		}
	}
	if highSimTotal > 20 {
		rate := float64(highSimCollide) / float64(highSimTotal)
		if rate < 0.95 {
			t.Errorf("high-similarity collision rate %.2f, want >= 0.95", rate)
		}
	}
	if lowSimTotal > 20 {
		rate := float64(lowSimCollide) / float64(lowSimTotal)
		// At s<0.2, Eq. 2 gives P < 1-(1-0.04)^25 ≈ 0.64; most trials
		// are far below s=0.2 so the empirical rate should be modest.
		if rate > 0.8 {
			t.Errorf("low-similarity collision rate %.2f unexpectedly high", rate)
		}
	}
}

func hasCandidate(cands []Candidate, id int) bool {
	for _, c := range cands {
		if c.ID == id {
			return true
		}
	}
	return false
}

func TestAdaptiveThreshold(t *testing.T) {
	cases := []struct {
		funcs int
		want  float64
	}{
		{0, 0.05},
		{100, 0.05},
		{1837, 0.05},    // 400.perlbench
		{3000, 0.05},    // below 10^3.5 ≈ 3162
		{10000, 0.1},    // (4-3)/10
		{45000, 0.3653}, // Linux: (log10(45000)-3)/10
		{100000, 0.2},
		{1200000, 0.3079}, // Chrome ≈ 0.31 (paper: "raising the similarity threshold to 0.31")
		{20000000, 0.4},
	}
	for _, tc := range cases {
		got := AdaptiveThreshold(tc.funcs)
		want := tc.want
		if tc.funcs == 45000 {
			want = (math.Log10(45000) - 3) / 10
		}
		if tc.funcs == 100000 {
			want = 0.2
		}
		if math.Abs(got-want) > 5e-3 {
			t.Errorf("AdaptiveThreshold(%d) = %.4f, want %.4f", tc.funcs, got, want)
		}
	}
	// Continuity at the knees.
	lo := AdaptiveThreshold(3161)
	hi := AdaptiveThreshold(3163)
	if math.Abs(lo-hi) > 0.01 {
		t.Errorf("threshold discontinuous at 10^3.5: %v vs %v", lo, hi)
	}
}

func TestAdaptiveBands(t *testing.T) {
	// Paper's quoted values: ~100 small, 57 @ 10k, 25 @ 100k, 14 @ 1m,
	// 13 for Chrome (1.2m).
	cases := []struct {
		funcs int
		want  int
	}{
		{100, 100},
		{4999, 100},
		{10000, 57},
		{100000, 25},
		{1000000, 14},
		{1200000, 13},
	}
	for _, tc := range cases {
		tt := AdaptiveThreshold(tc.funcs)
		if got := AdaptiveBands(tt, tc.funcs); got != tc.want {
			t.Errorf("AdaptiveBands(%d funcs, t=%.3f) = %d, want %d", tc.funcs, tt, got, tc.want)
		}
	}
}

func TestAdaptiveParams(t *testing.T) {
	tt, p, k := AdaptiveParams(1200000)
	if p.Rows != 2 {
		t.Errorf("rows = %d, want 2", p.Rows)
	}
	if k != 2*p.Bands {
		t.Errorf("k = %d, want %d", k, 2*p.Bands)
	}
	if tt < 0.30 || tt > 0.32 {
		t.Errorf("chrome threshold = %v, want ≈0.31", tt)
	}
}

func TestQueryProperties(t *testing.T) {
	cfg := &fingerprint.Config{K: 40, ShingleSize: 2, Seed: 21}
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ix := NewIndex(Params{Rows: 2, Bands: 20})
		count := int(n%20) + 2
		sigs := make([]fingerprint.MinHash, count)
		for i := range sigs {
			sigs[i] = cfg.New(randSeq(rng, 30+rng.Intn(40), 12))
			ix.Insert(i, sigs[i])
		}
		// Results sorted by similarity, no duplicates, no self.
		for i, s := range sigs {
			cands := ix.Query(i, s, 0)
			seen := map[int]bool{}
			last := 2.0
			for _, c := range cands {
				if c.ID == i || seen[c.ID] || c.Similarity > last {
					return false
				}
				seen[c.ID] = true
				last = c.Similarity
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestBestWhereAgreesWithQuery: the sort-free scan must return exactly
// the head of the sorted Query result under the same filter — the same
// id too, so ties at equal similarity (perfect matches included) go to
// the lowest id. The crowded corpus draws 400 mutants of one sequence
// over a small alphabet into capped buckets, so dedup, cap skips and
// rejected candidates all interleave; its final stats are pinned to
// what the earlier three-pass query (candidate list, then Jaccard
// scores, then fold) accumulated on the same calls. The low-byte-twin
// and tie-heavy corpora stress the sketch bound where it is loosest and
// where the tie rule decides.
func TestBestWhereAgreesWithQuery(t *testing.T) {
	type corpus struct {
		name    string
		params  Params
		sigs    []fingerprint.MinHash
		minSim  float64
		accepts []func(int) bool
		stats   *IndexStats // final stats to pin, if any
	}
	var corpora []corpus
	{
		rng := rand.New(rand.NewSource(12))
		cfg := &fingerprint.Config{K: 60, ShingleSize: 2, Seed: 4}
		var sigs []fingerprint.MinHash
		for i := 0; i < 60; i++ {
			sigs = append(sigs, cfg.New(randSeq(rng, 40+rng.Intn(40), 10)))
		}
		reject := map[int]bool{3: true, 7: true, 20: true}
		corpora = append(corpora, corpus{
			name: "sparse", params: Params{Rows: 2, Bands: 30}, sigs: sigs, minSim: 0.1,
			accepts: []func(int) bool{func(id int) bool { return !reject[id] }},
		})
	}
	{
		rng := rand.New(rand.NewSource(23))
		cfg := fingerprint.DefaultConfig()
		sigs := make([]fingerprint.MinHash, 400)
		base := randSeq(rng, 40, 12) // small alphabet: crowded buckets
		for i := range sigs {
			sigs[i] = cfg.New(mutate(rng, base, rng.Intn(20), 12))
		}
		corpora = append(corpora, corpus{
			name: "crowded", params: Params{Rows: 2, Bands: 100, BucketCap: 10}, sigs: sigs, minSim: 0.3,
			accepts: []func(int) bool{nil, func(id int) bool { return id%5 != 0 }},
			stats: &IndexStats{Inserted: 400, BucketsUsed: 6225, MaxBucketLoad: 309,
				Comparisons: 276512, CapSkips: 1493532, CandidatesFound: 800},
		})
	}

	{
		// Low-byte twins: each lane either equals the family's base lane
		// or only shares its low byte, so the sketch bound is K for
		// every pair and never skips on the threshold.
		rng := rand.New(rand.NewSource(34))
		cfg := fingerprint.DefaultConfig()
		var sigs []fingerprint.MinHash
		for fam := 0; fam < 6; fam++ {
			base := cfg.New(randSeq(rng, 60, 40))
			for v := 0; v < 25; v++ {
				keep := rng.Float64()
				twin := lowByteTwin(rng, base)
				for l := range twin {
					if rng.Float64() < keep {
						twin[l] = base[l]
					}
				}
				sigs = append(sigs, twin)
			}
		}
		corpora = append(corpora, corpus{
			name: "low-byte-twins", params: Params{Rows: 2, Bands: 100, BucketCap: 20}, sigs: sigs, minSim: 0.2,
			accepts: []func(int) bool{nil, func(id int) bool { return id%3 != 1 }},
		})
	}
	{
		// Tie-heavy, K=60 (4 pad bytes per sketch row): lanes take six
		// values over three low bytes, so counts tie constantly and the
		// lowest-id rule decides most answers.
		rng := rand.New(rand.NewSource(45))
		sigs := make([]fingerprint.MinHash, 150)
		for i := range sigs {
			sigs[i] = make(fingerprint.MinHash, 60)
			for l := range sigs[i] {
				sigs[i][l] = uint32(rng.Intn(3)) | uint32(rng.Intn(2))<<8
			}
		}
		corpora = append(corpora, corpus{
			name: "ties-k60", params: Params{Rows: 2, Bands: 30, BucketCap: 12}, sigs: sigs, minSim: 0.3,
			accepts: []func(int) bool{nil, func(id int) bool { return id%4 != 0 }},
		})
	}

	for _, c := range corpora {
		// Query accumulates its own stats, so it runs on a twin index.
		ix, ref := NewIndex(c.params), NewIndex(c.params)
		ix.BatchInsert(0, c.sigs)
		ref.BatchInsert(0, c.sigs)
		for i, s := range c.sigs {
			for _, accept := range c.accepts {
				want, wantOK := lshBestFromQuery(ref, i, s, c.minSim, accept)
				got, gotOK := ix.BestWhere(i, s, c.minSim, accept)
				if wantOK != gotOK || got != want {
					t.Fatalf("%s id %d: BestWhere=%+v,%v Query-head=%+v,%v", c.name, i, got, gotOK, want, wantOK)
				}
			}
		}
		if c.stats != nil && ix.Stats() != *c.stats {
			t.Errorf("%s: stats %+v, want %+v", c.name, ix.Stats(), *c.stats)
		}
	}
}

func lshBestFromQuery(ix *Index, id int, mh fingerprint.MinHash, minSim float64, accept func(int) bool) (Candidate, bool) {
	for _, c := range ix.Query(id, mh, minSim) {
		if accept == nil || accept(c.ID) {
			return c, true
		}
	}
	return Candidate{}, false
}

func TestBucketLoadHistogram(t *testing.T) {
	cfg := fingerprint.DefaultConfig()
	rng := rand.New(rand.NewSource(9))
	ix := NewIndex(DefaultParams())
	seq := randSeq(rng, 60, 8)
	sig := cfg.New(seq)
	for i := 0; i < 10; i++ {
		ix.Insert(i, sig)
	}
	loads := ix.BucketLoadHistogram()
	if len(loads) == 0 || loads[0] != 10 {
		t.Errorf("histogram head = %v, want bucket of 10", loads[:min(3, len(loads))])
	}
	for i := 1; i < len(loads); i++ {
		if loads[i] > loads[i-1] {
			t.Fatal("histogram not sorted descending")
		}
	}
}
