// Package lsh implements the Locality Sensitive Hashing index F3M uses
// to find merge candidates in just-above-linear time, plus the adaptive
// policy (Section III-D of the paper) that chooses the similarity
// threshold and band count from the program's function count.
//
// A MinHash fingerprint of k lanes is split into b non-overlapping
// bands of r rows (k = b*r). Each band is hashed into a bucket map;
// functions sharing at least one bucket are candidate pairs. The
// probability that two functions with MinHash similarity s share a
// bucket is 1-(1-s^r)^b (Equation 2), an S-curve that filters out
// dissimilar pairs without ever comparing them.
//
// An Index is single-writer: Insert and Remove must not run
// concurrently with anything else, while PeekCandidates is read-only
// and safe for any number of concurrent callers between mutations.
// The serving layer's similarity store builds on that split: it places
// one Index behind an RWMutex and answers queries through
// PeekCandidates under the read lock (internal/serve).
package lsh

import (
	"math"
	"math/bits"
	"sort"

	"f3m/internal/fingerprint"
)

// Params fixes the banding geometry and search limits.
type Params struct {
	// Rows per band (r). The adaptive policy always uses 2.
	Rows int

	// Bands (b). Fingerprint size k must be >= Rows*Bands; extra lanes
	// are ignored.
	Bands int

	// BucketCap limits fingerprint comparisons drawn from one bucket
	// (Section III-C). Overpopulated buckets come from ubiquitous
	// instruction shingles; capping them bounds the quadratic blowup
	// while highly similar pairs still meet in other buckets. Zero
	// means DefaultBucketCap; negative means unlimited.
	BucketCap int
}

// DefaultBucketCap is the paper's per-bucket comparison cap.
const DefaultBucketCap = 100

// DefaultParams returns the paper's static configuration: r=2, b=100
// (with k=200).
func DefaultParams() Params {
	return Params{Rows: 2, Bands: 100, BucketCap: DefaultBucketCap}
}

func (p Params) bucketCap() int {
	switch {
	case p.BucketCap == 0:
		return DefaultBucketCap
	case p.BucketCap < 0:
		return math.MaxInt
	default:
		return p.BucketCap
	}
}

// MatchProbability evaluates Equation 2: the chance that two items with
// MinHash similarity s collide in at least one band.
func (p Params) MatchProbability(s float64) float64 {
	return 1 - math.Pow(1-math.Pow(s, float64(p.Rows)), float64(p.Bands))
}

// Index is the bucket structure. Apart from PeekCandidates, its
// methods are not safe for concurrent use.
type Index struct {
	params Params

	// buckets[band][bandHash] lists ids inserted with that band value.
	buckets []map[uint32][]int32

	// sigsDense keeps the inserted fingerprints for candidate scoring,
	// indexed by id for the dense ids the pipeline uses; out-of-range
	// ids fall back to sigsSparse. A nil entry means "not inserted".
	// Candidate ranking reads a fingerprint for every candidate it fully
	// scans, so the dense path avoids a map probe in the hottest loop of
	// the search.
	sigsDense  []fingerprint.MinHash
	sigsSparse map[int32]fingerprint.MinHash

	// sketches holds a b-bit minwise sketch (Li and König, 2010) with
	// 8 bits per lane for every dense id: the low byte of each lane,
	// 8 lanes per word, so id's row is
	// sketches[id*stride:(id+1)*stride] with stride = ceil(k/8). k is
	// the length of the first non-empty fingerprint inserted. Equal
	// lanes have equal low bytes, so counting equal bytes bounds
	// Matches from above while reading an eighth of the memory;
	// BestWhere uses the bound to skip the full lane scan of candidates
	// that cannot win. A fingerprint of another length gets a zero row:
	// it shares no lanes with a k-lane query, so any bound holds for it.
	// Once k is known, len(sketches) == len(sigsDense)*stride.
	sketches  []uint64
	k, stride int

	// fullScans counts the candidates BestWhere scored by the full lane
	// scan because the sketch bound could not rule them out. It stays
	// out of IndexStats so that reports do not depend on the filter.
	fullScans int64

	// stamp/gen implement allocation-free per-query dedup for ids in
	// [0, len(stamp)); negative ids fall back to the sparseStamp map.
	stamp       []uint32
	sparseStamp map[int32]uint32
	gen         uint32

	// hashScratch is the reusable band-hash buffer of the sequential
	// entry points (Insert, Remove, BestWhere). PeekCandidates is
	// documented safe to run concurrently with itself, so it must not
	// touch this and hashes into a per-call buffer instead.
	hashScratch []uint32

	// querySketch is BestWhere's scratch row for the query's sketch.
	querySketch []uint64

	// Stats accumulated since construction.
	stats IndexStats
}

// IndexStats reports search-behaviour counters used by the Fig. 16
// bucket-cap experiment.
type IndexStats struct {
	Inserted        int
	BucketsUsed     int
	MaxBucketLoad   int
	Comparisons     int64 // candidates scored, by sketch bound or lane scan
	CapSkips        int64 // candidates skipped due to the bucket cap
	CandidatesFound int64
}

// NewIndex returns an empty index with the given parameters.
func NewIndex(params Params) *Index {
	if params.Rows <= 0 || params.Bands <= 0 {
		panic("lsh: non-positive banding parameters")
	}
	buckets := make([]map[uint32][]int32, params.Bands)
	for i := range buckets {
		buckets[i] = make(map[uint32][]int32)
	}
	return &Index{
		params:     params,
		buckets:    buckets,
		sigsSparse: make(map[int32]fingerprint.MinHash),
	}
}

// Params returns the index parameters.
func (ix *Index) Params() Params { return ix.params }

// bandHashes slices the fingerprint into bands and hashes each, using
// the index's scratch buffer. Only the single-threaded entry points may
// call it; concurrent paths use bandHashesInto with their own buffer.
func (ix *Index) bandHashes(mh fingerprint.MinHash) []uint32 {
	ix.hashScratch = ix.bandHashesInto(mh, ix.hashScratch)
	return ix.hashScratch
}

// bandHashesInto hashes each band of mh into out (grown as needed) and
// returns it. Bands are hashed directly over the fingerprint slice, so
// the call allocates only when out is too small.
func (ix *Index) bandHashesInto(mh fingerprint.MinHash, out []uint32) []uint32 {
	r, b := ix.params.Rows, ix.params.Bands
	if len(mh) < r*b {
		b = len(mh) / r
	}
	if cap(out) < b {
		out = make([]uint32, b)
	}
	out = out[:b]
	for i := 0; i < b; i++ {
		out[i] = fingerprint.Hash32(mh[i*r : (i+1)*r])
	}
	return out
}

// sig returns the fingerprint inserted under id (nil if absent).
func (ix *Index) sig(id int32) fingerprint.MinHash {
	if int(id) < len(ix.sigsDense) && id >= 0 {
		return ix.sigsDense[id]
	}
	return ix.sigsSparse[id]
}

// setSig records mh under id, growing the dense table and its sketch
// rows for non-negative ids and falling back to the sparse map
// otherwise.
func (ix *Index) setSig(id int32, mh fingerprint.MinHash) {
	ix.fixStride(mh)
	if id < 0 {
		ix.sigsSparse[id] = mh
		return
	}
	for int(id) >= len(ix.sigsDense) {
		ix.sigsDense = append(ix.sigsDense, nil)
	}
	ix.sigsDense[id] = mh
	if ix.stride == 0 {
		return
	}
	if n := len(ix.sigsDense) * ix.stride; n > len(ix.sketches) {
		ix.sketches = append(ix.sketches, make([]uint64, n-len(ix.sketches))...)
	}
	row := ix.sketches[int(id)*ix.stride : (int(id)+1)*ix.stride]
	if len(mh) == ix.k {
		packSketch(row, mh)
	} else {
		clear(row)
	}
}

// fixStride takes k and the sketch stride from mh if it is the first
// non-empty fingerprint, giving the dense ids inserted before it zero
// rows.
func (ix *Index) fixStride(mh fingerprint.MinHash) {
	if ix.stride == 0 && len(mh) > 0 {
		ix.k, ix.stride = len(mh), (len(mh)+7)/8
		ix.sketches = make([]uint64, len(ix.sigsDense)*ix.stride)
		ix.querySketch = make([]uint64, ix.stride)
	}
}

// packSketch writes the low byte of each lane of mh into row, 8 lanes
// per word, lane i in byte i%8 of word i/8. Pad bytes past the last
// lane are zero.
func packSketch(row []uint64, mh fingerprint.MinHash) {
	for w := range row {
		var x uint64
		for j, v := range mh[w*8 : min(w*8+8, len(mh))] {
			x |= uint64(uint8(v)) << (8 * j)
		}
		row[w] = x
	}
}

// sketchBound returns an upper bound on the matching lanes of two
// k-lane fingerprints from their sketch rows q and r. Each word counts
// its equal bytes with a SWAR zero-byte test on q^r: a byte of
// ((x&0x7f..)+0x7f..)|x has its high bit set exactly when the byte of x
// is non-zero. Equal 32-bit lanes have equal low bytes, so the count of
// equal bytes, less the pad bytes (always equal), is at least Matches.
func sketchBound(q, r []uint64, k int) int {
	const lo7, hi = 0x7f7f7f7f7f7f7f7f, 0x8080808080808080
	r = r[:len(q)]
	differ := 0
	for i, a := range q {
		x := a ^ r[i]
		differ += bits.OnesCount64((((x & lo7) + lo7) | x) & hi)
	}
	// Equal bytes are 8*len(q)-differ, of which 8*len(q)-k are padding.
	return k - differ
}

// Insert registers fingerprint mh under id.
func (ix *Index) Insert(id int, mh fingerprint.MinHash) {
	ix.setSig(int32(id), mh)
	for band, h := range ix.bandHashes(mh) {
		lst := ix.buckets[band][h]
		if len(lst) == 0 {
			ix.stats.BucketsUsed++
		}
		lst = append(lst, int32(id))
		ix.buckets[band][h] = lst
		if len(lst) > ix.stats.MaxBucketLoad {
			ix.stats.MaxBucketLoad = len(lst)
		}
	}
	ix.stats.Inserted++
}

// BatchInsert inserts sigs[i] under id base+i for every i. The
// resulting index — bucket contents, the order of ids within each
// bucket, and the stats counters — is identical to calling Insert in
// ascending id order; only the allocation pattern differs. Each band is
// filled in two passes: count the batch's load per bucket, then carve
// exact-capacity bucket lists out of one flat array instead of growing
// thousands of small slices through append doubling. Lists are carved
// with cap == final length, so a later Insert that appends to one
// copies out rather than clobbering a neighbour.
func (ix *Index) BatchInsert(base int, sigs []fingerprint.MinHash) {
	if len(sigs) == 0 {
		return
	}
	if n := base + len(sigs); base >= 0 && n > len(ix.sigsDense) {
		if cap(ix.sigsDense) < n {
			grown := make([]fingerprint.MinHash, len(ix.sigsDense), n)
			copy(grown, ix.sigsDense)
			ix.sigsDense = grown
		}
		// The batch's sketch rows, carved in one exact-size block.
		for i := 0; i < len(sigs) && ix.stride == 0; i++ {
			ix.fixStride(sigs[i])
		}
		if ix.stride > 0 && cap(ix.sketches) < n*ix.stride {
			grown := make([]uint64, len(ix.sketches), n*ix.stride)
			copy(grown, ix.sketches)
			ix.sketches = grown
		}
	}

	// Band hashes, all carved from one flat backing array.
	hashes := make([][]uint32, len(sigs))
	nb := ix.params.Bands
	flatH := make([]uint32, len(sigs)*nb)
	for i, mh := range sigs {
		hashes[i] = ix.bandHashesInto(mh, flatH[i*nb:i*nb:(i+1)*nb])
	}

	cnt := make(map[uint32]int32, len(sigs))
	for band := range ix.buckets {
		clear(cnt)
		total := int32(0)
		for _, hs := range hashes {
			if band >= len(hs) {
				continue // short fingerprint: fewer bands
			}
			cnt[hs[band]]++
			total++
		}
		if total == 0 {
			continue
		}
		bm := ix.buckets[band]
		if len(bm) == 0 {
			bm = make(map[uint32][]int32, len(cnt))
			ix.buckets[band] = bm
		}
		flat := make([]int32, total)
		off := int32(0)
		for i, hs := range hashes {
			if band >= len(hs) {
				continue
			}
			h := hs[band]
			lst, ok := bm[h]
			if !ok {
				c := cnt[h]
				lst = flat[off : off : off+c]
				off += c
				ix.stats.BucketsUsed++
			}
			lst = append(lst, int32(base+i))
			bm[h] = lst
			if len(lst) > ix.stats.MaxBucketLoad {
				ix.stats.MaxBucketLoad = len(lst)
			}
		}
	}

	for i, mh := range sigs {
		ix.setSig(int32(base+i), mh)
	}
	ix.stats.Inserted += len(sigs)
}

// Remove deletes id from the index so already-merged functions stop
// surfacing as candidates. Buckets emptied by the removal are deleted
// from the band maps (large-module runs would otherwise accumulate
// empty slices forever) and BucketsUsed is reconciled.
func (ix *Index) Remove(id int, mh fingerprint.MinHash) {
	if id >= 0 && id < len(ix.sigsDense) {
		ix.sigsDense[id] = nil
	} else {
		delete(ix.sigsSparse, int32(id))
	}
	for band, h := range ix.bandHashes(mh) {
		lst := ix.buckets[band][h]
		for i, v := range lst {
			if v == int32(id) {
				lst = append(lst[:i], lst[i+1:]...)
				if len(lst) == 0 {
					delete(ix.buckets[band], h)
					ix.stats.BucketsUsed--
				} else {
					ix.buckets[band][h] = lst
				}
				break
			}
		}
	}
}

// Candidate is a scored match returned by Query.
type Candidate struct {
	ID         int
	Similarity float64
}

// Query returns candidates sharing at least one bucket with mh whose
// MinHash similarity is at least minSim, best first. The id given is
// excluded. Per bucket, at most BucketCap candidates are considered.
func (ix *Index) Query(id int, mh fingerprint.MinHash, minSim float64) []Candidate {
	cap_ := ix.params.bucketCap()
	ix.beginQuery(id)
	var out []Candidate
	// Per-call buffer: PeekCandidates runs concurrently with itself and
	// with sequential queries, so the index scratch is off-limits.
	for band, h := range ix.bandHashesInto(mh, nil) {
		lst := ix.buckets[band][h]
		checked := 0
		for ci, cand := range lst {
			if ix.seen(cand) {
				continue
			}
			if checked >= cap_ {
				ix.stats.CapSkips += ix.cappedSkips(lst[ci:])
				break
			}
			checked++
			ix.mark(cand)
			sig := ix.sig(cand)
			ix.stats.Comparisons++
			s := mh.Jaccard(sig)
			if s >= minSim {
				out = append(out, Candidate{ID: int(cand), Similarity: s})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Similarity != out[j].Similarity {
			return out[i].Similarity > out[j].Similarity
		}
		return out[i].ID < out[j].ID
	})
	ix.stats.CandidatesFound += int64(len(out))
	return out
}

// PeekCandidates is a read-only variant of Query for concurrent
// lookups: it returns up to k accepted candidates (best first, k <= 0
// meaning unlimited) without touching the index's stats counters or
// the per-query dedup stamps — deduplication uses a local set instead.
// Because it mutates nothing, any number of PeekCandidates calls may
// run concurrently with each other and with the (externally
// serialized) authoritative Query/BestWhere calls, which write only
// the stats, stamp and scratch state that Peek never reads. Callers must still
// prevent concurrent Insert/Remove/BatchInsert — the serving store
// holds its shard's write lock across those.
//
// The candidate set matches what Query would see at the same index
// state; only the accounting differs, so read-only callers never
// perturb the counters the merging pass reports.
func (ix *Index) PeekCandidates(id int, mh fingerprint.MinHash, minSim float64, accept func(int) bool, k int) []Candidate {
	cap_ := ix.params.bucketCap()
	seen := make(map[int32]struct{}, 64)
	seen[int32(id)] = struct{}{}
	var out []Candidate
	// Per-call buffer: PeekCandidates runs concurrently with itself and
	// with sequential queries, so the index scratch is off-limits.
	for band, h := range ix.bandHashesInto(mh, nil) {
		lst := ix.buckets[band][h]
		checked := 0
		for _, cand := range lst {
			if _, dup := seen[cand]; dup {
				continue
			}
			if checked >= cap_ {
				break
			}
			checked++
			seen[cand] = struct{}{}
			if accept != nil && !accept(int(cand)) {
				continue
			}
			s := mh.Jaccard(ix.sig(cand))
			if s >= minSim {
				out = append(out, Candidate{ID: int(cand), Similarity: s})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Similarity != out[j].Similarity {
			return out[i].Similarity > out[j].Similarity
		}
		return out[i].ID < out[j].ID
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Best returns the single most similar candidate, or ok=false when no
// bucket-sharing candidate reaches minSim.
func (ix *Index) Best(id int, mh fingerprint.MinHash, minSim float64) (Candidate, bool) {
	return ix.BestWhere(id, mh, minSim, nil)
}

// BestWhere returns the most similar candidate accepted by the filter
// (nil accepts all). Unlike Query it neither materializes nor sorts the
// full scored candidate list, which is what makes per-function ranking
// cheap even when buckets are crowded. Candidates are walked in band
// order with Query's dedup and cap accounting; only accepted ones are
// scored (and counted in Comparisons), and the first best wins ties by
// the lowest id. There is no early exit on a perfect match: the
// accounting covers every candidate the caps admit.
//
// A candidate is scored by its sketch bound first (see sketches) and
// gets the full lane scan only if the bound leaves it a chance: the
// bound must reach the fewest matches that pass minSim and the best
// count so far, and on a tie with the best the candidate must have
// the lower id. The answer is the one a full scan of every candidate
// gives. Sparse ids, and queries whose length is not k, take the full
// scan.
func (ix *Index) BestWhere(id int, mh fingerprint.MinHash, minSim float64, accept func(int) bool) (Candidate, bool) {
	cap_ := ix.params.bucketCap()
	ix.beginQuery(id)
	minCount := minMatches(minSim, len(mh))
	var q []uint64 // the query's sketch; nil when it has none
	if ix.k > 0 && len(mh) == ix.k {
		q = ix.querySketch
		packSketch(q, mh)
	}
	bestID, bestCount := 0, -1
	for band, h := range ix.bandHashes(mh) {
		lst := ix.buckets[band][h]
		checked := 0
		for ci, cand := range lst {
			if ix.seen(cand) {
				continue
			}
			if checked >= cap_ {
				ix.stats.CapSkips += ix.cappedSkips(lst[ci:])
				break
			}
			checked++
			ix.mark(cand)
			if accept != nil && !accept(int(cand)) {
				continue
			}
			ix.stats.Comparisons++
			if q != nil && cand >= 0 {
				off := int(cand) * len(q)
				b := sketchBound(q, ix.sketches[off:off+len(q)], ix.k)
				if b < minCount || b < bestCount || (b == bestCount && int(cand) > bestID) {
					continue
				}
			}
			ix.fullScans++
			m := mh.Matches(ix.sig(cand))
			if m < minCount {
				continue
			}
			if m > bestCount || (m == bestCount && int(cand) < bestID) {
				bestID, bestCount = int(cand), m
			}
		}
	}
	if bestCount < 0 {
		return Candidate{}, false
	}
	ix.stats.CandidatesFound++
	return Candidate{ID: bestID, Similarity: fingerprint.Similarity(bestCount, len(mh))}, true
}

// minMatches returns the fewest matching lanes, out of n, whose
// similarity reaches minSim, or n+1 when no count does (minSim above 1,
// or NaN). It evaluates the expression Jaccard uses, so a count passes
// exactly when its Jaccard value does.
func minMatches(minSim float64, n int) int {
	c := 0
	for c <= n && !(fingerprint.Similarity(c, n) >= minSim) {
		c++
	}
	return c
}

// beginQuery resets the per-query dedup state and marks id itself.
func (ix *Index) beginQuery(id int) {
	ix.gen++
	if ix.gen == 0 { // wrapped: clear stamps
		clear(ix.stamp)
		clear(ix.sparseStamp)
		ix.gen = 1
	}
	ix.mark(int32(id))
}

func (ix *Index) seen(id int32) bool {
	// Lookups never grow the stamp slice: an id beyond it has not been
	// marked this query (only mark allocates).
	if id < 0 {
		return ix.sparseStamp[id] == ix.gen
	}
	if int(id) < len(ix.stamp) {
		return ix.stamp[id] == ix.gen
	}
	return false
}

// cappedSkips counts the candidates in rest that the bucket cap
// actually prevented from being checked. Ids already deduplicated by an
// earlier bucket of the same query were never going to be compared, so
// they do not count (naively charging len(rest) inflated the Fig. 16
// counters).
func (ix *Index) cappedSkips(rest []int32) int64 {
	n := int64(0)
	for _, cand := range rest {
		if !ix.seen(cand) {
			n++
		}
	}
	return n
}

func (ix *Index) mark(id int32) {
	if id < 0 {
		if ix.sparseStamp == nil {
			ix.sparseStamp = make(map[int32]uint32)
		}
		ix.sparseStamp[id] = ix.gen
		return
	}
	if int(id) >= len(ix.stamp) {
		ix.growStamp(int(id))
	}
	ix.stamp[id] = ix.gen
}

func (ix *Index) growStamp(id int) {
	n := len(ix.stamp)*2 + 16
	if n <= id {
		n = id + 1
	}
	grown := make([]uint32, n)
	copy(grown, ix.stamp)
	ix.stamp = grown
}

// Stats returns the accumulated counters.
func (ix *Index) Stats() IndexStats { return ix.stats }

// BucketLoadHistogram returns bucket populations sorted descending,
// feeding the Fig. 16 analysis of overpopulated buckets.
func (ix *Index) BucketLoadHistogram() []int {
	var loads []int
	for _, bm := range ix.buckets {
		for _, lst := range bm {
			loads = append(loads, len(lst))
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(loads)))
	return loads
}

// AdaptiveThreshold implements Equation 3: the similarity threshold as
// a function of the number of functions x in the program. Small
// programs keep a permissive 0.05; past 10^3.5 functions the threshold
// rises logarithmically, saturating at 0.4 for 10^7 and above.
func AdaptiveThreshold(numFuncs int) float64 {
	x := float64(numFuncs)
	switch {
	case x <= 0:
		return 0.05
	case x < math.Pow(10, 3.5):
		return 0.05
	case x > 1e7:
		return 0.4
	default:
		return (math.Log10(x) - 3.0) / 10
	}
}

// AdaptiveBands implements Equation 4: the smallest band count giving
// at least 90% discovery probability for pairs slightly above the
// threshold t, with r fixed at 2. Programs under 5000 functions use
// exactly 100 bands (the paper's static default).
func AdaptiveBands(t float64, numFuncs int) int {
	if numFuncs < 5000 {
		return 100
	}
	p := math.Pow(t+0.1, 2)
	b := int(math.Ceil(math.Log(0.1) / math.Log(1.0-p)))
	if b < 1 {
		b = 1
	}
	return b
}

// AdaptiveParams bundles Equations 3 and 4: threshold, bands, and the
// fingerprint size k = 2b implied by r=2.
func AdaptiveParams(numFuncs int) (t float64, params Params, k int) {
	t = AdaptiveThreshold(numFuncs)
	b := AdaptiveBands(t, numFuncs)
	params = Params{Rows: 2, Bands: b, BucketCap: DefaultBucketCap}
	return t, params, 2 * b
}
