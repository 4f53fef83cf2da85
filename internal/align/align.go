// Package align implements the sequence-alignment machinery that
// function merging by sequence alignment is built on: Needleman–Wunsch
// global alignment over encoded instruction sequences, and HyFM-style
// basic-block pairing that restricts alignment to pairs of similar
// blocks.
//
// The alignment quality metric (Ratio) is the y-axis of the paper's
// Figures 4 and 10: the fraction of instructions that land in matched
// alignment slots.
package align

import (
	"slices"
	"sync"
	"sync/atomic"

	"f3m/internal/fingerprint"
	"f3m/internal/ir"
)

// Entry is one column of an alignment: indices into the two sequences,
// with -1 marking a gap on that side.
type Entry struct {
	A, B int
}

// Matched reports whether the entry aligns an element from each side.
func (e Entry) Matched() bool { return e.A >= 0 && e.B >= 0 }

// Scores for Needleman–Wunsch. Matches are strongly rewarded,
// mismatch columns are never produced (a mismatch is represented as two
// gaps, matching how the merger emits guarded copies).
const (
	matchScore = 2
	gapScore   = -1
)

// Banded fast-path tuning. The band slack grows with the Hamming
// distance between the encoded sequences (the per-position fingerprint
// disagreement), since substitution-style edits keep the optimal path
// near the diagonal while insertions shift everything after them — the
// latter blow the Hamming count up and deterministically disqualify the
// band, so the full DP runs directly with no wasted banded attempt.
const (
	bandMinLen    = 24 // below this the full DP is already trivial
	bandBaseSlack = 4
)

// dpBuf is the reusable scratch state of one NeedlemanWunsch call: the
// flat DP matrix and the backward-filled traceback buffer. Pooling both
// removes the per-pair allocation spike the merge stage used to pay;
// internal callers that only need a ratio borrow the traceback view and
// allocate nothing at all.
type dpBuf struct {
	score []int32
	out   []Entry
}

var dpPool = sync.Pool{New: func() any { return new(dpBuf) }}

// grow readies the buffer for a DP of cells matrix cells and up to
// entries traceback columns.
func (buf *dpBuf) grow(cells, entries int) {
	if cap(buf.score) < cells {
		buf.score = make([]int32, cells)
	}
	buf.score = buf.score[:cells]
	if cap(buf.out) < entries {
		buf.out = make([]Entry, entries)
	}
	buf.out = buf.out[:entries]
}

// NeedlemanWunsch computes a global alignment of two encoded
// instruction sequences. Only identical encodings may occupy a matched
// column. The result covers every index of both inputs in order.
//
// The DP matrix and traceback scratch come from a pool shared by all
// goroutines; the returned slice is freshly allocated and safe to
// retain. High-similarity pairs take a
// banded fast path that provably reproduces the full DP's traceback
// (see nwBanded); the result is identical either way.
func NeedlemanWunsch(a, b []fingerprint.Encoded) []Entry {
	n, m := len(a), len(b)
	if n == 0 && m == 0 {
		return nil
	}
	buf := dpPool.Get().(*dpBuf)
	res := nwInto(buf, a, b)
	out := make([]Entry, len(res))
	copy(out, res)
	dpPool.Put(buf)
	return out
}

// bandedHits counts alignments served by the banded fast path; see
// BandedHits.
var bandedHits atomic.Uint64

// BandedHits reports the process-wide number of alignments the banded
// fast path served (monotonic, never reset). Integration tests compare
// it across a pipeline run to prove realistic corpora actually
// exercise the band rather than always falling back to the full DP.
func BandedHits() uint64 { return bandedHits.Load() }

// nwInto computes the alignment into buf and returns a view into
// buf.out, valid only until buf is reused. The banded path is tried
// first; it declines (deterministically, as a pure function of the
// inputs) whenever it cannot prove its answer equals the full DP's.
func nwInto(buf *dpBuf, a, b []fingerprint.Encoded) []Entry {
	if res, ok := nwBanded(buf, a, b); ok {
		bandedHits.Add(1)
		return res
	}
	return nwFull(buf, a, b)
}

// nwRatio computes the alignment ratio without retaining entries: the
// traceback stays in the pooled buffer, so the call allocates nothing.
func nwRatio(a, b []fingerprint.Encoded) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	buf := dpPool.Get().(*dpBuf)
	r := Ratio(nwInto(buf, a, b), len(a), len(b))
	dpPool.Put(buf)
	return r
}

// nwMatches counts matched columns without retaining entries.
func nwMatches(a, b []fingerprint.Encoded) int {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	buf := dpPool.Get().(*dpBuf)
	n := Matches(nwInto(buf, a, b))
	dpPool.Put(buf)
	return n
}

// nwFull is the exact O(n·m) DP with pooled scratch.
func nwFull(buf *dpBuf, a, b []fingerprint.Encoded) []Entry {
	n, m := len(a), len(b)
	w := m + 1
	buf.grow((n+1)*w, n+m)
	// score[i*w+j] = best score aligning a[:i] with b[:j]. Every cell
	// is written below, so the recycled buffer needs no clearing.
	score := buf.score
	score[0] = 0
	for i := 1; i <= n; i++ {
		score[i*w] = int32(i) * gapScore
	}
	for j := 1; j <= m; j++ {
		score[j] = int32(j) * gapScore
	}
	for i := 1; i <= n; i++ {
		row, prev := score[i*w:], score[(i-1)*w:]
		for j := 1; j <= m; j++ {
			best := prev[j] + gapScore
			if s := row[j-1] + gapScore; s > best {
				best = s
			}
			if a[i-1] == b[j-1] {
				if s := prev[j-1] + matchScore; s > best {
					best = s
				}
			}
			row[j] = best
		}
	}
	// Traceback, filled back-to-front into the pooled buffer, in the
	// exact tie-break order of the original row-sliced implementation:
	// diagonal match first, then up-gap, else left-gap.
	out := buf.out
	pos := len(out)
	i, j := n, m
	for i > 0 || j > 0 {
		pos--
		switch {
		case i > 0 && j > 0 && a[i-1] == b[j-1] && score[i*w+j] == score[(i-1)*w+j-1]+matchScore:
			out[pos] = Entry{A: i - 1, B: j - 1}
			i--
			j--
		case i > 0 && score[i*w+j] == score[(i-1)*w+j]+gapScore:
			out[pos] = Entry{A: i - 1, B: -1}
			i--
		default:
			out[pos] = Entry{A: -1, B: j - 1}
			j--
		}
	}
	return out[pos:]
}

// nwBanded runs the DP restricted to the diagonal band
// δ = j−i ∈ [lo, hi], with lo = min(0, m−n) − s and hi = max(0, m−n) + s
// for a slack s derived from the sequences' positional Hamming
// distance. It reports ok only when the result is provably identical —
// entries and tie-breaks, not just score — to the full DP's:
//
// Any alignment path that leaves the band must spend at least
// |m−n| + 2s + 2 gap columns, bounding its score by
// S_out = (n+m) − 2(|m−n| + 2s + 2). If the banded score strictly
// beats S_out, every full-DP-optimal path lies inside the band, and an
// induction along the traceback shows each banded cell value on such a
// path equals the full value and each tie-break test decides
// identically (an out-of-band neighbour can never be the equal-score
// branch the full traceback takes, because that would put an optimal
// path outside the band). When the margin fails — the banded optimum
// is pressed against the band edge — nwBanded declines and the caller
// falls back to the full DP.
func nwBanded(buf *dpBuf, a, b []fingerprint.Encoded) ([]Entry, bool) {
	n, m := len(a), len(b)
	if n < bandMinLen || m < bandMinLen {
		return nil, false
	}
	minNM, d := n, m-n
	if m < n {
		minNM = m
	}
	// Positional fingerprint (Hamming) distance over the common prefix,
	// with an early bail once the implied band stops being narrow.
	maxMis := minNM / 8
	mismatch := 0
	for i := 0; i < minNM; i++ {
		if a[i] != b[i] {
			if mismatch++; mismatch > maxMis {
				return nil, false
			}
		}
	}
	s := bandBaseSlack + 2*mismatch
	lo, hi := -s, s
	if d < 0 {
		lo = d - s
	} else {
		hi = d + s
	}
	w := hi - lo + 1 // band width
	if 2*w > m {
		return nil, false // band covers most of the matrix: no savings
	}
	const ninf = int32(-1) << 28
	buf.grow((n+1)*w, n+m)
	score := buf.score
	for i := 0; i <= n; i++ {
		jlo, jhi := i+lo, i+hi
		if jlo < 0 {
			jlo = 0
		}
		if jhi > m {
			jhi = m
		}
		row := score[i*w:]
		for j := jlo; j <= jhi; j++ {
			off := j - i - lo
			if i == 0 && j == 0 {
				row[off] = 0
				continue
			}
			best := ninf
			if i > 0 && off+1 < w { // up-gap: (i-1, j)
				best = score[(i-1)*w+off+1] + gapScore
			}
			if j > 0 && off > 0 { // left-gap: (i, j-1)
				if v := row[off-1] + gapScore; v > best {
					best = v
				}
			}
			if i > 0 && j > 0 && a[i-1] == b[j-1] { // diagonal match
				if v := score[(i-1)*w+off] + matchScore; v > best {
					best = v
				}
			}
			row[off] = best
		}
	}
	abs := d
	if abs < 0 {
		abs = -abs
	}
	bandScore := score[n*w+(m-n-lo)]
	if bandScore <= int32(n+m)-2*int32(abs+2*s+2) {
		return nil, false // a band-escaping path could tie or win
	}
	// Traceback, identical tie-break order to nwFull.
	out := buf.out
	pos := len(out)
	i, j := n, m
	for i > 0 || j > 0 {
		off := j - i - lo
		cur := score[i*w+off]
		pos--
		switch {
		case i > 0 && j > 0 && a[i-1] == b[j-1] && cur == score[(i-1)*w+off]+matchScore:
			out[pos] = Entry{A: i - 1, B: j - 1}
			i--
			j--
		case i > 0 && off+1 < w && cur == score[(i-1)*w+off+1]+gapScore:
			out[pos] = Entry{A: i - 1, B: -1}
			i--
		case j > 0 && off > 0 && cur == score[i*w+off-1]+gapScore:
			out[pos] = Entry{A: -1, B: j - 1}
			j--
		default:
			// Unreachable when the margin held; decline defensively.
			return nil, false
		}
	}
	return out[pos:], true
}

// Matches counts matched columns.
func Matches(entries []Entry) int {
	n := 0
	for _, e := range entries {
		if e.Matched() {
			n++
		}
	}
	return n
}

// Ratio is the alignment-quality metric of Figures 4 and 10: matched
// instructions (counted on both sides) over total instructions.
func Ratio(entries []Entry, lenA, lenB int) float64 {
	if lenA+lenB == 0 {
		return 1
	}
	return float64(2*Matches(entries)) / float64(lenA+lenB)
}

// FuncRatio aligns two whole functions and returns the alignment ratio;
// it is the ground-truth "how well would these merge" signal that the
// fingerprint similarity metrics are judged against.
func FuncRatio(f1, f2 *ir.Function) float64 {
	a := fingerprint.EncodeFunc(f1)
	b := fingerprint.EncodeFunc(f2)
	return nwRatio(a, b)
}

// BlockPair is a pairing of basic blocks across the two functions,
// scored by alignment ratio of the block bodies.
type BlockPair struct {
	A, B  *ir.Block
	Ratio float64
}

// matchCand is a candidate block pairing, ranked by fingerprint
// distance.
type matchCand struct {
	a, b int
	dist int
}

// matchScratch pools greedyMatch's per-call state — the pass
// runs once per merge attempt, so per-block fingerprint and flag
// storage is recycled rather than reallocated.
type matchScratch struct {
	fpA, fpB       []fingerprint.FreqVector
	cands          []matchCand
	encA, encB     [][]fingerprint.Encoded
	takenA, takenB []bool
}

var matchPool = sync.Pool{New: func() any { return new(matchScratch) }}

func (s *matchScratch) release() {
	// Encoded slices alias pooled encode storage; drop them so the pool
	// pins nothing between uses.
	for i := range s.encA {
		s.encA[i] = nil
	}
	for i := range s.encB {
		s.encB[i] = nil
	}
	matchPool.Put(s)
}

// growZero resizes *sp to n zeroed elements, reusing capacity.
func growZero[T any](sp *[]T, n int) []T {
	s := *sp
	if cap(s) < n {
		s = make([]T, n)
	} else {
		s = s[:n]
		var zero T
		for i := range s {
			s[i] = zero
		}
	}
	*sp = s
	return s
}

// MatchBlocks greedily pairs similar blocks of f1 and f2, HyFM-style:
// candidate pairs are ranked by block fingerprint distance, verified by
// block-level alignment, and accepted when the match ratio reaches
// minRatio. Unpaired blocks are returned separately. Per-block
// fingerprints and encodings are computed once up front, not once per
// candidate pair.
func MatchBlocks(f1, f2 *ir.Function, minRatio float64) (pairs []BlockPair, unA, unB []*ir.Block) {
	return greedyMatch(f1.Blocks, f2.Blocks, minRatio, nil)
}

// greedyMatch is the HyFM-style greedy pairing over two block slices:
// candidates ranked by frequency-fingerprint distance, verified by
// block alignment, accepted at minRatio. It appends to pairs (the
// CFG-aware matcher seeds it with the exact matches it already
// accepted) and returns the blocks of each side left unpaired, in
// slice order.
func greedyMatch(blocksA, blocksB []*ir.Block, minRatio float64, pairs []BlockPair) (outPairs []BlockPair, unA, unB []*ir.Block) {
	nA, nB := len(blocksA), len(blocksB)
	s := matchPool.Get().(*matchScratch)
	defer s.release()
	fpA := growZero(&s.fpA, nA)
	for i, b := range blocksA {
		fingerprint.FreqBlockInto(b, &fpA[i])
	}
	fpB := growZero(&s.fpB, nB)
	for i, b := range blocksB {
		fingerprint.FreqBlockInto(b, &fpB[i])
	}
	cands := s.cands[:0]
	for i := range blocksA {
		for j := range blocksB {
			cands = append(cands, matchCand{i, j, fpA[i].Distance(&fpB[j])})
		}
	}
	s.cands = cands
	slices.SortStableFunc(cands, func(a, b matchCand) int { return a.dist - b.dist })

	encA := growZero(&s.encA, nA)
	encB := growZero(&s.encB, nB)
	takenA := growZero(&s.takenA, nA)
	takenB := growZero(&s.takenB, nB)
	for _, c := range cands {
		if takenA[c.a] || takenB[c.b] {
			continue
		}
		if encA[c.a] == nil {
			encA[c.a] = fingerprint.EncodeBlock(blocksA[c.a])
		}
		if encB[c.b] == nil {
			encB[c.b] = fingerprint.EncodeBlock(blocksB[c.b])
		}
		r := nwRatio(encA[c.a], encB[c.b])
		if r < minRatio {
			continue
		}
		takenA[c.a], takenB[c.b] = true, true
		pairs = append(pairs, BlockPair{A: blocksA[c.a], B: blocksB[c.b], Ratio: r})
	}
	for i, b := range blocksA {
		if !takenA[i] {
			unA = append(unA, b)
		}
	}
	for i, b := range blocksB {
		if !takenB[i] {
			unB = append(unB, b)
		}
	}
	return pairs, unA, unB
}

// MergeRatio is the block-level alignment-quality metric the paper's
// Figures 4 and 10 plot: pair the functions' blocks HyFM-style, then
// count instructions landing in matched alignment columns of accepted
// block pairs, over all instructions of both functions. Unrelated
// functions, whose blocks fail to pair, score near zero even when a
// whole-function alignment would find coincidental matches.
func MergeRatio(f1, f2 *ir.Function, minRatio float64) float64 {
	pairs, _, _ := MatchBlocks(f1, f2, minRatio)
	matched := 0
	for _, p := range pairs {
		matched += nwMatches(fingerprint.EncodeBlock(p.A), fingerprint.EncodeBlock(p.B))
	}
	total := f1.NumInstrs() + f2.NumInstrs()
	if total == 0 {
		return 1
	}
	return float64(2*matched) / float64(total)
}
