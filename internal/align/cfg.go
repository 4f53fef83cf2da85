package align

import (
	"f3m/internal/fingerprint"
	"f3m/internal/ir"
)

// Cache is an empty compile shim: the alignment cache it named was
// deleted, and NewCache and MatchBlocksCFG's *Cache parameter stay only
// because the perfbench module still calls them.
type Cache struct{}

// NewCache returns an empty Cache; its argument is ignored.
func NewCache(int) *Cache { return &Cache{} }

// MatchBlocksCFG pairs the blocks of f1 and f2 CFG-aware: both
// functions are canonicalized into dominator-tree order (see
// Canonicalize), the two canonical block-fingerprint sequences are
// aligned with the same Needleman–Wunsch machinery the instruction
// level uses, and each exactly-matched column is verified by a
// block-body alignment reaching minRatio. Blocks the canonical pass
// leaves unmatched — mutated bodies whose fingerprints differ — fall
// back to the greedy fingerprint-distance matcher of MatchBlocks, so
// the result is never weaker than running the greedy matcher alone on
// those blocks. The (pairs, unA, unB) artifact is exactly what
// MatchBlocks produces and feeds the same merged-code generator.
//
// moves counts accepted pairs whose two blocks sit at different layout
// indices in their functions — the reorder the sequence-order pipeline
// would have mis-aligned; it feeds the align.cfg.block_moves histogram.
//
// The last parameter is ignored; see Cache.
func MatchBlocksCFG(f1, f2 *ir.Function, minRatio float64, _ *Cache) (pairs []BlockPair, unA, unB []*ir.Block, moves int) {
	o1 := Canonicalize(f1, nil)
	o2 := Canonicalize(f2, nil)

	entries := NeedlemanWunsch(o1.Fps, o2.Fps)

	takenA := make(map[*ir.Block]bool, len(o1.Blocks))
	takenB := make(map[*ir.Block]bool, len(o2.Blocks))
	for _, e := range entries {
		if !e.Matched() {
			continue
		}
		a, b := o1.Blocks[e.A], o2.Blocks[e.B]
		r := nwRatio(fingerprint.EncodeBlock(a), fingerprint.EncodeBlock(b))
		if r < minRatio {
			continue // fingerprint collision or sub-threshold body
		}
		takenA[a], takenB[b] = true, true
		pairs = append(pairs, BlockPair{A: a, B: b, Ratio: r})
	}

	// Residue: blocks the canonical exact-match pass left unpaired, in
	// layout order (the order the merger emits unmatched blocks in).
	var restA, restB []*ir.Block
	for _, b := range f1.Blocks {
		if !takenA[b] {
			restA = append(restA, b)
		}
	}
	for _, b := range f2.Blocks {
		if !takenB[b] {
			restB = append(restB, b)
		}
	}
	pairs, unA, unB = greedyMatch(restA, restB, minRatio, pairs)

	layoutA := make(map[*ir.Block]int, len(f1.Blocks))
	for i, b := range f1.Blocks {
		layoutA[b] = i
	}
	layoutB := make(map[*ir.Block]int, len(f2.Blocks))
	for i, b := range f2.Blocks {
		layoutB[b] = i
	}
	for _, p := range pairs {
		if layoutA[p.A] != layoutB[p.B] {
			moves++
		}
	}
	return pairs, unA, unB, moves
}
