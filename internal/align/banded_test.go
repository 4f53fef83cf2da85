package align

import (
	"math/rand"
	"slices"
	"testing"

	"f3m/internal/fingerprint"
	"f3m/internal/irgen"
)

// fullReference runs the exact O(n·m) DP with a private buffer,
// bypassing the banded fast path entirely.
func fullReference(a, b []fingerprint.Encoded) []Entry {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	var buf dpBuf
	res := nwFull(&buf, a, b)
	out := make([]Entry, len(res))
	copy(out, res)
	return out
}

// TestBandedMatchesFullOnCorpora is the differential gate for the
// banded fast path: over generated modules (every irgen family shape,
// several seeds), the public NeedlemanWunsch — which tries the band
// first — must reproduce the full DP's traceback column for column on
// every within-module function pair. The corpus is exactly the
// distribution the merge pipeline feeds the aligner, including the
// near-identical family members where the band actually engages.
func TestBandedMatchesFullOnCorpora(t *testing.T) {
	for _, seed := range []int64{1, 42, 103} {
		m := irgen.Generate(irgen.DefaultConfig(seed)).Module
		encs := make([][]fingerprint.Encoded, len(m.Funcs))
		for i, f := range m.Funcs {
			encs[i] = fingerprint.EncodeFunc(f)
		}
		pairs, banded := 0, 0
		for i := range encs {
			// Each function against a stride of partners keeps the
			// quadratic pair space affordable while still crossing
			// family boundaries.
			for j := i + 1; j < len(encs); j += 7 {
				got := NeedlemanWunsch(encs[i], encs[j])
				want := fullReference(encs[i], encs[j])
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d: banded alignment of %s vs %s diverges from full DP",
						seed, m.Funcs[i].Name(), m.Funcs[j].Name())
				}
				pairs++
				var buf dpBuf
				if _, ok := nwBanded(&buf, encs[i], encs[j]); ok {
					banded++
				}
			}
		}
		if banded == 0 {
			t.Fatalf("seed %d: banded path never engaged over %d pairs; differential test is vacuous", seed, pairs)
		}
		t.Logf("seed %d: %d pairs, %d banded", seed, pairs, banded)
	}
}

// TestBandedAdversarialLowSimilarity hammers the fast path with the
// inputs it is worst at: long pairs with little in common, where any
// optimal alignment hugs the matrix edges and the band-escape proof
// must correctly force the full-DP fallback. Whatever path runs, the
// traceback must equal the reference.
func TestBandedAdversarialLowSimilarity(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := bandMinLen + r.Intn(80)
		m := bandMinLen + r.Intn(80)
		// Two nearly-disjoint alphabets with a sprinkle of shared
		// symbols: similarity is low but nonzero, so tracebacks have a
		// few scattered matches that tempt a too-narrow band.
		a := make([]fingerprint.Encoded, n)
		b := make([]fingerprint.Encoded, m)
		for i := range a {
			a[i] = fingerprint.Encoded(r.Intn(64))
		}
		for i := range b {
			b[i] = fingerprint.Encoded(64 + r.Intn(64))
		}
		for k := 0; k < 3; k++ {
			sym := fingerprint.Encoded(200 + r.Intn(4))
			a[r.Intn(n)] = sym
			b[r.Intn(m)] = sym
		}
		got := NeedlemanWunsch(a, b)
		want := fullReference(a, b)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d m=%d): alignment diverges from full DP", trial, n, m)
		}
	}
}

// TestBandedShiftedWindows covers the regime in between: identical
// cores at different offsets, which stresses the |n−m| diagonal shift
// handling of the band.
func TestBandedShiftedWindows(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	core := make([]fingerprint.Encoded, 48)
	for i := range core {
		core[i] = fingerprint.Encoded(r.Intn(16))
	}
	for shift := 0; shift <= 12; shift++ {
		a := append([]fingerprint.Encoded(nil), core...)
		b := make([]fingerprint.Encoded, 0, len(core)+shift)
		for i := 0; i < shift; i++ {
			b = append(b, fingerprint.Encoded(1000+i))
		}
		b = append(b, core...)
		got := NeedlemanWunsch(a, b)
		want := fullReference(a, b)
		if !slices.Equal(got, want) {
			t.Fatalf("shift %d: alignment diverges from full DP", shift)
		}
	}
}
