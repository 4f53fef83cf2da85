package align

import (
	"math/rand"
	"testing"
	"testing/quick"

	"f3m/internal/fingerprint"
	"f3m/internal/ir"
)

func enc(vals ...uint32) []fingerprint.Encoded {
	out := make([]fingerprint.Encoded, len(vals))
	for i, v := range vals {
		out[i] = fingerprint.Encoded(v)
	}
	return out
}

func TestNWIdentical(t *testing.T) {
	a := enc(1, 2, 3, 4)
	es := NeedlemanWunsch(a, a)
	if len(es) != 4 || Matches(es) != 4 {
		t.Fatalf("identical alignment = %v", es)
	}
	if Ratio(es, 4, 4) != 1 {
		t.Errorf("ratio = %v, want 1", Ratio(es, 4, 4))
	}
}

func TestNWDisjoint(t *testing.T) {
	a := enc(1, 2, 3)
	b := enc(7, 8, 9)
	es := NeedlemanWunsch(a, b)
	if Matches(es) != 0 {
		t.Fatalf("disjoint sequences matched: %v", es)
	}
	if Ratio(es, 3, 3) != 0 {
		t.Errorf("ratio = %v, want 0", Ratio(es, 3, 3))
	}
}

func TestNWInsertionGap(t *testing.T) {
	a := enc(1, 2, 3, 4, 5)
	b := enc(1, 2, 9, 9, 3, 4, 5)
	es := NeedlemanWunsch(a, b)
	if got := Matches(es); got != 5 {
		t.Fatalf("matches = %d, want 5 (%v)", got, es)
	}
}

func TestNWEmpty(t *testing.T) {
	es := NeedlemanWunsch(nil, enc(1, 2))
	if len(es) != 2 || Matches(es) != 0 {
		t.Fatalf("empty-vs-seq alignment = %v", es)
	}
	if len(NeedlemanWunsch(nil, nil)) != 0 {
		t.Fatal("empty-vs-empty should be empty")
	}
	if Ratio(nil, 0, 0) != 1 {
		t.Error("empty ratio should be 1")
	}
}

// TestNWCoversAllIndices: every index of both sequences appears exactly
// once, in order.
func TestNWCoversAllIndices(t *testing.T) {
	prop := func(xa, xb []byte) bool {
		a := make([]fingerprint.Encoded, len(xa))
		for i, v := range xa {
			a[i] = fingerprint.Encoded(v % 8)
		}
		b := make([]fingerprint.Encoded, len(xb))
		for i, v := range xb {
			b[i] = fingerprint.Encoded(v % 8)
		}
		es := NeedlemanWunsch(a, b)
		nextA, nextB := 0, 0
		for _, e := range es {
			if e.A >= 0 {
				if e.A != nextA {
					return false
				}
				nextA++
			}
			if e.B >= 0 {
				if e.B != nextB {
					return false
				}
				nextB++
			}
			if e.Matched() && a[e.A] != b[e.B] {
				return false // matched column with unequal encodings
			}
		}
		return nextA == len(a) && nextB == len(b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNWOptimalOnKnownCase(t *testing.T) {
	// a: X A B C, b: A B C Y -> 3 matches.
	a := enc(99, 1, 2, 3)
	b := enc(1, 2, 3, 77)
	if got := Matches(NeedlemanWunsch(a, b)); got != 3 {
		t.Errorf("matches = %d, want 3", got)
	}
}

func randSeq(r *rand.Rand, n int) []fingerprint.Encoded {
	out := make([]fingerprint.Encoded, n)
	for i := range out {
		// Small alphabet so random pairs still share matches.
		out[i] = fingerprint.Encoded(r.Intn(12))
	}
	return out
}

// TestNWPooledAllocs pins the DP buffer pooling: after warmup, an
// alignment must cost only the result slice, not a fresh score matrix
// and traceback per call. This is the merge-stage allocation spike the
// pool exists to kill.
func TestNWPooledAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	a, b := randSeq(r, 64), randSeq(r, 60)
	NeedlemanWunsch(a, b) // warm the pool
	allocs := testing.AllocsPerRun(50, func() {
		NeedlemanWunsch(a, b)
	})
	// One alloc for the returned entries plus pool slack; a naive
	// implementation costs one allocation per DP row (60+).
	if allocs > 8 {
		t.Errorf("NeedlemanWunsch allocs/op = %v, want <= 8", allocs)
	}
}

const blockSrc = `
define i32 @f(i32 %a, i32 %b) {
entry:
  %x = add i32 %a, %b
  %c = icmp sgt i32 %x, 0
  br i1 %c, label %pos, label %neg
pos:
  %y = mul i32 %x, 2
  ret i32 %y
neg:
  ret i32 0
}
define i32 @g(i32 %a, i32 %b) {
entry:
  %x = add i32 %a, %b
  %c = icmp sgt i32 %x, 0
  br i1 %c, label %pos, label %neg
pos:
  %y = mul i32 %x, 3
  ret i32 %y
neg:
  ret i32 1
}
define double @h(double %p) {
entry:
  %q = fadd double %p, 1.0
  ret double %q
}
`

func TestFuncRatio(t *testing.T) {
	m, err := ir.ParseModule(blockSrc)
	if err != nil {
		t.Fatal(err)
	}
	rSame := FuncRatio(m.Func("f"), m.Func("f"))
	if rSame != 1 {
		t.Errorf("self ratio = %v, want 1", rSame)
	}
	rClone := FuncRatio(m.Func("f"), m.Func("g"))
	rOther := FuncRatio(m.Func("f"), m.Func("h"))
	if rClone <= rOther {
		t.Errorf("clone ratio %v should beat unrelated %v", rClone, rOther)
	}
	if rClone != 1 {
		// f and g differ only in constant values, which the encoding
		// ignores: all instructions align.
		t.Errorf("clone ratio = %v, want 1", rClone)
	}
}

func TestMatchBlocks(t *testing.T) {
	m, err := ir.ParseModule(blockSrc)
	if err != nil {
		t.Fatal(err)
	}
	pairs, unA, unB := MatchBlocks(m.Func("f"), m.Func("g"), 0.5)
	if len(pairs) != 3 || len(unA) != 0 || len(unB) != 0 {
		t.Fatalf("pairs=%d unA=%d unB=%d, want 3/0/0", len(pairs), len(unA), len(unB))
	}
	// Blocks should pair by name here (identical structure).
	for _, p := range pairs {
		if p.A.Name() != p.B.Name() {
			t.Errorf("paired %s with %s", p.A.Name(), p.B.Name())
		}
		if p.Ratio != 1 {
			t.Errorf("pair %s ratio = %v, want 1", p.A.Name(), p.Ratio)
		}
	}
}

func TestMatchBlocksRejectsDissimilar(t *testing.T) {
	m, err := ir.ParseModule(blockSrc)
	if err != nil {
		t.Fatal(err)
	}
	pairs, unA, unB := MatchBlocks(m.Func("f"), m.Func("h"), 0.5)
	// h's single block is float code; no block of f should pair with it.
	if len(pairs) != 0 {
		t.Fatalf("unexpected pairs: %+v", pairs)
	}
	if len(unA) != 3 || len(unB) != 1 {
		t.Fatalf("unA=%d unB=%d", len(unA), len(unB))
	}
}

func TestMatchBlocksDisjointPairs(t *testing.T) {
	m, err := ir.ParseModule(blockSrc)
	if err != nil {
		t.Fatal(err)
	}
	pairs, _, _ := MatchBlocks(m.Func("f"), m.Func("g"), 0.0)
	seenA := map[*ir.Block]bool{}
	seenB := map[*ir.Block]bool{}
	for _, p := range pairs {
		if seenA[p.A] || seenB[p.B] {
			t.Fatal("block used in two pairs")
		}
		seenA[p.A], seenB[p.B] = true, true
	}
}

// lcs computes the longest-common-subsequence length by naive
// recursion — an independent oracle for the aligner.
func lcs(a, b []fingerprint.Encoded) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if a[0] == b[0] {
		return 1 + lcs(a[1:], b[1:])
	}
	l1 := lcs(a[1:], b)
	l2 := lcs(a, b[1:])
	if l1 > l2 {
		return l1
	}
	return l2
}

// TestNWMatchesAreOptimal: with match=+2 and gap=-1, the NW score is
// 4*matches - (lenA+lenB), so the aligner must find exactly the LCS
// number of matches.
func TestNWMatchesAreOptimal(t *testing.T) {
	prop := func(xa, xb []byte) bool {
		if len(xa) > 9 {
			xa = xa[:9]
		}
		if len(xb) > 9 {
			xb = xb[:9]
		}
		a := make([]fingerprint.Encoded, len(xa))
		for i, v := range xa {
			a[i] = fingerprint.Encoded(v % 4)
		}
		b := make([]fingerprint.Encoded, len(xb))
		for i, v := range xb {
			b[i] = fingerprint.Encoded(v % 4)
		}
		return Matches(NeedlemanWunsch(a, b)) == lcs(a, b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMergeRatio(t *testing.T) {
	m, err := ir.ParseModule(blockSrc)
	if err != nil {
		t.Fatal(err)
	}
	f, g, h := m.Func("f"), m.Func("g"), m.Func("h")
	if r := MergeRatio(f, f, 0.5); r != 1 {
		t.Errorf("self merge ratio = %v, want 1", r)
	}
	rClone := MergeRatio(f, g, 0.5)
	rOther := MergeRatio(f, h, 0.5)
	if rClone != 1 {
		t.Errorf("clone merge ratio = %v, want 1", rClone)
	}
	if rOther != 0 {
		t.Errorf("unrelated merge ratio = %v, want 0 (no block pairs)", rOther)
	}
}

func TestMergeRatioBounds(t *testing.T) {
	m, err := ir.ParseModule(blockSrc)
	if err != nil {
		t.Fatal(err)
	}
	fns := m.Funcs
	for _, a := range fns {
		for _, b := range fns {
			r := MergeRatio(a, b, 0.5)
			if r < 0 || r > 1 {
				t.Fatalf("MergeRatio(%s,%s) = %v out of [0,1]", a.Name(), b.Name(), r)
			}
		}
	}
}

func BenchmarkNW100x100(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]fingerprint.Encoded, 100)
	y := make([]fingerprint.Encoded, 100)
	for i := range x {
		x[i] = fingerprint.Encoded(rng.Intn(30))
		y[i] = fingerprint.Encoded(rng.Intn(30))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NeedlemanWunsch(x, y)
	}
}
