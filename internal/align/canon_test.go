package align

import (
	"testing"

	"f3m/internal/ir"
)

// canonSrc defines the same function three times: @orig in natural
// layout, @perm with the non-entry blocks listed in a different layout
// order and every label renamed, and @swap with the conditional
// branch's arms listed in the opposite order (content otherwise
// identical to @orig up to label names). @mut mutates one block's body.
const canonSrc = `
define i32 @orig(i32 %x) {
entry:
  %c = icmp sgt i32 %x, 0
  br i1 %c, label %t, label %f
t:
  %p = add i32 %x, 1
  br label %j
f:
  %q = mul i32 %x, 3
  br label %j
j:
  %m = phi i32 [ %p, %t ], [ %q, %f ]
  %r = xor i32 %m, 7
  br label %end
end:
  %s = sub i32 %r, 2
  ret i32 %s
}
define i32 @perm(i32 %x) {
e2:
  %c = icmp sgt i32 %x, 0
  br i1 %c, label %b2, label %b3
b5:
  %s = sub i32 %r, 2
  ret i32 %s
b3:
  %q = mul i32 %x, 3
  br label %b4
b4:
  %m = phi i32 [ %p, %b2 ], [ %q, %b3 ]
  %r = xor i32 %m, 7
  br label %b5
b2:
  %p = add i32 %x, 1
  br label %b4
}
define i32 @swap(i32 %x) {
entry:
  %c = icmp sgt i32 %x, 0
  br i1 %c, label %f, label %t
t:
  %p = add i32 %x, 1
  br label %j
f:
  %q = mul i32 %x, 3
  br label %j
j:
  %m = phi i32 [ %p, %t ], [ %q, %f ]
  %r = xor i32 %m, 7
  br label %end
end:
  %s = sub i32 %r, 2
  ret i32 %s
}
define i32 @mut(i32 %x) {
e2:
  %c = icmp sgt i32 %x, 0
  br i1 %c, label %b2, label %b3
b5:
  %s = sub i32 %r, 2
  ret i32 %s
b3:
  %q = ashr i32 %x, 3
  %q2 = or i32 %q, 12
  br label %b4
b4:
  %m = phi i32 [ %p, %b2 ], [ %q2, %b3 ]
  %r = xor i32 %m, 7
  br label %b5
b2:
  %p = add i32 %x, 1
  br label %b4
}
`

func parseCanon(t *testing.T) *ir.Module {
	t.Helper()
	m, err := ir.ParseModule(canonSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.VerifyModule(m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCanonicalizeLayoutInvariant(t *testing.T) {
	m := parseCanon(t)
	oa := Canonicalize(m.Func("orig"), nil)
	ob := Canonicalize(m.Func("perm"), nil)
	if len(oa.Blocks) != 5 || len(ob.Blocks) != 5 {
		t.Fatalf("canonical lengths %d/%d, want 5/5", len(oa.Blocks), len(ob.Blocks))
	}
	for i := range oa.Fps {
		if oa.Fps[i] != ob.Fps[i] {
			t.Errorf("position %d: fp %x (block %s) vs %x (block %s)",
				i, oa.Fps[i], oa.Blocks[i].Name(), ob.Fps[i], ob.Blocks[i].Name())
		}
	}
	// @perm's canonical order must differ from its scrambled layout:
	// position 1 of the layout is the ret block, which can only be last
	// canonically (it is dominated by everything on its path).
	if ob.Blocks[1] == m.Func("perm").Blocks[1] {
		t.Error("canonical order follows scrambled layout")
	}
}

func TestCanonicalizeArmOrderInvariant(t *testing.T) {
	m := parseCanon(t)
	oa := Canonicalize(m.Func("orig"), nil)
	ob := Canonicalize(m.Func("swap"), nil)
	for i := range oa.Fps {
		if oa.Fps[i] != ob.Fps[i] {
			t.Errorf("position %d: fp %x vs %x — arm listing order leaked into the canonical order",
				i, oa.Fps[i], ob.Fps[i])
		}
	}
}

func TestCanonicalizeDeterministic(t *testing.T) {
	m := parseCanon(t)
	f := m.Func("perm")
	a, b := Canonicalize(f, nil), Canonicalize(f, nil)
	for i := range a.Blocks {
		if a.Blocks[i] != b.Blocks[i] || a.Fps[i] != b.Fps[i] {
			t.Fatalf("position %d differs across runs", i)
		}
	}
	// Passing a caller-owned dominator tree must agree with the
	// transient one.
	dom := ir.NewDomTree(f)
	defer dom.Release()
	c := Canonicalize(f, dom)
	for i := range a.Blocks {
		if a.Blocks[i] != c.Blocks[i] {
			t.Fatalf("position %d differs with cached dom tree", i)
		}
	}
}

func TestMatchBlocksCFGPermuted(t *testing.T) {
	m := parseCanon(t)
	f1, f2 := m.Func("orig"), m.Func("perm")
	pairs, unA, unB, moves := MatchBlocksCFG(f1, f2, 0.5, nil)
	if len(pairs) != 5 || len(unA) != 0 || len(unB) != 0 {
		t.Fatalf("pairs=%d unA=%d unB=%d, want 5/0/0", len(pairs), len(unA), len(unB))
	}
	for _, p := range pairs {
		if p.Ratio != 1 {
			t.Errorf("pair %s/%s ratio = %v, want 1", p.A.Name(), p.B.Name(), p.Ratio)
		}
	}
	if moves == 0 {
		t.Error("permuted layout reported zero block moves")
	}
}

func TestMatchBlocksCFGIdenticalLayoutNoMoves(t *testing.T) {
	m := parseCanon(t)
	f := m.Func("orig")
	pairs, unA, unB, moves := MatchBlocksCFG(f, m.Func("swap"), 0.5, nil)
	if len(pairs) != 5 || len(unA) != 0 || len(unB) != 0 {
		t.Fatalf("pairs=%d unA=%d unB=%d, want 5/0/0", len(pairs), len(unA), len(unB))
	}
	if moves != 0 {
		t.Errorf("same-layout twins reported %d moves", moves)
	}
	// Self-match is the degenerate same-layout case.
	if _, _, _, selfMoves := MatchBlocksCFG(f, f, 0.5, nil); selfMoves != 0 {
		t.Errorf("self match reported %d moves", selfMoves)
	}
}

// TestMatchBlocksCFGFallback: a block whose body was mutated no longer
// matches by canonical fingerprint, but the greedy residue pass still
// pairs it when the bodies align above the ratio floor — the CFG
// matcher is never weaker than the sequence matcher on leftovers.
func TestMatchBlocksCFGFallback(t *testing.T) {
	m := parseCanon(t)
	pairs, unA, unB, _ := MatchBlocksCFG(m.Func("orig"), m.Func("mut"), 0.3, nil)
	if len(unA) != 0 || len(unB) != 0 {
		t.Fatalf("unA=%d unB=%d, want full pairing via greedy fallback", len(unA), len(unB))
	}
	if len(pairs) != 5 {
		t.Fatalf("pairs=%d, want 5", len(pairs))
	}
	exact := 0
	for _, p := range pairs {
		if p.Ratio == 1 {
			exact++
		}
	}
	// Four blocks are untouched; only the mutated arm pairs inexactly.
	if exact != 4 {
		t.Errorf("exact pairs = %d, want 4", exact)
	}
}
