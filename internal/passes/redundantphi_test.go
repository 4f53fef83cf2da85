package passes

import (
	"strings"
	"testing"

	"f3m/internal/ir"
)

func TestElimRedundantPhisSameValue(t *testing.T) {
	src := `
define i32 @f(i32 %x) {
entry:
  %c = icmp sgt i32 %x, 0
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  %p = phi i32 [%x, %a], [%x, %b]
  %r = add i32 %p, 1
  ret i32 %r
}`
	m := mustParse(t, src)
	f := m.Func("f")
	if n := ElimRedundantPhis(f); n != 1 {
		t.Errorf("removed %d phis, want 1", n)
	}
	if err := ir.VerifyFunc(f); err != nil {
		t.Fatalf("invalid after elimination: %v\n%s", err, ir.FuncString(f))
	}
	out := ir.FuncString(f)
	if strings.Contains(out, "phi") {
		t.Errorf("redundant phi survived:\n%s", out)
	}
	if !strings.Contains(out, "add i32 %x, 1") {
		t.Errorf("use not rewritten to the unique incoming:\n%s", out)
	}
}

func TestElimRedundantPhisChain(t *testing.T) {
	// %q is trivial only after %p folds: elimination must iterate to a
	// fixed point.
	src := `
define i32 @f(i32 %x) {
entry:
  %c = icmp sgt i32 %x, 0
  br i1 %c, label %a, label %b
a:
  br label %mid
b:
  br label %mid
mid:
  %p = phi i32 [%x, %a], [%x, %b]
  %d = icmp slt i32 %x, 10
  br i1 %d, label %m2, label %m3
m2:
  br label %join
m3:
  br label %join
join:
  %q = phi i32 [%p, %m2], [%x, %m3]
  ret i32 %q
}`
	m := mustParse(t, src)
	f := m.Func("f")
	if n := ElimRedundantPhis(f); n != 2 {
		t.Errorf("removed %d phis, want 2", n)
	}
	if err := ir.VerifyFunc(f); err != nil {
		t.Fatalf("invalid after elimination: %v\n%s", err, ir.FuncString(f))
	}
	if strings.Contains(ir.FuncString(f), "phi") {
		t.Errorf("chained redundant phis survived:\n%s", ir.FuncString(f))
	}
}

func TestElimRedundantPhisKeepsRealPhis(t *testing.T) {
	src := `
define i32 @f(i32 %x) {
entry:
  %c = icmp sgt i32 %x, 0
  br i1 %c, label %a, label %b
a:
  %ai = add i32 %x, 1
  br label %join
b:
  %bi = add i32 %x, 2
  br label %join
join:
  %p = phi i32 [%ai, %a], [%bi, %b]
  ret i32 %p
}`
	m := mustParse(t, src)
	f := m.Func("f")
	if n := ElimRedundantPhis(f); n != 0 {
		t.Errorf("removed %d phis from a function with a genuine merge, want 0", n)
	}
	if !strings.Contains(ir.FuncString(f), "phi") {
		t.Error("genuine phi was eliminated")
	}
}

func TestElimRedundantPhisEqualConstants(t *testing.T) {
	src := `
define i32 @f(i32 %x) {
entry:
  %c = icmp sgt i32 %x, 0
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  %p = phi i32 [7, %a], [7, %b]
  %r = add i32 %p, %x
  ret i32 %r
}`
	m := mustParse(t, src)
	f := m.Func("f")
	if n := ElimRedundantPhis(f); n != 1 {
		t.Errorf("removed %d phis, want 1 (equal constants)", n)
	}
	if !strings.Contains(ir.FuncString(f), "add i32 7, %x") {
		t.Errorf("constant not propagated to the use:\n%s", ir.FuncString(f))
	}
}

func TestElimRedundantPhisCycle(t *testing.T) {
	// %q forwards %p, and %p merges %x with %q: both carry %x. Replacing
	// %q must also rewrite its use inside %p (the replacement itself),
	// or %p is left pointing at the deleted %q.
	src := `
define i32 @f(i32 %x, i1 %c) {
entry:
  br label %head
head:
  %p = phi i32 [%x, %entry], [%q, %latch]
  br i1 %c, label %latch, label %exit
latch:
  %q = phi i32 [%p, %head]
  br label %head
exit:
  ret i32 %p
}`
	m := mustParse(t, src)
	f := m.Func("f")
	if n := ElimRedundantPhis(f); n != 2 {
		t.Errorf("removed %d phis, want 2", n)
	}
	if err := ir.VerifyFunc(f); err != nil {
		t.Fatalf("invalid after elimination: %v\n%s", err, ir.FuncString(f))
	}
	if !strings.Contains(ir.FuncString(f), "ret i32 %x") {
		t.Errorf("cycle not collapsed to its only incoming value:\n%s", ir.FuncString(f))
	}
}
