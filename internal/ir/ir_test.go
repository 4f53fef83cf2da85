package ir

import (
	"strings"
	"testing"
)

// buildAbs builds: define i32 @abs(i32 %x) { |x| via condbr + phi }.
func buildAbs(t testing.TB) (*Module, *Function) {
	t.Helper()
	m := NewModule("test")
	c := m.Ctx
	f := m.NewFunc("abs", c.Func(c.I32, c.I32), "x")
	entry := f.NewBlock("entry")
	neg := f.NewBlock("neg")
	done := f.NewBlock("done")

	b := NewBuilder(entry)
	x := f.Params[0]
	cmp := b.ICmp(PredSLT, x, ConstInt(c.I32, 0))
	b.CondBr(cmp, neg, done)

	b.SetBlock(neg)
	negx := b.Sub(ConstInt(c.I32, 0), x)
	b.Br(done)

	b.SetBlock(done)
	phi := b.Phi(c.I32)
	phi.AddIncoming(x, entry)
	phi.AddIncoming(negx, neg)
	b.Ret(phi)

	if err := VerifyFunc(f); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return m, f
}

func TestBuilderAndVerify(t *testing.T) {
	_, f := buildAbs(t)
	if got := f.NumInstrs(); got != 6 {
		t.Errorf("NumInstrs = %d, want 6", got)
	}
	if f.Entry().Nam != "entry" {
		t.Errorf("entry block = %q", f.Entry().Nam)
	}
}

func TestTypeInterning(t *testing.T) {
	c := NewTypeContext()
	if c.Int(32) != c.I32 {
		t.Error("i32 not interned")
	}
	p1 := c.Pointer(c.I32)
	p2 := c.Pointer(c.Int(32))
	if p1 != p2 {
		t.Error("i32* not interned")
	}
	s1 := c.Struct(c.I32, c.F64)
	s2 := c.Struct(c.I32, c.F64)
	if s1 != s2 {
		t.Error("struct not interned")
	}
	if s1 == c.Struct(c.F64, c.I32) {
		t.Error("field order ignored")
	}
	f1 := c.Func(c.Void, c.I32)
	f2 := c.VariadicFunc(c.Void, c.I32)
	if f1 == f2 {
		t.Error("variadic flag ignored")
	}
	// Array and struct with same content must differ from each other.
	if c.Array(2, c.I32) == c.Struct(c.I32, c.I32) {
		t.Error("array conflated with struct")
	}
}

func TestTypeString(t *testing.T) {
	c := NewTypeContext()
	cases := []struct {
		ty   *Type
		want string
	}{
		{c.Void, "void"},
		{c.I1, "i1"},
		{c.I64, "i64"},
		{c.F32, "float"},
		{c.F64, "double"},
		{c.Pointer(c.I8), "i8*"},
		{c.Array(4, c.I32), "[4 x i32]"},
		{c.Struct(c.I32, c.Pointer(c.I8)), "{i32, i8*}"},
		{c.Func(c.I32, c.I64), "i32(i64)"},
		{c.Pointer(c.Func(c.Void)), "void()*"},
	}
	for _, tc := range cases {
		if got := tc.ty.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestSizeOf(t *testing.T) {
	c := NewTypeContext()
	cases := []struct {
		ty   *Type
		want int
	}{
		{c.I1, 1},
		{c.I8, 1},
		{c.I32, 4},
		{c.I64, 8},
		{c.F32, 4},
		{c.F64, 8},
		{c.Pointer(c.I8), 8},
		{c.Array(3, c.I32), 12},
		{c.Struct(c.I32, c.F64), 12},
	}
	for _, tc := range cases {
		if got := SizeOf(tc.ty); got != tc.want {
			t.Errorf("SizeOf(%s) = %d, want %d", tc.ty, got, tc.want)
		}
	}
}

func TestConstTruncation(t *testing.T) {
	c := NewTypeContext()
	if v := ConstInt(c.I8, 200).IntVal; v != -56 {
		t.Errorf("i8 200 = %d, want -56", v)
	}
	if v := ConstInt(c.I8, -1).IntVal; v != -1 {
		t.Errorf("i8 -1 = %d, want -1", v)
	}
	if v := ConstInt(c.I1, 3).IntVal; v != -1 {
		t.Errorf("i1 3 = %d, want -1 (two's complement)", v)
	}
	if !ConstEqual(ConstInt(c.I8, 200), ConstInt(c.I8, -56)) {
		t.Error("truncated constants should compare equal")
	}
	if ConstEqual(ConstInt(c.I8, 1), ConstInt(c.I16, 1)) {
		t.Error("constants of different types compare equal")
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	m, _ := buildAbs(t)
	text := ModuleString(m)
	m2, err := ParseModule(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if err := VerifyModule(m2); err != nil {
		t.Fatalf("verify reparsed: %v", err)
	}
	text2 := ModuleString(m2)
	if text != text2 {
		t.Errorf("round trip not stable:\n--- first\n%s\n--- second\n%s", text, text2)
	}
}

const fixtureIR = `
module "fixture"
global @counter i64 = 0
global @table [4 x i32]

declare i32 @ext(i32, ...)

define i32 @sum(i32* %p, i32 %n) {
entry:
  %cmp0 = icmp sgt i32 %n, 0
  br i1 %cmp0, label %loop, label %exit
loop:
  %i = phi i32 [0, %entry], [%inext, %loop]
  %acc = phi i32 [0, %entry], [%accnext, %loop]
  %i64v = sext i32 %i to i64
  %addr = getelementptr i32* %p, i64 %i64v
  %v = load i32, i32* %addr
  %accnext = add i32 %acc, %v
  %inext = add i32 %i, 1
  %more = icmp slt i32 %inext, %n
  br i1 %more, label %loop, label %exit
exit:
  %res = phi i32 [0, %entry], [%accnext, %loop]
  ret i32 %res
}

define void @bump() {
entry:
  %c = load i64, i64* @counter
  %c2 = add i64 %c, 1
  store i64 %c2, i64* @counter
  ret void
}
`

func TestParseFixture(t *testing.T) {
	m, err := ParseModule(fixtureIR)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyModule(m); err != nil {
		t.Fatal(err)
	}
	sum := m.Func("sum")
	if sum == nil {
		t.Fatal("missing @sum")
	}
	if len(sum.Blocks) != 3 {
		t.Fatalf("sum has %d blocks, want 3", len(sum.Blocks))
	}
	if got := []string{sum.Blocks[0].Nam, sum.Blocks[1].Nam, sum.Blocks[2].Nam}; got[0] != "entry" || got[1] != "loop" || got[2] != "exit" {
		t.Errorf("block order = %v", got)
	}
	ext := m.Func("ext")
	if ext == nil || !ext.IsDecl() || !ext.Sig.Variadic {
		t.Error("@ext should be a variadic declaration")
	}
	// Round-trip the fixture too.
	text := ModuleString(m)
	if _, err := ParseModule(text); err != nil {
		t.Fatalf("round trip: %v\n%s", err, text)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`define i32 @f() { entry: ret i32 %undefined }`,
		`define i32 @f() { entry: %x = add i32 1, }`,
		`define i32 @f( { }`,
		`global i32`,
		`define i32 @f() { entry: %x = call i32 @nosuch() ret i32 %x }`,
	}
	for _, src := range cases {
		if _, err := ParseModule(src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

func TestVerifyCatchesBrokenIR(t *testing.T) {
	m := NewModule("bad")
	c := m.Ctx
	f := m.NewFunc("f", c.Func(c.I32, c.I32))
	entry := f.NewBlock("entry")
	other := f.NewBlock("other")

	// Use-before-def across blocks violating dominance: value defined in
	// 'other' (not dominating entry) used in entry.
	bad := &Instr{Op: OpAdd, Ty: c.I32, Nam: "bad", Operands: []Value{f.Params[0], f.Params[0]}}
	other.Append(bad)
	bo := NewBuilder(other)
	bo.Ret(bad)

	be := NewBuilder(entry)
	use := be.Add(bad, f.Params[0])
	be.Ret(use)

	err := VerifyFunc(f)
	if err == nil {
		t.Fatal("verifier accepted dominance violation")
	}
	if !strings.Contains(err.Error(), "dominance") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestVerifyPhiEdges(t *testing.T) {
	src := `
define i32 @f(i32 %x) {
entry:
  br label %exit
exit:
  %r = phi i32 [1, %entry], [2, %nopred]
  ret i32 %r
nopred:
  br label %exit
}`
	m, err := ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	// nopred IS a predecessor here; remove its branch to make the edge bogus.
	f := m.Func("f")
	var nopred *Block
	for _, b := range f.Blocks {
		if b.Nam == "nopred" {
			nopred = b
		}
	}
	nopred.Instrs = nil
	nb := NewBuilder(nopred)
	nb.Ret(ConstInt(m.Ctx.I32, 0))
	if err := VerifyFunc(f); err == nil {
		t.Fatal("verifier accepted phi edge from non-predecessor")
	}
}

func TestDomTree(t *testing.T) {
	src := `
define void @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  ret void
}`
	m := MustParseModule(src)
	f := m.Func("f")
	dt := NewDomTree(f)
	byName := map[string]*Block{}
	for _, b := range f.Blocks {
		byName[b.Nam] = b
	}
	if !dt.Dominates(byName["entry"], byName["join"]) {
		t.Error("entry should dominate join")
	}
	if dt.Dominates(byName["a"], byName["join"]) {
		t.Error("a should not dominate join")
	}
	if !dt.Dominates(byName["a"], byName["a"]) {
		t.Error("dominance should be reflexive")
	}
	if dt.IDom(byName["join"]) != byName["entry"] {
		t.Errorf("idom(join) = %v, want entry", dt.IDom(byName["join"]))
	}
	if dt.IDom(byName["entry"]) != nil {
		t.Error("entry should have no idom")
	}
}

func TestDomTreeUnreachable(t *testing.T) {
	src := `
define void @f() {
entry:
  ret void
dead:
  br label %dead
}`
	m := MustParseModule(src)
	f := m.Func("f")
	dt := NewDomTree(f)
	var dead *Block
	for _, b := range f.Blocks {
		if b.Nam == "dead" {
			dead = b
		}
	}
	if dt.Reachable(dead) {
		t.Error("dead block should be unreachable")
	}
	if dt.Dominates(f.Entry(), dead) {
		t.Error("Dominates must be false for unreachable blocks")
	}
}

func TestCloneFunc(t *testing.T) {
	m, f := buildAbs(t)
	clone := CloneFunc(m, f, "abs.clone")
	if err := VerifyFunc(clone); err != nil {
		t.Fatalf("clone verify: %v", err)
	}
	// Same shape...
	if clone.NumInstrs() != f.NumInstrs() || len(clone.Blocks) != len(f.Blocks) {
		t.Fatal("clone shape differs")
	}
	// ...but fully distinct storage.
	for i := range f.Blocks {
		if f.Blocks[i] == clone.Blocks[i] {
			t.Fatal("clone shares blocks with original")
		}
		for j := range f.Blocks[i].Instrs {
			if f.Blocks[i].Instrs[j] == clone.Blocks[i].Instrs[j] {
				t.Fatal("clone shares instructions with original")
			}
		}
	}
	// Operand remapping: no clone instruction refers to an original one.
	origSet := make(map[Value]bool)
	f.Instructions(func(in *Instr) { origSet[in] = true })
	for _, p := range f.Params {
		origSet[p] = true
	}
	clone.Instructions(func(in *Instr) {
		for _, op := range in.Operands {
			if origSet[op] {
				t.Fatalf("clone instruction %s refers to original value %s", InstrString(in), op.Ident())
			}
		}
	})
	// Textual equality modulo the name line.
	a := strings.Replace(FuncString(f), "@abs", "@X", 1)
	b := strings.Replace(FuncString(clone), "@abs.clone", "@X", 1)
	if a != b {
		t.Errorf("clone body differs:\n%s\nvs\n%s", a, b)
	}
}

func TestSuccessorsAndPreds(t *testing.T) {
	m, f := buildAbs(t)
	_ = m
	entry := f.Blocks[0]
	succs := entry.Succs()
	if len(succs) != 2 {
		t.Fatalf("entry successors = %d, want 2", len(succs))
	}
	preds := f.Preds()
	done := f.Blocks[2]
	if len(preds[done]) != 2 {
		t.Fatalf("done predecessors = %d, want 2", len(preds[done]))
	}
}

func TestSwitchRoundTrip(t *testing.T) {
	src := `
define i32 @f(i32 %x) {
entry:
  switch i32 %x, label %def [0: label %zero, 5: label %five]
zero:
  ret i32 100
five:
  ret i32 500
def:
  ret i32 -1
}`
	m, err := ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyModule(m); err != nil {
		t.Fatal(err)
	}
	f := m.Func("f")
	term := f.Entry().Term()
	if term.Op != OpSwitch {
		t.Fatalf("terminator = %s", term.Op)
	}
	if got := len(term.Successors()); got != 3 {
		t.Fatalf("switch successors = %d, want 3", got)
	}
	if _, err := ParseModule(ModuleString(m)); err != nil {
		t.Fatalf("round trip: %v", err)
	}
}

func TestInvokeRoundTrip(t *testing.T) {
	src := `
declare i32 @mayThrow(i32)

define i32 @f(i32 %x) {
entry:
  %r = invoke i32 @mayThrow(i32 %x) to label %ok unwind label %bad
ok:
  ret i32 %r
bad:
  ret i32 -1
}`
	m, err := ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyModule(m); err != nil {
		t.Fatal(err)
	}
	f := m.Func("f")
	inv := f.Entry().Term()
	if inv.Op != OpInvoke {
		t.Fatalf("terminator = %s", inv.Op)
	}
	if len(inv.CallArgs()) != 1 {
		t.Fatalf("invoke args = %d, want 1", len(inv.CallArgs()))
	}
	succs := inv.Successors()
	if len(succs) != 2 || succs[0].Nam != "ok" || succs[1].Nam != "bad" {
		t.Fatalf("invoke successors = %v", succs)
	}
	if _, err := ParseModule(ModuleString(m)); err != nil {
		t.Fatalf("round trip: %v", err)
	}
}

func TestUniqueFuncName(t *testing.T) {
	m := NewModule("t")
	c := m.Ctx
	m.NewFunc("f", c.Func(c.Void))
	if got := m.UniqueFuncName("g"); got != "g" {
		t.Errorf("fresh name = %q", got)
	}
	if got := m.UniqueFuncName("f"); got != "f.1" {
		t.Errorf("collision name = %q", got)
	}
	m.NewFunc("f.1", c.Func(c.Void))
	if got := m.UniqueFuncName("f"); got != "f.2" {
		t.Errorf("second collision name = %q", got)
	}
}

func TestLinkedModuleMergesEndToEnd(t *testing.T) {
	// Linking two units that each define near-identical handlers must
	// produce a module in which those handlers are mergeable — the
	// paper's whole-program setup in miniature.
	unitA := MustParseModule(`
define i32 @handler_a(i32 %x) {
entry:
  %a = add i32 %x, 7
  %b = mul i32 %a, 3
  ret i32 %b
}`)
	unitB := MustParseModule(`
define i32 @handler_b(i32 %x) {
entry:
  %a = add i32 %x, 9
  %b = mul i32 %a, 5
  ret i32 %b
}`)
	linked, err := LinkModules("prog", unitA, unitB)
	if err != nil {
		t.Fatal(err)
	}
	if len(linked.Funcs) != 2 {
		t.Fatalf("linked %d functions, want 2", len(linked.Funcs))
	}
	if err := VerifyModule(linked); err != nil {
		t.Fatal(err)
	}
}

func TestLinearize(t *testing.T) {
	_, f := buildAbs(t)
	seq := f.Linearize()
	if len(seq) != f.NumInstrs() {
		t.Fatalf("linearize length %d, want %d", len(seq), f.NumInstrs())
	}
	// Order must follow blocks.
	if seq[0].Op != OpICmp || seq[len(seq)-1].Op != OpRet {
		t.Errorf("unexpected linearization: first=%s last=%s", seq[0].Op, seq[len(seq)-1].Op)
	}
}
