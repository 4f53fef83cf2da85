package ir

import (
	"math"
	"strings"
	"testing"
)

func TestLinkDeclarationToDefinition(t *testing.T) {
	unitA := MustParseModule(`
declare i32 @helper(i32)
define i32 @main(i32 %x) {
entry:
  %r = call i32 @helper(i32 %x)
  ret i32 %r
}`)
	unitB := MustParseModule(`
define i32 @helper(i32 %v) {
entry:
  %r = mul i32 %v, 3
  ret i32 %r
}`)
	linked, err := LinkModules("prog", unitA, unitB)
	if err != nil {
		t.Fatal(err)
	}
	h := linked.Func("helper")
	if h == nil || h.IsDecl() {
		t.Fatal("helper not resolved to its definition")
	}
	// The definition's parameter names win over the declaration's.
	if h.Params[0].Nam != "v" {
		t.Errorf("helper's parameter is %%%s, want %%v", h.Params[0].Nam)
	}
	// main's call must reference the LINKED helper, not unitA's decl.
	var callee Value
	linked.Func("main").Instructions(func(in *Instr) {
		if in.Op == OpCall {
			callee = in.Operands[0]
		}
	})
	if callee != Value(h) {
		t.Fatal("call site not remapped to linked definition")
	}
}

func TestLinkGlobals(t *testing.T) {
	a := MustParseModule(`
global @shared i64
define void @touch() {
entry:
  store i64 1, i64* @shared
  ret void
}`)
	b := MustParseModule(`
global @shared i64 = 42
global @own i32 = 7
`)
	linked, err := LinkModules("prog", a, b)
	if err != nil {
		t.Fatal(err)
	}
	g := linked.Global("shared")
	if g == nil || g.Init == nil || g.Init.IntVal != 42 {
		t.Fatalf("shared global not unified with initializer: %+v", g)
	}
	if linked.Global("own") == nil {
		t.Fatal("own global missing")
	}
	// touch's store must reference the linked global.
	linked.Func("touch").Instructions(func(in *Instr) {
		if in.Op == OpStore && in.Operands[1] != Value(g) {
			t.Fatal("store not remapped to linked global")
		}
	})
}

func TestLinkConflicts(t *testing.T) {
	def1 := `define i32 @f(i32 %x) {
entry:
  ret i32 %x
}`
	def2 := `define i32 @f(i32 %x) {
entry:
  %r = add i32 %x, 1
  ret i32 %r
}`
	if _, err := LinkModules("p", MustParseModule(def1), MustParseModule(def2)); err == nil || !strings.Contains(err.Error(), "multiply defined") {
		t.Errorf("duplicate definition: err = %v", err)
	}

	sigA := `declare i32 @g(i32)`
	sigB := `declare i64 @g(i32)`
	if _, err := LinkModules("p", MustParseModule(sigA), MustParseModule(sigB)); err == nil || !strings.Contains(err.Error(), "conflicting signatures") {
		t.Errorf("signature conflict: err = %v", err)
	}

	gA := `global @x i32 = 1`
	gB := `global @x i32 = 2`
	if _, err := LinkModules("p", MustParseModule(gA), MustParseModule(gB)); err == nil || !strings.Contains(err.Error(), "multiply initialized") {
		t.Errorf("initializer conflict: err = %v", err)
	}

	tA := `global @y i32`
	tB := `global @y i64`
	if _, err := LinkModules("p", MustParseModule(tA), MustParseModule(tB)); err == nil || !strings.Contains(err.Error(), "conflicting types") {
		t.Errorf("type conflict: err = %v", err)
	}
}

func TestLinkAcrossTypeContexts(t *testing.T) {
	// Each ParseModule creates its own context; LinkModules must
	// re-intern the second unit's types in the first unit's context.
	a := MustParseModule(`
define i32 @a(i32 %x) {
entry:
  ret i32 %x
}`)
	b := MustParseModule(`
define i32 @b(i32 %x) {
entry:
  %r = call i32 @b(i32 %x)
  ret i32 %r
}`)
	linked, err := LinkModules("prog", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if linked.Ctx != a.Ctx {
		t.Fatal("linked module should share the first input's context")
	}
	fb := linked.Func("b")
	// All types in the linked module must come from the shared context.
	if fb.ReturnType() != linked.Ctx.I32 {
		t.Fatal("types not re-interned into the shared context")
	}
}

func TestLinkEmpty(t *testing.T) {
	if _, err := LinkModules("p"); err == nil {
		t.Error("expected error for zero inputs")
	}
}

// CrossContextUnitA and CrossContextUnitB are a link pair whose second
// unit brings types the first unit's context lacks: an array, a
// struct, pointers to functions (a parameter, an alloca slot and a
// stored function value) and a variadic declaration, plus a loop whose
// phi refers forward. The encoding test in link_encode_test.go pins
// the dense encodings of their link.
var (
	CrossContextUnitA = `
define i32 @a(i32 %x) {
entry:
  ret i32 %x
}`
	CrossContextUnitB = `
global @tab [4 x i32]
global @scale double = 2.5
declare i32 @log(i8*, ...)
declare i32 @a(i32)
define i32 @b(i32 %x, i32 (i32)* %fp) {
entry:
  %s = alloca {i32, double}
  %slot = alloca i32 (i32)*
  store i32 (i32)* @a, i32 (i32)** %slot
  %f = getelementptr {i32, double}* %s, i64 0, i32 0
  store i32 %x, i32* %f
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %n, %loop ]
  %e = getelementptr [4 x i32]* @tab, i64 0, i64 %i
  store i32 %x, i32* %e
  %n = add i64 %i, 1
  %d = icmp slt i64 %n, 4
  br i1 %d, label %loop, label %exit
exit:
  %v = load i32, i32* %f
  %r = call i32 %fp(i32 %v)
  %m = bitcast {i32, double}* %s to i8*
  %l = call i32 @log(i8* %m, i32 %r)
  %c = call i32 @a(i32 %l)
  ret i32 %c
}`
)

// interned reports whether t is c's own instance of its type.
func interned(c *TypeContext, t *Type) bool {
	key := typeKey(t)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byKey[key] == t
}

// checkInterned fails on any type in m that is not m.Ctx's instance:
// global, signature and parameter types, every Ty and AllocTy, and
// the types of constants (operands and initializers).
func checkInterned(t *testing.T, m *Module) {
	t.Helper()
	check := func(what string, ty *Type) {
		if ty != nil && !interned(m.Ctx, ty) {
			t.Errorf("%s: type %s is not the linked context's instance", what, ty)
		}
	}
	for _, g := range m.Globs {
		check("@"+g.Nam, g.Elem)
		check("@"+g.Nam, g.PtrTy)
		if g.Init != nil {
			check("@"+g.Nam+" initializer", g.Init.Ty)
		}
	}
	for _, f := range m.Funcs {
		check("@"+f.Nam, f.Sig)
		for _, p := range f.Params {
			check("@"+f.Nam+" %"+p.Nam, p.Ty)
		}
		f.Instructions(func(in *Instr) {
			check(InstrString(in), in.Ty)
			check(InstrString(in), in.AllocTy)
			for _, op := range in.Operands {
				if c, ok := op.(*Const); ok {
					check(InstrString(in)+" constant", c.Ty)
				}
			}
		})
	}
}

func TestLinkImportsForeignTypes(t *testing.T) {
	a := MustParseModule(CrossContextUnitA)
	b := MustParseModule(CrossContextUnitB)
	wantB := ModuleString(b)
	bTypes := len(b.Ctx.byKey)
	linked, err := LinkModules("prog", a, b)
	if err != nil {
		t.Fatal(err)
	}
	checkInterned(t, linked)
	if got := ModuleString(b); got != wantB {
		t.Error("LinkModules modified its input")
	}
	if n := len(b.Ctx.byKey); n != bTypes {
		t.Errorf("input context grew from %d to %d types", bTypes, n)
	}
	// The linked text equals the two units parsed as one, with @a's
	// declaration resolved to its definition.
	one := MustParseModule(CrossContextUnitA + strings.Replace(CrossContextUnitB, "declare i32 @a(i32)\n", "", 1))
	if got, want := ModuleString(linked), ModuleString(one); got != strings.Replace(want, `module "module"`, `module "prog"`, 1) {
		t.Errorf("cross-context link differs from the single-context module:\n%s\nwant:\n%s", got, want)
	}
	fb := linked.Func("b")
	if fp := fb.Params[1].Ty; !fp.IsPointer() || fp.Elem.Kind != FuncKind {
		t.Errorf("@b's function-pointer parameter has type %s", fp)
	}
	if log := linked.Func("log"); !log.Sig.Variadic || !log.IsDecl() {
		t.Errorf("@log = %s, want a variadic declaration", log.Sig)
	}
}

func TestLinkImportsSpecialConstants(t *testing.T) {
	a := MustParseModule(CrossContextUnitA)
	b := MustParseModule(`
global @fz double = 1.0
global @np i8* = null
define double @k(double %x) {
entry:
  %a = fadd double %x, 1.0
  %b = fadd double %a, 2.0
  %c = fadd double %b, 3.0
  %d = fadd double %c, 4.0
  %u = fadd double %d, undef
  %s = alloca i8*
  store i8* null, i8** %s
  ret double %u
}`)
	// The printer has no spelling for NaN or the infinities, so they are
	// patched in after parsing; a textual link could not carry them.
	negZero := math.Copysign(0, -1)
	special := map[float64]float64{1: math.NaN(), 2: math.Inf(1), 3: math.Inf(-1), 4: negZero}
	b.Func("k").Instructions(func(in *Instr) {
		if in.Op != OpFAdd {
			return
		}
		if c, ok := in.Operands[1].(*Const); ok && !c.Undef {
			c.FloatVal = special[c.FloatVal]
		}
	})
	b.Global("fz").Init.FloatVal = negZero

	linked, err := LinkModules("prog", a, b)
	if err != nil {
		t.Fatal(err)
	}
	checkInterned(t, linked)
	var got []*Const
	linked.Func("k").Instructions(func(in *Instr) {
		for _, op := range in.Operands {
			if c, ok := op.(*Const); ok {
				got = append(got, c)
			}
		}
	})
	if len(got) != 6 {
		t.Fatalf("got %d constants, want 6", len(got))
	}
	if !math.IsNaN(got[0].FloatVal) || !math.IsInf(got[1].FloatVal, 1) || !math.IsInf(got[2].FloatVal, -1) {
		t.Errorf("NaN/+Inf/-Inf became %v %v %v", got[0].FloatVal, got[1].FloatVal, got[2].FloatVal)
	}
	if got[3].FloatVal != 0 || !math.Signbit(got[3].FloatVal) {
		t.Errorf("-0 became %v", got[3].FloatVal)
	}
	if !got[4].Undef || got[4].Ty != linked.Ctx.F64 {
		t.Errorf("undef became %+v", got[4])
	}
	if !got[5].Null || got[5].Ty != linked.Ctx.Pointer(linked.Ctx.I8) {
		t.Errorf("null became %+v", got[5])
	}
	if fz := linked.Global("fz").Init; !math.Signbit(fz.FloatVal) || fz.Ty != linked.Ctx.F64 {
		t.Errorf("@fz initializer became %+v", fz)
	}
	if np := linked.Global("np").Init; !np.Null || np.Ty != linked.Ctx.Pointer(linked.Ctx.I8) {
		t.Errorf("@np initializer became %+v", np)
	}
	// The input keeps its own constants.
	if c := b.Global("fz").Init; c == linked.Global("fz").Init {
		t.Error("initializer shared with a foreign input")
	}
}

func TestLinkRulesAcrossTypeContexts(t *testing.T) {
	// Every MustParseModule has its own context, so each pair below is
	// linked through the type importer.
	link := func(srcs ...string) (*Module, error) {
		var mods []*Module
		for _, s := range srcs {
			mods = append(mods, MustParseModule(s))
		}
		return LinkModules("p", mods...)
	}
	m, err := link(`global @x {i32, double} = undef
global @y double = 2.5`, `global @x {i32, double} = undef
global @y double = 2.5
global @z [2 x i8*]`)
	if err != nil {
		t.Fatalf("equal initializers rejected: %v", err)
	}
	if y := m.Global("y").Init; y == nil || y.FloatVal != 2.5 || y.Ty != m.Ctx.F64 {
		t.Errorf("@y initializer = %+v", y)
	}
	if _, err := link(`global @y double = 2.5`, `global @y double = 3.5`); err == nil || !strings.Contains(err.Error(), "multiply initialized") {
		t.Errorf("differing initializers: err = %v", err)
	}
	if _, err := link(`declare i32 @g({i32, i8}*)`, `declare i32 @g({i32, i16}*)`); err == nil || !strings.Contains(err.Error(), "conflicting signatures") {
		t.Errorf("conflicting struct signatures: err = %v", err)
	}
	if _, err := link(`declare i32 @v(i8*, ...)`, `declare i32 @v(i8*)`); err == nil || !strings.Contains(err.Error(), "conflicting signatures") {
		t.Errorf("variadic vs fixed signature: err = %v", err)
	}
	if _, err := link(`global @w [2 x i32]`, `global @w [3 x i32]`); err == nil || !strings.Contains(err.Error(), "conflicting types") {
		t.Errorf("conflicting array types: err = %v", err)
	}
}
