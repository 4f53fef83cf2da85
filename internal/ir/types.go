// Package ir implements a typed SSA intermediate representation modelled
// after LLVM IR, providing exactly the surface that function merging
// inspects: instruction opcodes, result and operand types, control-flow
// structure, and SSA use-def relations.
//
// A Module owns functions and globals. Types are interned in a
// TypeContext so that identical types are pointer-identical, mirroring
// LLVM's uniqued types; the F3M instruction encoding relies on this to
// assign a stable small integer to every distinct type.
package ir

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// TypeKind discriminates the structural kind of a Type.
type TypeKind uint8

// Type kinds.
const (
	VoidKind TypeKind = iota
	IntKind
	FloatKind
	PointerKind
	ArrayKind
	StructKind
	FuncKind
	LabelKind
)

// Type is an interned IR type. Two types in the same TypeContext are
// structurally equal if and only if they are pointer-identical.
type Type struct {
	Kind TypeKind

	// Bits is the width of an integer type (1, 8, 16, 32, 64) or of a
	// floating-point type (32 or 64).
	Bits int

	// Elem is the element type of a pointer or array type, and the
	// return type of a function type.
	Elem *Type

	// Len is the element count of an array type.
	Len int

	// Fields are the field types of a struct type, or the parameter
	// types of a function type.
	Fields []*Type

	// Variadic marks a variadic function type.
	Variadic bool

	// id is a dense identifier unique within the owning TypeContext,
	// assigned in interning order. It feeds the instruction encoding.
	id int

	// ptrTo caches the interned pointer-to-this type, guarded by the
	// owning context's mutex. Pointer lookups are the hottest interning
	// path (every EncodeInstr of a call operand, every phi demotion);
	// the cache turns them into a single pointer read under the lock.
	ptrTo *Type
}

// ID returns the dense per-context identifier of the type.
func (t *Type) ID() int { return t.id }

// IsInt reports whether t is an integer type.
func (t *Type) IsInt() bool { return t.Kind == IntKind }

// IsFloat reports whether t is a floating-point type.
func (t *Type) IsFloat() bool { return t.Kind == FloatKind }

// IsPointer reports whether t is a pointer type.
func (t *Type) IsPointer() bool { return t.Kind == PointerKind }

// IsVoid reports whether t is the void type.
func (t *Type) IsVoid() bool { return t.Kind == VoidKind }

// IsAggregate reports whether t is an array or struct type.
func (t *Type) IsAggregate() bool { return t.Kind == ArrayKind || t.Kind == StructKind }

// IsFirstClass reports whether values of type t can be produced by
// instructions and passed as operands.
func (t *Type) IsFirstClass() bool {
	return t.Kind != VoidKind && t.Kind != FuncKind && t.Kind != LabelKind
}

// String renders the type in the textual IR syntax.
func (t *Type) String() string {
	switch t.Kind {
	case VoidKind:
		return "void"
	case IntKind:
		return fmt.Sprintf("i%d", t.Bits)
	case FloatKind:
		if t.Bits == 32 {
			return "float"
		}
		return "double"
	case PointerKind:
		return t.Elem.String() + "*"
	case ArrayKind:
		return fmt.Sprintf("[%d x %s]", t.Len, t.Elem)
	case StructKind:
		parts := make([]string, len(t.Fields))
		for i, f := range t.Fields {
			parts[i] = f.String()
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case FuncKind:
		parts := make([]string, len(t.Fields))
		for i, f := range t.Fields {
			parts[i] = f.String()
		}
		if t.Variadic {
			parts = append(parts, "...")
		}
		return t.Elem.String() + "(" + strings.Join(parts, ", ") + ")"
	case LabelKind:
		return "label"
	}
	return "<badtype>"
}

// TypeContext interns types. All types used in one Module must come from
// the Module's context; mixing contexts breaks pointer-equality checks.
//
// Interning is guarded by a mutex, so looking up (or creating) types is
// safe from concurrent goroutines — the pipeline's parallel
// fingerprinting encodes functions of one context at once. Note that
// thread-safety is not the same as ID determinism: dense type IDs are
// assigned in interning order, so code that must keep IDs
// schedule-independent may intern new types only from one goroutine
// (the pipeline's sequential merge loop).
type TypeContext struct {
	mu    sync.Mutex
	byKey map[string]*Type
	next  int

	// Pre-interned common types.
	Void  *Type
	I1    *Type
	I8    *Type
	I16   *Type
	I32   *Type
	I64   *Type
	F32   *Type
	F64   *Type
	Label *Type
}

// NewTypeContext returns a context with the common primitive types
// pre-interned.
func NewTypeContext() *TypeContext {
	c := &TypeContext{byKey: make(map[string]*Type)}
	c.Void = c.intern(&Type{Kind: VoidKind})
	c.I1 = c.Int(1)
	c.I8 = c.Int(8)
	c.I16 = c.Int(16)
	c.I32 = c.Int(32)
	c.I64 = c.Int(64)
	c.F32 = c.intern(&Type{Kind: FloatKind, Bits: 32})
	c.F64 = c.intern(&Type{Kind: FloatKind, Bits: 64})
	c.Label = c.intern(&Type{Kind: LabelKind})
	return c
}

func (c *TypeContext) intern(t *Type) *Type {
	// typeKey reads only immutable fields of already-interned element
	// types, so it can run outside the lock.
	key := typeKey(t)
	c.mu.Lock()
	defer c.mu.Unlock()
	if got, ok := c.byKey[key]; ok {
		return got
	}
	t.id = c.next
	c.next++
	c.byKey[key] = t
	return t
}

// typeKey builds a structural hash key. Element types are already
// interned so their ids identify them. Built with strconv appends into
// a stack buffer — interning runs on the merge hot path (each merged
// signature, each demotion's pointer type) and must not pay fmt.
func typeKey(t *Type) string {
	var stack [64]byte
	b := stack[:0]
	b = strconv.AppendInt(b, int64(t.Kind), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(t.Bits), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(t.Len), 10)
	if t.Elem != nil {
		b = append(b, ':', 'e')
		b = strconv.AppendInt(b, int64(t.Elem.id), 10)
	}
	for _, f := range t.Fields {
		b = append(b, ':', 'f')
		b = strconv.AppendInt(b, int64(f.id), 10)
	}
	if t.Variadic {
		b = append(b, ':', 'v')
	}
	return string(b)
}

// NumTypes returns how many distinct types have been interned.
func (c *TypeContext) NumTypes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.next
}

// Int returns the integer type of the given bit width.
func (c *TypeContext) Int(bits int) *Type {
	return c.intern(&Type{Kind: IntKind, Bits: bits})
}

// Float returns the floating-point type of the given width (32 or 64).
func (c *TypeContext) Float(bits int) *Type {
	if bits != 32 && bits != 64 {
		panic(fmt.Sprintf("ir: invalid float width %d", bits))
	}
	return c.intern(&Type{Kind: FloatKind, Bits: bits})
}

// Pointer returns the pointer type to elem. The first lookup per
// element interns and caches; later lookups are a pointer read, with
// no probe allocation and no key construction.
func (c *TypeContext) Pointer(elem *Type) *Type {
	c.mu.Lock()
	if p := elem.ptrTo; p != nil {
		c.mu.Unlock()
		return p
	}
	c.mu.Unlock()
	p := c.intern(&Type{Kind: PointerKind, Elem: elem})
	c.mu.Lock()
	elem.ptrTo = p
	c.mu.Unlock()
	return p
}

// Array returns the array type [n x elem].
func (c *TypeContext) Array(n int, elem *Type) *Type {
	return c.intern(&Type{Kind: ArrayKind, Len: n, Elem: elem})
}

// Struct returns the struct type with the given field types.
func (c *TypeContext) Struct(fields ...*Type) *Type {
	return c.intern(&Type{Kind: StructKind, Fields: append([]*Type(nil), fields...)})
}

// Func returns the function type ret(params...).
func (c *TypeContext) Func(ret *Type, params ...*Type) *Type {
	return c.intern(&Type{Kind: FuncKind, Elem: ret, Fields: append([]*Type(nil), params...)})
}

// VariadicFunc returns the variadic function type ret(params..., ...).
func (c *TypeContext) VariadicFunc(ret *Type, params ...*Type) *Type {
	return c.intern(&Type{Kind: FuncKind, Elem: ret, Fields: append([]*Type(nil), params...), Variadic: true})
}

// SizeOf returns the size model of a type in abstract bytes. It is the
// unit used by the code-size and profitability models; pointers count as
// 8 bytes, matching a 64-bit target.
func SizeOf(t *Type) int {
	switch t.Kind {
	case VoidKind, LabelKind, FuncKind:
		return 0
	case IntKind:
		if t.Bits <= 8 {
			return 1
		}
		return t.Bits / 8
	case FloatKind:
		return t.Bits / 8
	case PointerKind:
		return 8
	case ArrayKind:
		return t.Len * SizeOf(t.Elem)
	case StructKind:
		n := 0
		for _, f := range t.Fields {
			n += SizeOf(f)
		}
		return n
	}
	return 0
}
