// Package interp is a definitional interpreter for the IR in
// internal/ir. It exists for two reasons: differential testing that
// merged functions preserve the semantics of the originals, and the
// paper's Figure 17 experiment, which measures the runtime cost merged
// code adds as extra dynamic instructions.
//
// Memory is modelled as typed objects of scalar slots; pointers are
// (object, slot) pairs, so wild pointer arithmetic is detected rather
// than silently misinterpreted.
package interp

import (
	"errors"
	"fmt"
	"math"

	"f3m/internal/ir"
)

// Pointer references a slot within a memory object. The nil object is
// the null pointer.
type Pointer struct {
	Obj *Object
	Off int
}

// IsNull reports whether the pointer is null.
func (p Pointer) IsNull() bool { return p.Obj == nil }

// Object is an allocated memory region holding scalar slots.
type Object struct {
	// Slots hold scalar values; aggregates are flattened leaf-by-leaf.
	Slots []Val
}

// Val is a runtime scalar value.
type Val struct {
	Ty *ir.Type
	I  int64
	F  float64
	P  Pointer
	Fn *ir.Function
}

// IntVal returns an integer value of the given type.
func IntVal(ty *ir.Type, v int64) Val { return Val{Ty: ty, I: trunc(v, ty.Bits)} }

// FloatVal returns a floating-point value of the given type.
func FloatVal(ty *ir.Type, v float64) Val {
	if ty.Bits == 32 {
		v = float64(float32(v))
	}
	return Val{Ty: ty, F: v}
}

// String renders the value for diagnostics.
func (v Val) String() string {
	switch {
	case v.Ty == nil:
		return "<void>"
	case v.Ty.IsInt():
		return fmt.Sprintf("%s %d", v.Ty, v.I)
	case v.Ty.IsFloat():
		return fmt.Sprintf("%s %g", v.Ty, v.F)
	case v.Fn != nil:
		return "@" + v.Fn.Name()
	case v.P.IsNull():
		return v.Ty.String() + " null"
	default:
		return fmt.Sprintf("%s obj+%d", v.Ty, v.P.Off)
	}
}

// Equal reports whether two values are observably identical. Pointers
// compare by identity of object and offset.
func (v Val) Equal(o Val) bool {
	if v.Ty != o.Ty {
		return false
	}
	switch {
	case v.Ty == nil:
		return true
	case v.Ty.IsInt():
		return v.I == o.I
	case v.Ty.IsFloat():
		return v.F == o.F || (math.IsNaN(v.F) && math.IsNaN(o.F))
	default:
		return v.P == o.P && v.Fn == o.Fn
	}
}

// Builtin is a host implementation for a declared (bodyless) function.
type Builtin func(m *Machine, args []Val) (Val, error)

// Machine executes IR. A Machine is single-threaded and reusable across
// calls; global state persists between calls.
type Machine struct {
	Mod      *ir.Module
	Builtins map[string]Builtin

	// StepLimit bounds the total executed instructions per Machine (not
	// per call); zero means DefaultStepLimit.
	StepLimit int64

	// Steps is the number of instructions executed so far; it is the
	// dynamic instruction counter used by the Fig. 17 experiment.
	Steps int64

	// OpCounts tallies executed instructions by opcode.
	OpCounts [ir.NumOpcodes]int64

	// CallCounts tallies invocations per function name — the profile
	// the profile-guided merging extension consumes.
	CallCounts map[string]int64

	globals map[*ir.GlobalVar]*Object
	depth   int
}

// DefaultStepLimit is the per-Machine instruction budget when StepLimit
// is left zero.
const DefaultStepLimit = 50_000_000

// maxCallDepth bounds recursion so runaway IR fails fast instead of
// exhausting the host stack.
const maxCallDepth = 10_000

// ErrStepLimit is returned when execution exceeds the step budget.
var ErrStepLimit = errors.New("interp: step limit exceeded")

// NewMachine returns a machine for the module with globals initialized.
func NewMachine(m *ir.Module) *Machine {
	mach := &Machine{
		Mod:        m,
		Builtins:   make(map[string]Builtin),
		CallCounts: make(map[string]int64),
		globals:    make(map[*ir.GlobalVar]*Object),
	}
	for _, g := range m.Globs {
		obj := &Object{Slots: make([]Val, slotCount(g.Elem))}
		initObject(obj, g.Elem, 0, g.Init)
		mach.globals[g] = obj
	}
	return mach
}

// slotCount returns how many scalar slots a type occupies.
func slotCount(t *ir.Type) int {
	switch t.Kind {
	case ir.ArrayKind:
		return t.Len * slotCount(t.Elem)
	case ir.StructKind:
		n := 0
		for _, f := range t.Fields {
			n += slotCount(f)
		}
		return n
	default:
		return 1
	}
}

// initObject fills slots from base with the zero (or given scalar)
// value of type t.
func initObject(obj *Object, t *ir.Type, base int, init *ir.Const) {
	switch t.Kind {
	case ir.ArrayKind:
		sz := slotCount(t.Elem)
		for i := 0; i < t.Len; i++ {
			initObject(obj, t.Elem, base+i*sz, nil)
		}
	case ir.StructKind:
		off := base
		for _, f := range t.Fields {
			initObject(obj, f, off, nil)
			off += slotCount(f)
		}
	default:
		v := Val{Ty: t}
		if init != nil {
			v = constVal(init)
		}
		obj.Slots[base] = v
	}
}

func constVal(c *ir.Const) Val {
	switch {
	case c.Ty.IsInt():
		return Val{Ty: c.Ty, I: c.IntVal}
	case c.Ty.IsFloat():
		return Val{Ty: c.Ty, F: c.FloatVal}
	default:
		return Val{Ty: c.Ty} // null / undef pointer
	}
}

// Call executes function f with the given arguments.
func (m *Machine) Call(f *ir.Function, args ...Val) (Val, error) {
	if m.StepLimit == 0 {
		m.StepLimit = DefaultStepLimit
	}
	return m.call(f, args)
}

func (m *Machine) call(f *ir.Function, args []Val) (Val, error) {
	m.CallCounts[f.Name()]++
	if f.IsDecl() {
		bi, ok := m.Builtins[f.Name()]
		if !ok {
			return Val{}, fmt.Errorf("interp: call to undefined @%s", f.Name())
		}
		return bi(m, args)
	}
	if len(args) != len(f.Params) {
		return Val{}, fmt.Errorf("interp: @%s: %d args, want %d", f.Name(), len(args), len(f.Params))
	}
	m.depth++
	defer func() { m.depth-- }()
	if m.depth > maxCallDepth {
		return Val{}, fmt.Errorf("interp: call depth limit in @%s", f.Name())
	}

	env := make(map[ir.Value]Val, f.NumInstrs())
	for i, p := range f.Params {
		if args[i].Ty != p.Ty {
			return Val{}, fmt.Errorf("interp: @%s: arg %d type %s, want %s", f.Name(), i, args[i].Ty, p.Ty)
		}
		env[p] = args[i]
	}

	block := f.Entry()
	var prev *ir.Block
	for {
		// Phi nodes evaluate in parallel against the incoming edge.
		phis := block.Phis()
		if len(phis) > 0 {
			tmp := make([]Val, len(phis))
			for i, phi := range phis {
				v := phi.PhiIncoming(prev)
				if v == nil {
					return Val{}, fmt.Errorf("interp: @%s: phi %%%s has no edge from %%%s", f.Name(), phi.Name(), prev.Name())
				}
				ev, err := m.operand(env, v)
				if err != nil {
					return Val{}, err
				}
				tmp[i] = ev
			}
			for i, phi := range phis {
				env[phi] = tmp[i]
				m.Steps++
				m.OpCounts[ir.OpPhi]++
			}
			if m.Steps > m.StepLimit {
				return Val{}, ErrStepLimit
			}
		}

		for _, in := range block.Instrs[block.FirstNonPhi():] {
			m.Steps++
			m.OpCounts[in.Op]++
			if m.Steps > m.StepLimit {
				return Val{}, ErrStepLimit
			}
			switch in.Op {
			case ir.OpRet:
				if len(in.Operands) == 0 {
					return Val{}, nil
				}
				return m.operand(env, in.Operands[0])
			case ir.OpBr:
				prev, block = block, in.Operands[0].(*ir.Block)
			case ir.OpCondBr:
				c, err := m.operand(env, in.Operands[0])
				if err != nil {
					return Val{}, err
				}
				if c.I&1 != 0 {
					prev, block = block, in.Operands[1].(*ir.Block)
				} else {
					prev, block = block, in.Operands[2].(*ir.Block)
				}
			case ir.OpSwitch:
				v, err := m.operand(env, in.Operands[0])
				if err != nil {
					return Val{}, err
				}
				dst := in.Operands[1].(*ir.Block)
				for i := 2; i < len(in.Operands); i += 2 {
					cv := in.Operands[i].(*ir.Const)
					if cv.IntVal == v.I {
						dst = in.Operands[i+1].(*ir.Block)
						break
					}
				}
				prev, block = block, dst
			case ir.OpUnreachable:
				return Val{}, fmt.Errorf("interp: @%s: reached unreachable", f.Name())
			case ir.OpInvoke:
				// No exception model: an invoke behaves as a call that
				// always continues to the normal destination.
				v, err := m.execCall(env, in)
				if err != nil {
					return Val{}, err
				}
				if !in.Ty.IsVoid() {
					env[in] = v
				}
				n := len(in.Operands)
				prev, block = block, in.Operands[n-2].(*ir.Block)
			case ir.OpCall:
				v, err := m.execCall(env, in)
				if err != nil {
					return Val{}, err
				}
				if !in.Ty.IsVoid() {
					env[in] = v
				}
				continue
			default:
				v, err := m.exec(env, in)
				if err != nil {
					return Val{}, fmt.Errorf("@%s: %%%s: %w", f.Name(), in.Name(), err)
				}
				if !in.Ty.IsVoid() {
					env[in] = v
				}
				continue
			}
			break // executed a terminator: continue with next block
		}
	}
}

// operand evaluates an operand in the environment.
func (m *Machine) operand(env map[ir.Value]Val, v ir.Value) (Val, error) {
	switch x := v.(type) {
	case *ir.Const:
		return constVal(x), nil
	case *ir.GlobalVar:
		return Val{Ty: x.Type(), P: Pointer{Obj: m.globals[x]}}, nil
	case *ir.Function:
		return Val{Ty: x.Type(), Fn: x}, nil
	default:
		val, ok := env[v]
		if !ok {
			return Val{}, fmt.Errorf("interp: unbound value %s", v.Ident())
		}
		return val, nil
	}
}

func (m *Machine) execCall(env map[ir.Value]Val, in *ir.Instr) (Val, error) {
	calleeV, err := m.operand(env, in.Operands[0])
	if err != nil {
		return Val{}, err
	}
	callee := calleeV.Fn
	if callee == nil {
		if f, ok := in.Operands[0].(*ir.Function); ok {
			callee = f
		} else {
			return Val{}, errors.New("interp: indirect call through non-function value")
		}
	}
	args := in.CallArgs()
	vals := make([]Val, len(args))
	for i, a := range args {
		vals[i], err = m.operand(env, a)
		if err != nil {
			return Val{}, err
		}
	}
	return m.call(callee, vals)
}

func (m *Machine) exec(env map[ir.Value]Val, in *ir.Instr) (Val, error) {
	op2 := func() (Val, Val, error) {
		a, err := m.operand(env, in.Operands[0])
		if err != nil {
			return Val{}, Val{}, err
		}
		b, err := m.operand(env, in.Operands[1])
		if err != nil {
			return Val{}, Val{}, err
		}
		return a, b, nil
	}

	switch {
	case in.Op.IsBinary():
		a, b, err := op2()
		if err != nil {
			return Val{}, err
		}
		return binary(in.Op, in.Ty, a, b)
	case in.Op.IsCast():
		v, err := m.operand(env, in.Operands[0])
		if err != nil {
			return Val{}, err
		}
		return cast(in.Op, in.Ty, v)
	}

	switch in.Op {
	case ir.OpAlloca:
		obj := &Object{Slots: make([]Val, slotCount(in.AllocTy))}
		initObject(obj, in.AllocTy, 0, nil)
		return Val{Ty: in.Ty, P: Pointer{Obj: obj}}, nil

	case ir.OpLoad:
		p, err := m.operand(env, in.Operands[0])
		if err != nil {
			return Val{}, err
		}
		if p.P.IsNull() {
			return Val{}, errors.New("load through null pointer")
		}
		if p.P.Off < 0 || p.P.Off >= len(p.P.Obj.Slots) {
			return Val{}, fmt.Errorf("load out of bounds: slot %d of %d", p.P.Off, len(p.P.Obj.Slots))
		}
		v := p.P.Obj.Slots[p.P.Off]
		if v.Ty != in.Ty {
			// Loading through a differently-typed pointer view: accept
			// same-width scalars, as linked C code commonly does.
			if v.Ty != nil && v.Ty.Kind == in.Ty.Kind && v.Ty.Bits == in.Ty.Bits {
				v.Ty = in.Ty
			} else if v.Ty == nil {
				v.Ty = in.Ty // uninitialized slot reads as zero
			} else {
				return Val{}, fmt.Errorf("load type %s from slot of type %s", in.Ty, v.Ty)
			}
		}
		return v, nil

	case ir.OpStore:
		v, p, err := op2()
		if err != nil {
			return Val{}, err
		}
		if p.P.IsNull() {
			return Val{}, errors.New("store through null pointer")
		}
		if p.P.Off < 0 || p.P.Off >= len(p.P.Obj.Slots) {
			return Val{}, fmt.Errorf("store out of bounds: slot %d of %d", p.P.Off, len(p.P.Obj.Slots))
		}
		p.P.Obj.Slots[p.P.Off] = v
		return Val{}, nil

	case ir.OpGEP:
		base, err := m.operand(env, in.Operands[0])
		if err != nil {
			return Val{}, err
		}
		off := base.P.Off
		cur := in.Operands[0].Type().Elem
		for i, idxOp := range in.Operands[1:] {
			idx, err := m.operand(env, idxOp)
			if err != nil {
				return Val{}, err
			}
			if i == 0 {
				off += int(idx.I) * slotCount(cur)
				continue
			}
			switch cur.Kind {
			case ir.ArrayKind:
				off += int(idx.I) * slotCount(cur.Elem)
				cur = cur.Elem
			case ir.StructKind:
				for k := 0; k < int(idx.I); k++ {
					off += slotCount(cur.Fields[k])
				}
				cur = cur.Fields[idx.I]
			default:
				return Val{}, fmt.Errorf("gep through scalar %s", cur)
			}
		}
		return Val{Ty: in.Ty, P: Pointer{Obj: base.P.Obj, Off: off}}, nil

	case ir.OpICmp:
		a, b, err := op2()
		if err != nil {
			return Val{}, err
		}
		return icmp(m.Mod.Ctx, in.Predicate, a, b)

	case ir.OpFCmp:
		a, b, err := op2()
		if err != nil {
			return Val{}, err
		}
		return fcmp(m.Mod.Ctx, in.Predicate, a, b)

	case ir.OpSelect:
		c, err := m.operand(env, in.Operands[0])
		if err != nil {
			return Val{}, err
		}
		if c.I&1 != 0 {
			return m.operand(env, in.Operands[1])
		}
		return m.operand(env, in.Operands[2])
	}
	return Val{}, fmt.Errorf("interp: cannot execute %s", in.Op)
}

// FoldBinary evaluates a binary opcode over constant operands with
// exactly the interpreter's semantics. ok is false when folding is
// unsafe (division by zero) or unsupported.
func FoldBinary(op ir.Opcode, ty *ir.Type, a, b *ir.Const) (*ir.Const, bool) {
	av, bv := constVal(a), constVal(b)
	if a.Undef || b.Undef || a.Null || b.Null {
		return nil, false
	}
	out, err := binary(op, ty, av, bv)
	if err != nil {
		return nil, false
	}
	if ty.IsFloat() {
		return ir.ConstFloat(ty, out.F), true
	}
	return ir.ConstInt(ty, out.I), true
}

// FoldCast evaluates a cast of a constant with the interpreter's
// semantics.
func FoldCast(op ir.Opcode, to *ir.Type, v *ir.Const) (*ir.Const, bool) {
	if v.Undef || v.Null || to.IsPointer() || v.Ty.IsPointer() {
		return nil, false
	}
	out, err := cast(op, to, constVal(v))
	if err != nil {
		return nil, false
	}
	if to.IsFloat() {
		return ir.ConstFloat(to, out.F), true
	}
	return ir.ConstInt(to, out.I), true
}

// FoldCmp evaluates an icmp/fcmp of constants, returning the i1 result.
func FoldCmp(ctx *ir.TypeContext, op ir.Opcode, p ir.Pred, a, b *ir.Const) (*ir.Const, bool) {
	if a.Undef || b.Undef || a.Null || b.Null {
		return nil, false
	}
	var out Val
	var err error
	if op == ir.OpICmp {
		out, err = icmp(ctx, p, constVal(a), constVal(b))
	} else {
		out, err = fcmp(ctx, p, constVal(a), constVal(b))
	}
	if err != nil {
		return nil, false
	}
	return ir.ConstInt(ctx.I1, out.I), true
}

func trunc(v int64, bits int) int64 {
	if bits >= 64 {
		return v
	}
	sh := uint(64 - bits)
	return v << sh >> sh
}

func uns(v int64, bits int) uint64 {
	if bits >= 64 {
		return uint64(v)
	}
	return uint64(v) & (1<<uint(bits) - 1)
}

func binary(op ir.Opcode, ty *ir.Type, a, b Val) (Val, error) {
	if ty.IsFloat() {
		var r float64
		switch op {
		case ir.OpFAdd:
			r = a.F + b.F
		case ir.OpFSub:
			r = a.F - b.F
		case ir.OpFMul:
			r = a.F * b.F
		case ir.OpFDiv:
			r = a.F / b.F
		case ir.OpFRem:
			r = math.Mod(a.F, b.F)
		default:
			return Val{}, fmt.Errorf("%s on float type", op)
		}
		return FloatVal(ty, r), nil
	}
	bits := ty.Bits
	var r int64
	switch op {
	case ir.OpAdd:
		r = a.I + b.I
	case ir.OpSub:
		r = a.I - b.I
	case ir.OpMul:
		r = a.I * b.I
	case ir.OpSDiv:
		if b.I == 0 {
			return Val{}, errors.New("sdiv by zero")
		}
		r = a.I / b.I
	case ir.OpUDiv:
		if b.I == 0 {
			return Val{}, errors.New("udiv by zero")
		}
		r = int64(uns(a.I, bits) / uns(b.I, bits))
	case ir.OpSRem:
		if b.I == 0 {
			return Val{}, errors.New("srem by zero")
		}
		r = a.I % b.I
	case ir.OpURem:
		if b.I == 0 {
			return Val{}, errors.New("urem by zero")
		}
		r = int64(uns(a.I, bits) % uns(b.I, bits))
	case ir.OpShl:
		r = a.I << (uns(b.I, bits) % uint64(bits))
	case ir.OpLShr:
		r = int64(uns(a.I, bits) >> (uns(b.I, bits) % uint64(bits)))
	case ir.OpAShr:
		r = a.I >> (uns(b.I, bits) % uint64(bits))
	case ir.OpAnd:
		r = a.I & b.I
	case ir.OpOr:
		r = a.I | b.I
	case ir.OpXor:
		r = a.I ^ b.I
	default:
		return Val{}, fmt.Errorf("%s on int type", op)
	}
	return IntVal(ty, r), nil
}

func cast(op ir.Opcode, to *ir.Type, v Val) (Val, error) {
	switch op {
	case ir.OpTrunc:
		return IntVal(to, v.I), nil
	case ir.OpZExt:
		return IntVal(to, int64(uns(v.I, v.Ty.Bits))), nil
	case ir.OpSExt:
		return IntVal(to, v.I), nil
	case ir.OpFPTrunc, ir.OpFPExt:
		return FloatVal(to, v.F), nil
	case ir.OpFPToSI:
		if math.IsNaN(v.F) || math.IsInf(v.F, 0) {
			return IntVal(to, 0), nil
		}
		return IntVal(to, int64(v.F)), nil
	case ir.OpSIToFP:
		return FloatVal(to, float64(v.I)), nil
	case ir.OpPtrToInt:
		// Model pointer identity, not addresses: only null maps to 0.
		if v.P.IsNull() && v.Fn == nil {
			return IntVal(to, 0), nil
		}
		return IntVal(to, 1), nil
	case ir.OpIntToPtr:
		if v.I == 0 {
			return Val{Ty: to}, nil
		}
		return Val{}, errors.New("inttoptr of non-zero integer is not supported")
	case ir.OpBitcast:
		out := v
		out.Ty = to
		return out, nil
	}
	return Val{}, fmt.Errorf("bad cast %s", op)
}

func icmp(ctx *ir.TypeContext, p ir.Pred, a, b Val) (Val, error) {
	var r bool
	if a.Ty.IsPointer() {
		eq := a.P == b.P && a.Fn == b.Fn
		switch p {
		case ir.PredEQ:
			r = eq
		case ir.PredNE:
			r = !eq
		default:
			return Val{}, fmt.Errorf("pointer icmp %s not supported", p)
		}
		return boolVal(ctx, r), nil
	}
	bits := a.Ty.Bits
	switch p {
	case ir.PredEQ:
		r = a.I == b.I
	case ir.PredNE:
		r = a.I != b.I
	case ir.PredSLT:
		r = a.I < b.I
	case ir.PredSLE:
		r = a.I <= b.I
	case ir.PredSGT:
		r = a.I > b.I
	case ir.PredSGE:
		r = a.I >= b.I
	case ir.PredULT:
		r = uns(a.I, bits) < uns(b.I, bits)
	case ir.PredULE:
		r = uns(a.I, bits) <= uns(b.I, bits)
	case ir.PredUGT:
		r = uns(a.I, bits) > uns(b.I, bits)
	case ir.PredUGE:
		r = uns(a.I, bits) >= uns(b.I, bits)
	default:
		return Val{}, fmt.Errorf("icmp with float predicate %s", p)
	}
	return boolVal(ctx, r), nil
}

func fcmp(ctx *ir.TypeContext, p ir.Pred, a, b Val) (Val, error) {
	if math.IsNaN(a.F) || math.IsNaN(b.F) {
		// All our predicates are ordered: NaN compares false.
		return boolVal(ctx, false), nil
	}
	var r bool
	switch p {
	case ir.PredOEQ:
		r = a.F == b.F
	case ir.PredONE:
		r = a.F != b.F
	case ir.PredOLT:
		r = a.F < b.F
	case ir.PredOLE:
		r = a.F <= b.F
	case ir.PredOGT:
		r = a.F > b.F
	case ir.PredOGE:
		r = a.F >= b.F
	default:
		return Val{}, fmt.Errorf("fcmp with int predicate %s", p)
	}
	return boolVal(ctx, r), nil
}

func boolVal(ctx *ir.TypeContext, b bool) Val {
	if b {
		return Val{Ty: ctx.I1, I: -1} // canonical i1 true (two's complement)
	}
	return Val{Ty: ctx.I1}
}
