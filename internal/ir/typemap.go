package ir

// typeImporter re-interns types and constants of other contexts into
// one target context, the way LLVM's IRMover maps types between
// modules: bottom-up, so a type's components are interned before the
// type itself, and memoized per source type. It only reads its
// sources; their contexts stay untouched.
//
// A nil importer is the identity, for inputs that already live in the
// target context.
type typeImporter struct {
	dst  *TypeContext
	memo map[*Type]*Type
}

func newTypeImporter(dst *TypeContext) *typeImporter {
	return &typeImporter{dst: dst, memo: make(map[*Type]*Type)}
}

// typ returns t's counterpart in the target context (nil for nil).
func (im *typeImporter) typ(t *Type) *Type {
	if im == nil || t == nil {
		return t
	}
	if nt, ok := im.memo[t]; ok {
		return nt
	}
	var nt *Type
	switch t.Kind {
	case VoidKind:
		nt = im.dst.Void
	case LabelKind:
		nt = im.dst.Label
	case IntKind:
		nt = im.dst.Int(t.Bits)
	case FloatKind:
		nt = im.dst.Float(t.Bits)
	case PointerKind:
		nt = im.dst.Pointer(im.typ(t.Elem))
	case ArrayKind:
		nt = im.dst.Array(t.Len, im.typ(t.Elem))
	case StructKind:
		nt = im.dst.intern(&Type{Kind: StructKind, Fields: im.types(t.Fields)})
	case FuncKind:
		ret := im.typ(t.Elem)
		nt = im.dst.intern(&Type{Kind: FuncKind, Elem: ret, Fields: im.types(t.Fields), Variadic: t.Variadic})
	default:
		panic("ir: import of unknown type kind")
	}
	im.memo[t] = nt
	return nt
}

func (im *typeImporter) types(ts []*Type) []*Type {
	out := make([]*Type, len(ts))
	for i, t := range ts {
		out[i] = im.typ(t)
	}
	return out
}

// constant copies c with its type imported (nil for nil).
func (im *typeImporter) constant(c *Const) *Const {
	if im == nil || c == nil {
		return c
	}
	nc := *c
	nc.Ty = im.typ(c.Ty)
	return &nc
}

// value imports the type an operand reference carries. A function's
// value type is the pointer to its signature; it is built in the
// target so the source context gains no pointer type.
func (im *typeImporter) value(v Value) {
	switch v := v.(type) {
	case *Block:
		// label: pre-interned in every context.
	case *Function:
		im.dst.Pointer(im.typ(v.Sig))
	default:
		im.typ(v.Type())
	}
}

// module imports every type m mentions, in the order ParseModule meets
// them in m's printed form: global and function headers, then the
// bodies, each instruction's types in the order they are printed. A
// callee's type is not printed, so it is skipped; where the printer
// puts a result type first (load, call, phi), that type is a component
// of an operand's or already interned, so operand-first order agrees.
// New types thus get the dense IDs a print/parse round-trip would give
// them, which keeps instruction encodings, and with them every merge
// decision, independent of whether a module moved as text or
// structurally.
func (im *typeImporter) module(m *Module) {
	for _, g := range m.Globs {
		im.typ(g.PtrTy)
	}
	for _, f := range m.Funcs {
		im.typ(f.Sig)
	}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				im.typ(in.AllocTy)
				for i, v := range in.Operands {
					if i == 0 && (in.Op == OpCall || in.Op == OpInvoke) {
						continue
					}
					im.value(v)
				}
				im.typ(in.Ty)
			}
		}
	}
}

// declareInto adds a header for f to out: same name, parameter names
// and (imported) signature, no body.
func declareInto(out *Module, f *Function, im *typeImporter) *Function {
	nf := out.NewFunc(f.Nam, im.typ(f.Sig))
	for i, p := range f.Params {
		nf.Params[i].Nam = p.Nam
	}
	return nf
}

// cloneBodyInto copies src's body and parameter names into dst, a
// header of src's signature in module out (possibly from another
// unit's declaration). Function and global references are remapped by
// name into out, so out must already hold every header and global the
// body refers to; types and constants go through im.
func cloneBodyInto(out *Module, dst *Function, src *Function, im *typeImporter) {
	vmap := make(map[Value]Value, src.NumInstrs()+len(src.Params))
	for i, p := range src.Params {
		dst.Params[i].Nam = p.Nam
		vmap[p] = dst.Params[i]
	}
	bmap := make(map[*Block]*Block, len(src.Blocks))
	for _, b := range src.Blocks {
		nb := dst.NewBlock(b.Nam)
		bmap[b] = nb
		vmap[b] = nb
	}
	for _, b := range src.Blocks {
		nb := bmap[b]
		nb.Instrs = make([]*Instr, 0, len(b.Instrs))
		for _, in := range b.Instrs {
			ni := &Instr{
				Op:        in.Op,
				Ty:        im.typ(in.Ty),
				Nam:       in.Nam,
				Predicate: in.Predicate,
				AllocTy:   im.typ(in.AllocTy),
				Operands:  append([]Value(nil), in.Operands...),
			}
			if len(in.IncomingBlocks) > 0 {
				ni.IncomingBlocks = make([]*Block, len(in.IncomingBlocks))
				for i, ib := range in.IncomingBlocks {
					ni.IncomingBlocks[i] = bmap[ib]
				}
			}
			nb.Append(ni)
			vmap[in] = ni
		}
	}
	dst.Instructions(func(in *Instr) {
		for i, op := range in.Operands {
			switch v := op.(type) {
			case *Function:
				in.Operands[i] = out.Func(v.Nam)
			case *GlobalVar:
				in.Operands[i] = out.Global(v.Nam)
			case *Const:
				in.Operands[i] = im.constant(v)
			default:
				if nv, ok := vmap[op]; ok {
					in.Operands[i] = nv
				}
			}
		}
	})
}
