package ir

import "strconv"

// CloneModule deep-copies a module: globals, function definitions and
// all cross-references (calls, global operands) are remapped into the
// copy. The clone shares the TypeContext with the original, which is
// safe because contexts only intern immutable types. Experiments use
// this to run several strategies on identical populations without
// regenerating them.
func CloneModule(src *Module) *Module {
	dst := &Module{
		Name:       src.Name,
		Ctx:        src.Ctx,
		funcByName: make(map[string]*Function, len(src.Funcs)),
		globByName: make(map[string]*GlobalVar, len(src.Globs)),
	}
	for _, g := range src.Globs {
		dst.NewGlobal(g.Nam, g.Elem, g.Init)
	}
	// Create all functions first so call operands can remap.
	clones := make(map[*Function]*Function, len(src.Funcs))
	for _, f := range src.Funcs {
		clones[f] = CloneFunc(dst, f, f.Nam)
	}
	// Remap cross-function and global references.
	for _, f := range dst.Funcs {
		f.Instructions(func(in *Instr) {
			for i, op := range in.Operands {
				switch v := op.(type) {
				case *Function:
					if nf, ok := clones[v]; ok {
						in.Operands[i] = nf
					}
				case *GlobalVar:
					in.Operands[i] = dst.Global(v.Nam)
				}
			}
		})
	}
	return dst
}

// CloneFunc deep-copies function src into module dst under the given
// name. Both modules must share the same TypeContext (cloning within one
// module satisfies this trivially). References to other functions and
// globals are preserved as-is, so cross-module cloning requires dst to
// contain the same referents.
func CloneFunc(dst *Module, src *Function, name string) *Function {
	out := dst.NewFunc(name, src.Sig)
	for i, p := range src.Params {
		out.Params[i].Nam = p.Nam
	}
	if src.IsDecl() {
		return out
	}

	vmap := make(map[Value]Value, src.NumInstrs()+len(src.Params))
	for i, p := range src.Params {
		vmap[p] = out.Params[i]
	}
	bmap := make(map[*Block]*Block, len(src.Blocks))
	for _, b := range src.Blocks {
		nb := out.NewBlock(b.Nam)
		bmap[b] = nb
		vmap[b] = nb
	}

	// First pass: copy instructions with operands still pointing at the
	// source values.
	for _, b := range src.Blocks {
		nb := bmap[b]
		nb.Instrs = make([]*Instr, 0, len(b.Instrs))
		for _, in := range b.Instrs {
			ni := &Instr{
				Op:        in.Op,
				Ty:        in.Ty,
				Nam:       in.Nam,
				Predicate: in.Predicate,
				AllocTy:   in.AllocTy,
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

	// Second pass: remap operands into the clone.
	out.Instructions(func(in *Instr) {
		for i, op := range in.Operands {
			if nv, ok := vmap[op]; ok {
				in.Operands[i] = nv
			}
		}
	})
	out.nextID = src.nextID
	return out
}

// CloneArena recycles the block and instruction objects of short-lived
// function clones. The merger clones a pair, demotes it, aligns it
// and throws the clone away — thousands of times per
// run — so the arena keeps freelists of dead blocks/instructions (with
// their operand-slice capacity) plus reusable remap tables, turning the
// per-clone allocation storm into a handful of appends.
//
// An arena is not safe for concurrent use; each worker owns one.
type CloneArena struct {
	instrs []*Instr
	blocks []*Block
	vmap   map[Value]Value
	bmap   map[*Block]*Block
}

// NewCloneArena returns an empty arena.
func NewCloneArena() *CloneArena {
	return &CloneArena{
		vmap: make(map[Value]Value, 64),
		bmap: make(map[*Block]*Block, 16),
	}
}

func (ar *CloneArena) instr() *Instr {
	if n := len(ar.instrs); n > 0 {
		in := ar.instrs[n-1]
		ar.instrs[n-1] = nil
		ar.instrs = ar.instrs[:n-1]
		return in
	}
	return &Instr{}
}

func (ar *CloneArena) block() *Block {
	if n := len(ar.blocks); n > 0 {
		b := ar.blocks[n-1]
		ar.blocks[n-1] = nil
		ar.blocks = ar.blocks[:n-1]
		return b
	}
	return &Block{}
}

// NewInstr returns a zeroed instruction from the freelist (or a fresh
// one), for callers that build short-lived functions instruction by
// instruction and Recycle them afterwards. Its Operands and
// IncomingBlocks are empty but may keep recycled capacity.
func (ar *CloneArena) NewInstr() *Instr { return ar.instr() }

// NewBlock is Function.NewBlock drawing the block from the arena's
// freelist: it appends a new block named name (or a fresh "bb<n>" name
// when empty) to f and returns it.
func (ar *CloneArena) NewBlock(f *Function, name string) *Block {
	b := ar.block()
	if name == "" {
		name = "bb" + strconv.Itoa(f.nextID)
		f.nextID++
	}
	b.Nam = name
	b.Parent = f
	if f.Parent != nil {
		b.labelType = f.Parent.Ctx.Label
	}
	f.Blocks = append(f.Blocks, b)
	return b
}

// CloneFunc is CloneFunc drawing blocks and instructions from the
// arena's freelists. The clone is indistinguishable from a fresh one;
// pass it to Recycle when done to return its storage.
func (ar *CloneArena) CloneFunc(dst *Module, src *Function, name string) *Function {
	out := dst.NewFunc(name, src.Sig)
	for i, p := range src.Params {
		out.Params[i].Nam = p.Nam
	}
	if src.IsDecl() {
		return out
	}

	clear(ar.vmap)
	clear(ar.bmap)
	vmap, bmap := ar.vmap, ar.bmap
	for i, p := range src.Params {
		vmap[p] = out.Params[i]
	}
	if cap(out.Blocks) < len(src.Blocks) {
		out.Blocks = make([]*Block, 0, len(src.Blocks))
	}
	for _, b := range src.Blocks {
		nb := ar.block()
		nb.Nam = b.Nam
		nb.Parent = out
		nb.labelType = dst.Ctx.Label
		out.Blocks = append(out.Blocks, nb)
		bmap[b] = nb
		vmap[b] = nb
	}

	for _, b := range src.Blocks {
		nb := bmap[b]
		if cap(nb.Instrs) < len(b.Instrs) {
			nb.Instrs = make([]*Instr, 0, len(b.Instrs))
		}
		for _, in := range b.Instrs {
			ni := ar.instr()
			ni.Op = in.Op
			ni.Ty = in.Ty
			ni.Nam = in.Nam
			ni.Predicate = in.Predicate
			ni.AllocTy = in.AllocTy
			ni.Operands = append(ni.Operands[:0], in.Operands...)
			if len(in.IncomingBlocks) > 0 {
				ni.IncomingBlocks = ni.IncomingBlocks[:0]
				for _, ib := range in.IncomingBlocks {
					ni.IncomingBlocks = append(ni.IncomingBlocks, bmap[ib])
				}
			}
			ni.Parent = nb
			nb.Instrs = append(nb.Instrs, ni)
			vmap[in] = ni
		}
	}

	out.Instructions(func(in *Instr) {
		for i, op := range in.Operands {
			if nv, ok := vmap[op]; ok {
				in.Operands[i] = nv
			}
		}
	})
	out.nextID = src.nextID
	return out
}

// Recycle returns the blocks and instructions of a dead clone to the
// arena. The function must already be out of circulation: removed from
// its module (or the module about to be Reset) and unreferenced by any
// live IR — passes may have detached some of its original objects, so
// only what is still attached comes back. Operand and incoming lists
// are cleared (keeping capacity) so recycled storage pins no values.
func (ar *CloneArena) Recycle(f *Function) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i := range in.Operands {
				in.Operands[i] = nil
			}
			in.Operands = in.Operands[:0]
			for i := range in.IncomingBlocks {
				in.IncomingBlocks[i] = nil
			}
			in.IncomingBlocks = in.IncomingBlocks[:0]
			in.Op = OpInvalid
			in.Ty = nil
			in.AllocTy = nil
			in.Nam = ""
			in.Predicate = 0
			in.Parent = nil
			ar.instrs = append(ar.instrs, in)
		}
		for i := range b.Instrs {
			b.Instrs[i] = nil
		}
		b.Instrs = b.Instrs[:0]
		b.Parent = nil
		b.Nam = ""
		b.labelType = nil
		ar.blocks = append(ar.blocks, b)
	}
	for i := range f.Blocks {
		f.Blocks[i] = nil
	}
	f.Blocks = f.Blocks[:0]
}
