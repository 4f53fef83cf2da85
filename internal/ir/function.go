package ir

import (
	"fmt"
	"strconv"
	"sync/atomic"
)

// Block is a basic block: a label, a straight-line instruction list, and
// a single terminator at the end.
type Block struct {
	Nam    string
	Instrs []*Instr
	Parent *Function

	labelType *Type

	// domIdx/domGen cache the block's dense index in the most recently
	// built dominator tree over its function (see DomTree.indexOf). A
	// stale stamp is detected by generation mismatch, never trusted.
	domIdx int32
	domGen uint64
}

// Name returns the block label without the sigil.
func (b *Block) Name() string { return b.Nam }

// Term returns the block terminator, or nil if the block is unterminated
// (only legal mid-construction).
func (b *Block) Term() *Instr {
	if n := len(b.Instrs); n > 0 && b.Instrs[n-1].IsTerminator() {
		return b.Instrs[n-1]
	}
	return nil
}

// Succs returns the successor blocks.
func (b *Block) Succs() []*Block {
	if t := b.Term(); t != nil {
		return t.Successors()
	}
	return nil
}

// Phis returns the leading phi instructions of the block.
func (b *Block) Phis() []*Instr {
	for i, in := range b.Instrs {
		if in.Op != OpPhi {
			return b.Instrs[:i]
		}
	}
	return b.Instrs
}

// FirstNonPhi returns the index of the first non-phi instruction.
func (b *Block) FirstNonPhi() int {
	for i, in := range b.Instrs {
		if in.Op != OpPhi {
			return i
		}
	}
	return len(b.Instrs)
}

// Append adds an instruction at the end of the block and sets its parent.
func (b *Block) Append(in *Instr) {
	in.Parent = b
	b.Instrs = append(b.Instrs, in)
}

// InsertAt inserts an instruction at index i.
func (b *Block) InsertAt(i int, in *Instr) {
	in.Parent = b
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[i+1:], b.Instrs[i:])
	b.Instrs[i] = in
}

// IndexOf returns the index of in within the block, or -1.
func (b *Block) IndexOf(in *Instr) int {
	for i, x := range b.Instrs {
		if x == in {
			return i
		}
	}
	return -1
}

// Function is an IR function: a signature plus, for definitions, a list
// of basic blocks whose first element is the entry block.
type Function struct {
	Nam    string
	Sig    *Type // FuncKind type
	Params []*Param
	Blocks []*Block
	Parent *Module

	// nextID feeds automatic value/block naming.
	nextID int
}

// Type returns the type a function has when used as a value: a pointer
// to its signature, as in LLVM.
func (f *Function) Type() *Type {
	if f.Parent != nil {
		return f.Parent.Ctx.Pointer(f.Sig)
	}
	return f.Sig
}

// Ident renders the function reference.
func (f *Function) Ident() string { return "@" + f.Nam }

// Name returns the function name without the sigil.
func (f *Function) Name() string { return f.Nam }

// ReturnType returns the function's return type.
func (f *Function) ReturnType() *Type { return f.Sig.Elem }

// IsDecl reports whether the function has no body.
func (f *Function) IsDecl() bool { return len(f.Blocks) == 0 }

// Entry returns the entry block.
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		panic("ir: Entry of declaration " + f.Nam)
	}
	return f.Blocks[0]
}

// NewBlock appends a new block with the given name (auto-named if empty).
func (f *Function) NewBlock(name string) *Block {
	if name == "" {
		name = "bb" + strconv.Itoa(f.nextID)
		f.nextID++
	}
	b := &Block{Nam: name, Parent: f}
	if f.Parent != nil {
		b.labelType = f.Parent.Ctx.Label
	}
	f.Blocks = append(f.Blocks, b)
	return b
}

// nextName returns a fresh autogenerated value name.
func (f *Function) nextName() string {
	n := "t" + strconv.Itoa(f.nextID)
	f.nextID++
	return n
}

// FreshName derives a value name unique within the function's naming
// counter, for passes that synthesize instructions. Built in one
// allocation — passes mint these by the thousand.
func (f *Function) FreshName(prefix string) string {
	var stack [48]byte
	b := append(stack[:0], prefix...)
	b = append(b, '.')
	b = strconv.AppendInt(b, int64(f.nextID), 10)
	f.nextID++
	return string(b)
}

// NumInstrs returns the total instruction count across all blocks.
func (f *Function) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// predsInto appends the predecessors of target to buf and returns it —
// in function block order with duplicate-edge multiplicity, exactly
// matching Preds()[target] — without building the whole map.
func predsInto(f *Function, target *Block, buf []*Block) []*Block {
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil {
			continue
		}
		for i, ns := 0, t.NumSuccessors(); i < ns; i++ {
			if t.Successor(i) == target {
				buf = append(buf, b)
			}
		}
	}
	return buf
}

// Preds returns the predecessor map of the function's CFG. The
// per-block lists are carved out of one backing array sized by a
// counting pass, so building the map costs a fixed number of
// allocations instead of one growth chain per block.
func (f *Function) Preds() map[*Block][]*Block {
	counts := make(map[*Block]int, len(f.Blocks))
	total := 0
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil {
			continue
		}
		for i, ns := 0, t.NumSuccessors(); i < ns; i++ {
			counts[t.Successor(i)]++
			total++
		}
	}
	preds := make(map[*Block][]*Block, len(counts))
	backing := make([]*Block, 0, total)
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil {
			continue
		}
		for i, ns := 0, t.NumSuccessors(); i < ns; i++ {
			s := t.Successor(i)
			lst, ok := preds[s]
			if !ok {
				off := len(backing)
				backing = backing[:off+counts[s]]
				lst = backing[off:off:len(backing)]
			}
			preds[s] = append(lst, b)
		}
	}
	return preds
}

// Instructions calls fn for every instruction in block order.
func (f *Function) Instructions(fn func(*Instr)) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			fn(in)
		}
	}
}

// markCounter issues instruction-mark generations; see MarkInstrs.
var markCounter atomic.Uint64

// NextMarkGen returns a fresh mark generation without stamping any
// instructions. Passes that only need the Instr scratch fields
// (ScratchAdd and friends) use it to key a pass-local counter space;
// generations are shared with MarkInstrs and never reused.
func NextMarkGen() uint64 { return markCounter.Add(1) }

// MarkInstrs stamps every instruction currently attached to f with a
// fresh generation and returns it, so passes can test membership with
// Instr.Marked instead of building a set map per call. A mark stays
// valid until another MarkInstrs call restamps the same instructions;
// generations are never reused, so stale stamps cannot false-positive.
func (f *Function) MarkInstrs() uint64 {
	gen := markCounter.Add(1)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			in.mark = gen
		}
	}
	return gen
}

// Linearize returns all instructions of the function in block order; the
// sequence-alignment code and the fingerprint generators consume this.
func (f *Function) Linearize() []*Instr {
	out := make([]*Instr, 0, f.NumInstrs())
	for _, b := range f.Blocks {
		out = append(out, b.Instrs...)
	}
	return out
}

// RemoveBlock deletes block b from the function. The caller is
// responsible for having rewritten all edges into b.
func (f *Function) RemoveBlock(b *Block) {
	for i, x := range f.Blocks {
		if x == b {
			f.Blocks = append(f.Blocks[:i], f.Blocks[i+1:]...)
			return
		}
	}
}

// Module is a translation unit: a type context plus globals and
// functions.
type Module struct {
	Name  string
	Ctx   *TypeContext
	Funcs []*Function
	Globs []*GlobalVar

	funcByName map[string]*Function
	globByName map[string]*GlobalVar
}

// NewModule returns an empty module with a fresh type context.
func NewModule(name string) *Module {
	return NewModuleInCtx(name, NewTypeContext())
}

// NewModuleInCtx returns an empty module sharing an existing type
// context, so functions cloned into it stay pointer-compatible with
// the context's other modules (CloneFunc requires this). Commit
// snapshots and the translation validator use scratch modules built
// this way.
func NewModuleInCtx(name string, ctx *TypeContext) *Module {
	return &Module{
		Name:       name,
		Ctx:        ctx,
		funcByName: make(map[string]*Function),
		globByName: make(map[string]*GlobalVar),
	}
}

// NewFunc creates a function with the given name and signature and adds
// it to the module. Parameter names default to p0, p1, ...
func (m *Module) NewFunc(name string, sig *Type, paramNames ...string) *Function {
	if sig.Kind != FuncKind {
		panic("ir: NewFunc with non-function type " + sig.String())
	}
	if _, dup := m.funcByName[name]; dup {
		panic("ir: duplicate function @" + name)
	}
	f := &Function{Nam: name, Sig: sig, Parent: m}
	for i, pt := range sig.Fields {
		pn := "p" + strconv.Itoa(i)
		if i < len(paramNames) && paramNames[i] != "" {
			pn = paramNames[i]
		}
		f.Params = append(f.Params, &Param{Nam: pn, Ty: pt, Parent: f, Index: i})
	}
	m.Funcs = append(m.Funcs, f)
	m.funcByName[name] = f
	return f
}

// NewGlobal creates a module-level variable of element type elem.
func (m *Module) NewGlobal(name string, elem *Type, init *Const) *GlobalVar {
	if _, dup := m.globByName[name]; dup {
		panic("ir: duplicate global @" + name)
	}
	g := &GlobalVar{Nam: name, Elem: elem, PtrTy: m.Ctx.Pointer(elem), Init: init}
	m.Globs = append(m.Globs, g)
	m.globByName[name] = g
	return g
}

// Func looks up a function by name.
func (m *Module) Func(name string) *Function { return m.funcByName[name] }

// Global looks up a global by name.
func (m *Module) Global(name string) *GlobalVar { return m.globByName[name] }

// RemoveFunc deletes a function from the module. Call sites must already
// have been rewritten. The scan runs back-to-front because the common
// callers (the merger's temporary clones) sit at the end of the list.
func (m *Module) RemoveFunc(f *Function) {
	for i := len(m.Funcs) - 1; i >= 0; i-- {
		if m.Funcs[i] == f {
			m.Funcs = append(m.Funcs[:i], m.Funcs[i+1:]...)
			delete(m.funcByName, f.Nam)
			return
		}
	}
}

// RenameFunc changes a function's name, keeping the lookup map in sync.
func (m *Module) RenameFunc(f *Function, name string) {
	if _, dup := m.funcByName[name]; dup {
		panic("ir: duplicate function @" + name)
	}
	delete(m.funcByName, f.Nam)
	f.Nam = name
	m.funcByName[name] = f
}

// UniqueFuncName derives a function name not yet present in the module
// by appending a numeric suffix to base.
func (m *Module) UniqueFuncName(base string) string {
	if _, used := m.funcByName[base]; !used {
		return base
	}
	for i := 1; ; i++ {
		cand := fmt.Sprintf("%s.%d", base, i)
		if _, used := m.funcByName[cand]; !used {
			return cand
		}
	}
}

// NumInstrs returns the total instruction count of all function bodies.
func (m *Module) NumInstrs() int {
	n := 0
	for _, f := range m.Funcs {
		n += f.NumInstrs()
	}
	return n
}
