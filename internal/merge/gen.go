package merge

import (
	"fmt"
	"sync"
	"time"

	"f3m/internal/align"
	"f3m/internal/fingerprint"
	"f3m/internal/ir"
	"f3m/internal/passes"
)

// mergeGen holds the state of one merged-function construction. It
// works on phi-free clones ca (side A) and cb (side B).
type mergeGen struct {
	m      *ir.Module
	ca, cb *ir.Function
	opts   Options

	// arena supplies block/instruction storage for the merged function.
	// Discarded attempts — the overwhelming majority — hand it back via
	// Discard, so codegen mostly reuses prior attempts' objects.
	arena *ir.CloneArena

	fm  *ir.Function
	fid ir.Value // i1 function identifier: true selects side A

	valA, valB map[ir.Value]ir.Value
	blkA, blkB map[*ir.Block]*ir.Block
	dispatch   map[[2]*ir.Block]*ir.Block

	paramMapA, paramMapB map[int]int

	// pend defers operand resolution until every definition is mapped.
	pend []pendInstr

	// encA/encB/cols are emitPair's per-block scratch, reused across
	// blocks.
	encA, encB []fingerprint.Encoded
	cols       []column

	// alignDur and codegenDur split the run's wall time into the
	// alignment and code-generation stages for the paper's breakdowns.
	alignDur, codegenDur time.Duration

	// alignScore is the instruction-weighted matched ratio of the
	// accepted block pairs (see Result.AlignScore).
	alignScore float64

	// blockMoves is the reorder count of the CFG-aware block pairing,
	// -1 under the sequence matcher (see Result.BlockMoves).
	blockMoves int
}

// pendInstr links an emitted instruction to its originals; origB is nil
// for side-A-only code and vice versa.
type pendInstr struct {
	merged       *ir.Instr
	origA, origB *ir.Instr
}

// genPool recycles mergeGen state across Pair calls. The value/block
// remap tables are cleared per use; paramMapA/B escape into the Result
// and are allocated fresh each time.
var genPool = sync.Pool{New: func() any {
	return &mergeGen{
		valA:     make(map[ir.Value]ir.Value, 256),
		valB:     make(map[ir.Value]ir.Value, 256),
		blkA:     make(map[*ir.Block]*ir.Block, 32),
		blkB:     make(map[*ir.Block]*ir.Block, 32),
		dispatch: make(map[[2]*ir.Block]*ir.Block, 16),
	}
}}

func newMergeGen(m *ir.Module, ca, cb *ir.Function, ar *ir.CloneArena, opts Options) *mergeGen {
	g := genPool.Get().(*mergeGen)
	g.m, g.ca, g.cb, g.opts, g.arena = m, ca, cb, opts, ar
	g.paramMapA = make(map[int]int)
	g.paramMapB = make(map[int]int)
	g.alignDur, g.codegenDur, g.alignScore = 0, 0, 0
	g.blockMoves = -1
	return g
}

// release returns a mergeGen to the pool, clearing everything that
// would otherwise pin the attempt's IR until the next Get.
func (g *mergeGen) release() {
	g.m, g.ca, g.cb, g.fm, g.fid, g.arena = nil, nil, nil, nil, nil, nil
	g.opts = Options{}
	g.paramMapA, g.paramMapB = nil, nil
	clear(g.valA)
	clear(g.valB)
	clear(g.blkA)
	clear(g.blkB)
	clear(g.dispatch)
	for i := range g.pend {
		g.pend[i] = pendInstr{}
	}
	g.pend = g.pend[:0]
	genPool.Put(g)
}

// alignScoreOf converts the accepted block pairs into the
// instruction-weighted matched ratio over both functions — the
// align.MergeRatio metric, recovered from the pairing this attempt
// already computed instead of a second alignment pass: each pair's
// Ratio is 2*matches/(lenA+lenB), so matches = Ratio*(lenA+lenB)/2,
// and block encoding is one word per instruction.
func alignScoreOf(pairs []align.BlockPair, ca, cb *ir.Function) float64 {
	total := ca.NumInstrs() + cb.NumInstrs()
	if total == 0 {
		return 1
	}
	matched := 0.0
	for _, p := range pairs {
		matched += p.Ratio * float64(len(p.A.Instrs)+len(p.B.Instrs)) / 2
	}
	return 2 * matched / float64(total)
}

func (g *mergeGen) run(name string) (*ir.Function, error) {
	ctx := g.m.Ctx

	// Merged signature: i1 identifier plus type-paired parameters.
	ptys := []*ir.Type{ctx.I1}
	pnames := []string{"fid"}
	usedB := make([]bool, len(g.cb.Params))
	type pairing struct{ ai, bi int }
	var paired []pairing
	for ai, pa := range g.ca.Params {
		found := -1
		for bi, pb := range g.cb.Params {
			if !usedB[bi] && pa.Ty == pb.Ty {
				found = bi
				usedB[bi] = true
				break
			}
		}
		paired = append(paired, pairing{ai, found})
	}
	for _, pr := range paired {
		mi := len(ptys)
		g.paramMapA[mi] = pr.ai
		if pr.bi >= 0 {
			g.paramMapB[mi] = pr.bi
		}
		ptys = append(ptys, g.ca.Params[pr.ai].Ty)
		pnames = append(pnames, g.ca.Params[pr.ai].Nam)
	}
	for bi, pb := range g.cb.Params {
		if usedB[bi] {
			continue
		}
		mi := len(ptys)
		g.paramMapB[mi] = bi
		ptys = append(ptys, pb.Ty)
		pnames = append(pnames, pb.Nam+".b")
	}

	g.fm = g.m.NewFunc(name, ctx.Func(g.ca.ReturnType(), ptys...), pnames...)
	g.fid = g.fm.Params[0]
	for mi, ai := range g.paramMapA {
		g.valA[g.ca.Params[ai]] = g.fm.Params[mi]
	}
	for mi, bi := range g.paramMapB {
		g.valB[g.cb.Params[bi]] = g.fm.Params[mi]
	}

	entry := g.arena.NewBlock(g.fm, "entry")

	// Pair blocks and pre-create every merged head so terminators can
	// resolve successors in one pass.
	alignStart := time.Now()
	var pairs []align.BlockPair
	var unA, unB []*ir.Block
	if g.opts.CFGAlign {
		pairs, unA, unB, g.blockMoves = align.MatchBlocksCFG(g.ca, g.cb, g.opts.MinBlockRatio, nil)
	} else {
		pairs, unA, unB = align.MatchBlocks(g.ca, g.cb, g.opts.MinBlockRatio)
	}
	g.alignScore = alignScoreOf(pairs, g.ca, g.cb)
	g.alignDur = time.Since(alignStart)
	codegenStart := time.Now()
	defer func() { g.codegenDur = time.Since(codegenStart) }()
	for _, p := range pairs {
		head := g.arena.NewBlock(g.fm, p.A.Name()+"."+p.B.Name())
		g.blkA[p.A] = head
		g.blkB[p.B] = head
	}
	for _, b := range unA {
		g.blkA[b] = g.arena.NewBlock(g.fm, b.Name()+".a")
	}
	for _, b := range unB {
		g.blkB[b] = g.arena.NewBlock(g.fm, b.Name()+".b")
	}

	// Entry dispatch.
	eb := ir.NewBuilder(entry)
	eA, eB := g.blkA[g.ca.Entry()], g.blkB[g.cb.Entry()]
	if eA == eB {
		eb.Br(eA)
	} else {
		eb.CondBr(g.fid, eA, eB)
	}

	for _, b := range unA {
		g.emitSingle(sideA, b, g.blkA[b])
	}
	for _, b := range unB {
		g.emitSingle(sideB, b, g.blkB[b])
	}
	for _, p := range pairs {
		g.emitPair(p)
	}

	g.resolveOperands()

	passes.RepairSSAIn(g.fm, g.arena)
	passes.HoistAllocas(g.fm)
	passes.Mem2RegIn(g.fm, g.arena)
	passes.ElimRedundantPhis(g.fm) // minimal-SSA phis that select nothing
	passes.ConstFold(g.fm)         // selects over equal values, degenerate conds
	passes.SimplifyCFG(g.fm)
	passes.DCE(g.fm)
	if err := ir.VerifyFunc(g.fm); err != nil {
		return g.fm, fmt.Errorf("merge: generated function is invalid: %w", err)
	}
	return g.fm, nil
}

// emitSingle copies one original block into dst, remapping successor
// labels through the side's block map. Value operands resolve later.
func (g *mergeGen) emitSingle(s side, src, dst *ir.Block) {
	for _, in := range src.Instrs {
		ni := g.rawCopy(in)
		for i, op := range ni.Operands {
			if b, ok := op.(*ir.Block); ok {
				ni.Operands[i] = g.blk(s, b)
			}
		}
		dst.Append(ni)
		g.setVal(s, in, ni)
		pe := pendInstr{merged: ni}
		if s == sideA {
			pe.origA = in
		} else {
			pe.origB = in
		}
		g.pend = append(g.pend, pe)
	}
}

// rawCopy duplicates an instruction shell with original operands,
// drawing the object from the arena freelist.
func (g *mergeGen) rawCopy(in *ir.Instr) *ir.Instr {
	ni := g.arena.NewInstr()
	ni.Op = in.Op
	ni.Ty = in.Ty
	ni.Nam = g.freshName(in)
	ni.Predicate = in.Predicate
	ni.AllocTy = in.AllocTy
	ni.Operands = append(ni.Operands[:0], in.Operands...)
	return ni
}

func (g *mergeGen) freshName(in *ir.Instr) string {
	if in.Ty.IsVoid() {
		return ""
	}
	return g.fm.FreshName(in.Nam)
}

func (g *mergeGen) blk(s side, b *ir.Block) *ir.Block {
	if s == sideA {
		return g.blkA[b]
	}
	return g.blkB[b]
}

func (g *mergeGen) setVal(s side, orig *ir.Instr, merged *ir.Instr) {
	if orig.Ty.IsVoid() {
		return
	}
	if s == sideA {
		g.valA[orig] = merged
	} else {
		g.valB[orig] = merged
	}
}

// column is one unit of work when emitting a paired block: either a
// merged instruction pair or a one-sided instruction.
type column struct {
	a, b *ir.Instr
}

// emitPair generates the merged body for one paired block.
func (g *mergeGen) emitPair(p align.BlockPair) {
	cur := g.blkA[p.A] // == blkB[p.B]

	aIns, bIns := p.A.Instrs, p.B.Instrs
	ta, tb := aIns[len(aIns)-1], bIns[len(bIns)-1]
	aBody, bBody := aIns[:len(aIns)-1], bIns[:len(bIns)-1]

	// Align the bodies (terminators are handled explicitly below).
	encA := g.encA
	if cap(encA) < len(aBody) {
		encA = make([]fingerprint.Encoded, len(aBody))
	}
	encA = encA[:len(aBody)]
	for i, in := range aBody {
		encA[i] = fingerprint.EncodeInstr(in)
	}
	encB := g.encB
	if cap(encB) < len(bBody) {
		encB = make([]fingerprint.Encoded, len(bBody))
	}
	encB = encB[:len(bBody)]
	for i, in := range bBody {
		encB[i] = fingerprint.EncodeInstr(in)
	}
	g.encA, g.encB = encA, encB
	entries := align.NeedlemanWunsch(encA, encB)

	cols := g.cols[:0]
	for _, e := range entries {
		switch {
		case e.Matched() && g.compatible(aBody[e.A], bBody[e.B]):
			cols = append(cols, column{a: aBody[e.A], b: bBody[e.B]})
		case e.Matched():
			// Encoding collision on incompatible instructions: fall
			// back to guarded copies.
			cols = append(cols, column{a: aBody[e.A]}, column{b: bBody[e.B]})
		case e.A >= 0:
			cols = append(cols, column{a: aBody[e.A]})
		default:
			cols = append(cols, column{b: bBody[e.B]})
		}
	}
	g.cols = cols

	var gA, gB []*ir.Instr
	flushGuard := func() {
		if len(gA) == 0 && len(gB) == 0 {
			return
		}
		cont := g.arena.NewBlock(g.fm, "")
		tgtA, tgtB := cont, cont
		if len(gA) > 0 {
			blkGA := g.arena.NewBlock(g.fm, "")
			g.emitGuardedList(sideA, gA, blkGA, cont)
			tgtA = blkGA
		}
		if len(gB) > 0 {
			blkGB := g.arena.NewBlock(g.fm, "")
			g.emitGuardedList(sideB, gB, blkGB, cont)
			tgtB = blkGB
		}
		bd := ir.NewBuilder(cur)
		bd.CondBr(g.fid, tgtA, tgtB)
		cur = cont
		gA, gB = nil, nil
	}

	for _, c := range cols {
		switch {
		case c.a != nil && c.b != nil:
			flushGuard()
			g.emitMerged(cur, c.a, c.b)
		case c.a != nil:
			gA = append(gA, c.a)
		default:
			gB = append(gB, c.b)
		}
	}

	// Terminators.
	if g.compatible(ta, tb) {
		flushGuard()
		g.emitMergedTerminator(cur, ta, tb)
		return
	}
	// Guarded terminators absorb any pending guarded runs.
	blkTA := g.arena.NewBlock(g.fm, "")
	blkTB := g.arena.NewBlock(g.fm, "")
	g.emitGuardedList(sideA, append(gA, ta), blkTA, nil)
	g.emitGuardedList(sideB, append(gB, tb), blkTB, nil)
	bd := ir.NewBuilder(cur)
	bd.CondBr(g.fid, blkTA, blkTB)
}

// emitGuardedList copies one side's instructions into dst; when cont is
// non-nil the block is closed with a branch to it (the list then holds
// no terminator).
func (g *mergeGen) emitGuardedList(s side, list []*ir.Instr, dst *ir.Block, cont *ir.Block) {
	for _, in := range list {
		ni := g.rawCopy(in)
		for i, op := range ni.Operands {
			if b, ok := op.(*ir.Block); ok {
				ni.Operands[i] = g.blk(s, b)
			}
		}
		dst.Append(ni)
		g.setVal(s, in, ni)
		pe := pendInstr{merged: ni}
		if s == sideA {
			pe.origA = in
		} else {
			pe.origB = in
		}
		g.pend = append(g.pend, pe)
	}
	if cont != nil {
		bd := ir.NewBuilder(dst)
		bd.Br(cont)
	}
}

// emitMerged emits a single shared instruction for a compatible pair.
func (g *mergeGen) emitMerged(cur *ir.Block, ia, ib *ir.Instr) {
	ni := g.rawCopy(ia)
	cur.Append(ni)
	g.setVal(sideA, ia, ni)
	g.setVal(sideB, ib, ni)
	g.pend = append(g.pend, pendInstr{merged: ni, origA: ia, origB: ib})
}

// emitMergedTerminator emits one terminator covering both sides,
// routing differing successors through identifier dispatch blocks.
func (g *mergeGen) emitMergedTerminator(cur *ir.Block, ta, tb *ir.Instr) {
	ni := g.rawCopy(ta)
	for i, op := range ni.Operands {
		ba, ok := op.(*ir.Block)
		if !ok {
			continue
		}
		bb := tb.Operands[i].(*ir.Block)
		ni.Operands[i] = g.route(g.blkA[ba], g.blkB[bb])
	}
	cur.Append(ni)
	g.setVal(sideA, ta, ni)
	g.setVal(sideB, tb, ni)
	g.pend = append(g.pend, pendInstr{merged: ni, origA: ta, origB: tb})
}

// route returns the merged successor for the pair of targets, creating
// an identifier dispatch block when the sides diverge.
func (g *mergeGen) route(ta, tb *ir.Block) *ir.Block {
	if ta == tb {
		return ta
	}
	key := [2]*ir.Block{ta, tb}
	if d, ok := g.dispatch[key]; ok {
		return d
	}
	d := g.arena.NewBlock(g.fm, "")
	bd := ir.NewBuilder(d)
	bd.CondBr(g.fid, ta, tb)
	g.dispatch[key] = d
	return d
}

// compatible decides whether two instructions can share one merged
// instruction. It re-verifies everything the 32-bit encoding promises
// (the encoding can collide) plus the cases the encoding cannot see:
// GEP struct indices and switch case constants must be literally equal.
func (g *mergeGen) compatible(ia, ib *ir.Instr) bool {
	if ia.Op != ib.Op || ia.Ty != ib.Ty || len(ia.Operands) != len(ib.Operands) {
		return false
	}
	if ia.Predicate != ib.Predicate || ia.AllocTy != ib.AllocTy {
		return false
	}
	for i := range ia.Operands {
		oa, ob := ia.Operands[i], ib.Operands[i]
		_, aBlk := oa.(*ir.Block)
		_, bBlk := ob.(*ir.Block)
		if aBlk != bBlk {
			return false
		}
		if aBlk {
			continue
		}
		if oa.Type() != ob.Type() {
			return false
		}
	}
	switch ia.Op {
	case ir.OpGEP:
		// Struct-indexing steps demand constant indices; merging
		// different constants would need a select, which is illegal
		// there. Walk the indexed type and compare those steps.
		cur := ia.Operands[0].Type().Elem
		for i := 2; i < len(ia.Operands); i++ {
			if cur.Kind == ir.StructKind {
				ca, ok1 := ia.Operands[i].(*ir.Const)
				cb, ok2 := ib.Operands[i].(*ir.Const)
				if !ok1 || !ok2 || !ir.ConstEqual(ca, cb) {
					return false
				}
				cur = cur.Fields[ca.IntVal]
			} else if cur.Kind == ir.ArrayKind {
				cur = cur.Elem
			} else {
				return false
			}
		}
	case ir.OpSwitch:
		for i := 2; i < len(ia.Operands); i += 2 {
			ca, ok1 := ia.Operands[i].(*ir.Const)
			cb, ok2 := ib.Operands[i].(*ir.Const)
			if !ok1 || !ok2 || !ir.ConstEqual(ca, cb) {
				return false
			}
		}
	}
	return true
}

// resolveOperands is phase two: every pending instruction's value
// operands are remapped into the merged function; pairs whose sides
// disagree receive a select on the function identifier.
func (g *mergeGen) resolveOperands() {
	for _, pe := range g.pend {
		ni := pe.merged
		for i, op := range ni.Operands {
			if _, isBlock := op.(*ir.Block); isBlock {
				continue
			}
			switch {
			case pe.origA != nil && pe.origB != nil:
				va := g.mapVal(sideA, pe.origA.Operands[i])
				vb := g.mapVal(sideB, pe.origB.Operands[i])
				if valuesEqual(va, vb) {
					ni.Operands[i] = va
					continue
				}
				sel := g.arena.NewInstr()
				sel.Op = ir.OpSelect
				sel.Ty = va.Type()
				sel.Nam = g.fm.FreshName("sel")
				sel.Operands = append(sel.Operands[:0], g.fid, va, vb)
				b := ni.Parent
				b.InsertAt(b.IndexOf(ni), sel)
				ni.Operands[i] = sel
			case pe.origA != nil:
				ni.Operands[i] = g.mapVal(sideA, pe.origA.Operands[i])
			default:
				ni.Operands[i] = g.mapVal(sideB, pe.origB.Operands[i])
			}
		}
	}
}

// mapVal translates an original (clone-side) value into the merged
// function.
func (g *mergeGen) mapVal(s side, v ir.Value) ir.Value {
	switch v.(type) {
	case *ir.Const, *ir.GlobalVar, *ir.Function:
		return v
	}
	var mv ir.Value
	var ok bool
	if s == sideA {
		mv, ok = g.valA[v]
	} else {
		mv, ok = g.valB[v]
	}
	if !ok {
		panic(fmt.Sprintf("merge: unmapped value %s on side %d", v.Ident(), s))
	}
	return mv
}

// valuesEqual treats identical constants as equal even across distinct
// constant objects.
func valuesEqual(a, b ir.Value) bool {
	if a == b {
		return true
	}
	ca, ok1 := a.(*ir.Const)
	cb, ok2 := b.(*ir.Const)
	return ok1 && ok2 && ir.ConstEqual(ca, cb)
}
