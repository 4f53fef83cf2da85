package ir

import "fmt"

// Opcode identifies an instruction operation. The numeric values are
// stable and dense; the fingerprint encodings use them directly.
type Opcode uint8

// Instruction opcodes. The set mirrors the LLVM instructions that appear
// in -Os-optimized scalar code, which is the population function merging
// operates on.
const (
	OpInvalid Opcode = iota

	// Terminators.
	OpRet
	OpBr     // unconditional: br label %dst
	OpCondBr // conditional:   br i1 %c, label %t, label %f
	OpSwitch
	OpUnreachable

	// Integer arithmetic.
	OpAdd
	OpSub
	OpMul
	OpSDiv
	OpUDiv
	OpSRem
	OpURem

	// Bitwise.
	OpShl
	OpLShr
	OpAShr
	OpAnd
	OpOr
	OpXor

	// Floating-point arithmetic.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFRem

	// Memory.
	OpAlloca
	OpLoad
	OpStore
	OpGEP // getelementptr

	// Casts.
	OpTrunc
	OpZExt
	OpSExt
	OpFPTrunc
	OpFPExt
	OpFPToSI
	OpSIToFP
	OpPtrToInt
	OpIntToPtr
	OpBitcast

	// Comparisons and selection.
	OpICmp
	OpFCmp
	OpSelect

	// Other.
	OpPhi
	OpCall
	OpInvoke // call with normal/unwind successors; a terminator

	numOpcodes
)

// NumOpcodes is the number of distinct opcodes; opcode-frequency
// fingerprints have this dimensionality.
const NumOpcodes = int(numOpcodes)

var opcodeNames = [...]string{
	OpInvalid:     "invalid",
	OpRet:         "ret",
	OpBr:          "br",
	OpCondBr:      "condbr",
	OpSwitch:      "switch",
	OpUnreachable: "unreachable",
	OpAdd:         "add",
	OpSub:         "sub",
	OpMul:         "mul",
	OpSDiv:        "sdiv",
	OpUDiv:        "udiv",
	OpSRem:        "srem",
	OpURem:        "urem",
	OpShl:         "shl",
	OpLShr:        "lshr",
	OpAShr:        "ashr",
	OpAnd:         "and",
	OpOr:          "or",
	OpXor:         "xor",
	OpFAdd:        "fadd",
	OpFSub:        "fsub",
	OpFMul:        "fmul",
	OpFDiv:        "fdiv",
	OpFRem:        "frem",
	OpAlloca:      "alloca",
	OpLoad:        "load",
	OpStore:       "store",
	OpGEP:         "getelementptr",
	OpTrunc:       "trunc",
	OpZExt:        "zext",
	OpSExt:        "sext",
	OpFPTrunc:     "fptrunc",
	OpFPExt:       "fpext",
	OpFPToSI:      "fptosi",
	OpSIToFP:      "sitofp",
	OpPtrToInt:    "ptrtoint",
	OpIntToPtr:    "inttoptr",
	OpBitcast:     "bitcast",
	OpICmp:        "icmp",
	OpFCmp:        "fcmp",
	OpSelect:      "select",
	OpPhi:         "phi",
	OpCall:        "call",
	OpInvoke:      "invoke",
}

// String returns the mnemonic of the opcode.
func (op Opcode) String() string {
	if int(op) < len(opcodeNames) {
		return opcodeNames[op]
	}
	return fmt.Sprintf("opcode(%d)", uint8(op))
}

// IsTerminator reports whether instructions with this opcode end a block.
func (op Opcode) IsTerminator() bool {
	switch op {
	case OpRet, OpBr, OpCondBr, OpSwitch, OpUnreachable, OpInvoke:
		return true
	}
	return false
}

// IsBinary reports whether the opcode is a two-operand arithmetic or
// bitwise operation.
func (op Opcode) IsBinary() bool {
	return op >= OpAdd && op <= OpFRem
}

// IsCast reports whether the opcode is a conversion.
func (op Opcode) IsCast() bool {
	return op >= OpTrunc && op <= OpBitcast
}

// HasSideEffects reports whether the instruction may write memory or
// transfer control, making it ineligible for dead-code removal.
func (op Opcode) HasSideEffects() bool {
	switch op {
	case OpStore, OpCall, OpInvoke:
		return true
	}
	return op.IsTerminator()
}

// Pred is a comparison predicate for icmp and fcmp.
type Pred uint8

// Comparison predicates. Integer predicates come first, then the ordered
// floating-point ones.
const (
	PredEQ Pred = iota
	PredNE
	PredSLT
	PredSLE
	PredSGT
	PredSGE
	PredULT
	PredULE
	PredUGT
	PredUGE

	PredOEQ
	PredONE
	PredOLT
	PredOLE
	PredOGT
	PredOGE

	numPreds
)

var predNames = [...]string{
	PredEQ:  "eq",
	PredNE:  "ne",
	PredSLT: "slt",
	PredSLE: "sle",
	PredSGT: "sgt",
	PredSGE: "sge",
	PredULT: "ult",
	PredULE: "ule",
	PredUGT: "ugt",
	PredUGE: "uge",
	PredOEQ: "oeq",
	PredONE: "one",
	PredOLT: "olt",
	PredOLE: "ole",
	PredOGT: "ogt",
	PredOGE: "oge",
}

// String returns the predicate mnemonic.
func (p Pred) String() string {
	if int(p) < len(predNames) {
		return predNames[p]
	}
	return fmt.Sprintf("pred(%d)", uint8(p))
}

// predByName maps mnemonics back to predicates for the parser.
var predByName = func() map[string]Pred {
	m := make(map[string]Pred, numPreds)
	for p, n := range predNames {
		m[n] = Pred(p)
	}
	return m
}()

// Instr is a single SSA instruction. Operand layout by opcode:
//
//	ret            [] or [value]
//	br             [destBlock]
//	condbr         [cond, trueBlock, falseBlock]
//	switch         [value, defaultBlock, case0Val, case0Block, ...]
//	invoke         [callee, args..., normalBlock, unwindBlock]
//	binary ops     [lhs, rhs]
//	alloca         []                     (allocated type in AllocTy)
//	load           [ptr]
//	store          [value, ptr]
//	getelementptr  [ptr, indices...]
//	casts          [value]
//	icmp/fcmp      [lhs, rhs]             (predicate in Predicate)
//	select         [cond, ifTrue, ifFalse]
//	phi            [incoming values...]   (blocks in IncomingBlocks)
//	call           [callee, args...]
type Instr struct {
	Op  Opcode
	Ty  *Type // result type; Void for instructions with no result
	Nam string

	Operands []Value

	// Predicate applies to icmp/fcmp.
	Predicate Pred

	// AllocTy is the allocated element type of an alloca.
	AllocTy *Type

	// IncomingBlocks parallels Operands for phi instructions.
	IncomingBlocks []*Block

	// Parent is the containing block.
	Parent *Block

	// mark caches membership in the instruction set most recently
	// stamped by Function.MarkInstrs (see Marked). Like Block.domGen,
	// a stale stamp can never match a live generation.
	mark uint64

	// scratchGen guards scratchCnt and scratchFlag: per-pass scratch
	// storage addressed by a mark generation, so analyses like DCE can
	// keep a use counter per instruction without allocating (or
	// clearing) a map per call. A stale generation reads as zero/false;
	// writers lazily reset on the first touch of a new generation.
	scratchGen  uint64
	scratchCnt  int32
	scratchFlag bool
}

// Marked reports whether the instruction carries the mark gen, i.e.
// was attached to the function when MarkInstrs returned gen and has
// not been restamped since. Marks are process-global and never
// reused, so a stale stamp never aliases a newer generation.
func (in *Instr) Marked(gen uint64) bool { return in.mark == gen }

// scratchReset lazily zeroes the scratch fields when gen is newer than
// the one they were last written under.
func (in *Instr) scratchReset(gen uint64) {
	if in.scratchGen != gen {
		in.scratchGen = gen
		in.scratchCnt = 0
		in.scratchFlag = false
	}
}

// ScratchAdd adds d to the instruction's scratch counter for
// generation gen and returns the new total. The counter starts at zero
// the first time any scratch accessor touches the instruction under
// gen, so callers never clear between passes.
func (in *Instr) ScratchAdd(gen uint64, d int32) int32 {
	in.scratchReset(gen)
	in.scratchCnt += d
	return in.scratchCnt
}

// ScratchCount reads the scratch counter for generation gen; an
// instruction never touched under gen reads as zero.
func (in *Instr) ScratchCount(gen uint64) int32 {
	if in.scratchGen != gen {
		return 0
	}
	return in.scratchCnt
}

// ScratchSetFlag sets the scratch flag for generation gen.
func (in *Instr) ScratchSetFlag(gen uint64, v bool) {
	in.scratchReset(gen)
	in.scratchFlag = v
}

// ScratchFlag reads the scratch flag for generation gen; an
// instruction never touched under gen reads as false.
func (in *Instr) ScratchFlag(gen uint64) bool {
	return in.scratchGen == gen && in.scratchFlag
}

// Type returns the result type.
func (in *Instr) Type() *Type { return in.Ty }

// Ident renders the instruction result reference.
func (in *Instr) Ident() string { return "%" + in.Nam }

// Name returns the instruction result name without the sigil.
func (in *Instr) Name() string { return in.Nam }

// IsTerminator reports whether the instruction ends its block.
func (in *Instr) IsTerminator() bool { return in.Op.IsTerminator() }

// Callee returns the called function operand of a call or invoke, which
// may be a *Function or any pointer-typed value for indirect calls.
func (in *Instr) Callee() Value {
	if in.Op != OpCall && in.Op != OpInvoke {
		panic("ir: Callee on " + in.Op.String())
	}
	return in.Operands[0]
}

// CallArgs returns the argument operands of a call or invoke.
func (in *Instr) CallArgs() []Value {
	switch in.Op {
	case OpCall:
		return in.Operands[1:]
	case OpInvoke:
		return in.Operands[1 : len(in.Operands)-2]
	}
	panic("ir: CallArgs on " + in.Op.String())
}

// Successors returns the successor blocks of a terminator, in operand
// order. It returns nil for non-terminators. The slice is freshly
// allocated; hot paths (the dominator tree, the CFG cleanups) iterate
// with NumSuccessors/Successor instead.
func (in *Instr) Successors() []*Block {
	n := in.NumSuccessors()
	if n == 0 {
		return nil
	}
	succs := make([]*Block, n)
	for i := 0; i < n; i++ {
		succs[i] = in.Successor(i)
	}
	return succs
}

// NumSuccessors returns how many successor blocks a terminator has
// (zero for non-terminators, ret and unreachable).
func (in *Instr) NumSuccessors() int {
	switch in.Op {
	case OpBr:
		return 1
	case OpCondBr:
		return 2
	case OpSwitch:
		return 1 + (len(in.Operands)-2)/2
	case OpInvoke:
		return 2
	}
	return 0
}

// Successor returns the i'th successor block, in the same operand
// order Successors uses.
func (in *Instr) Successor(i int) *Block {
	switch in.Op {
	case OpBr:
		return in.Operands[0].(*Block)
	case OpCondBr:
		return in.Operands[i+1].(*Block)
	case OpSwitch:
		if i == 0 {
			return in.Operands[1].(*Block)
		}
		return in.Operands[1+2*i].(*Block)
	case OpInvoke:
		n := len(in.Operands)
		return in.Operands[n-2+i].(*Block)
	}
	panic("ir: Successor on " + in.Op.String())
}

// ReplaceSuccessor rewrites every successor edge from old to new.
func (in *Instr) ReplaceSuccessor(old, new *Block) {
	for i, op := range in.Operands {
		if b, ok := op.(*Block); ok && b == old {
			in.Operands[i] = new
		}
	}
}

// PhiIncoming returns the incoming value for the given predecessor block
// of a phi, or nil if the block is not an incoming edge.
func (in *Instr) PhiIncoming(pred *Block) Value {
	for i, b := range in.IncomingBlocks {
		if b == pred {
			return in.Operands[i]
		}
	}
	return nil
}

// AddIncoming appends an incoming (value, block) edge to a phi.
func (in *Instr) AddIncoming(v Value, b *Block) {
	if in.Op != OpPhi {
		panic("ir: AddIncoming on " + in.Op.String())
	}
	in.Operands = append(in.Operands, v)
	in.IncomingBlocks = append(in.IncomingBlocks, b)
}

// ReplaceUsesOfWith substitutes new for every operand equal to old.
func (in *Instr) ReplaceUsesOfWith(old, new Value) {
	for i, op := range in.Operands {
		if op == old {
			in.Operands[i] = new
		}
	}
}
