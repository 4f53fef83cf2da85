// Package merge generates merged functions from aligned pairs, the
// code-generation stage F3M inherits from HyFM (Section III-E). Given
// two functions it:
//
//  1. clones and demotes them to phi-free form (RegToMem), the shape
//     the block-level merger consumes;
//  2. pairs similar basic blocks and aligns each pair's instructions;
//  3. emits one function parameterized by a function identifier:
//     matched instructions become shared code whose differing operands
//     are reconciled with selects on the identifier, mismatched runs
//     become guarded diamonds, and differing control-flow targets
//     become identifier dispatch blocks;
//  4. repairs any SSA dominance violations through stack demotion with
//     the Section III-E placement fixes, then re-promotes and cleans
//     up (Mem2Reg, SimplifyCFG, DCE);
//  5. prices the result with a code-size model deciding profitability.
//
// Committing a profitable merge rewrites every call site and replaces
// address-taken originals with thunks.
package merge

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"f3m/internal/align"
	"f3m/internal/ir"
	"f3m/internal/passes"
)

// arenaPool recycles clone arenas across Pair calls. The two working
// copies Pair makes are discarded before it returns, so their blocks
// and instructions go straight back to the arena instead of the heap.
var arenaPool = sync.Pool{New: func() any { return ir.NewCloneArena() }}

// Options configures code generation and the profitability model.
type Options struct {
	// MinBlockRatio is the alignment ratio a block pair must reach to
	// be merged as a unit (blocks below it are emitted separately).
	MinBlockRatio float64

	// SkipCleanup disables the post-merge Mem2Reg/SimplifyCFG/DCE
	// passes; useful for inspecting raw merger output in tests.
	SkipCleanup bool

	// CallSiteCount, when set, reports how many direct call sites
	// reference a function. Profitability then charges the argument
	// growth Commit would cause at those sites (the function
	// identifier plus undef placeholders for unshared parameters).
	CallSiteCount func(*ir.Function) int

	// Index, when set, supplies live call-site and address-taken
	// information and lets Commit rewrite call sites without walking
	// the whole module (essential for large-module runs). It takes
	// precedence over CallSiteCount.
	Index *CallIndex

	// AlignCache, when set, memoizes the Needleman–Wunsch alignments
	// the code generator performs (block pairing and paired-block
	// bodies). The cache is exact — identical results with or without
	// it — and safe to share across goroutines; the pipeline uses one
	// per run, and the serving daemon keeps one across runs. Nil
	// disables caching.
	AlignCache *align.Cache

	// SnapshotOriginals makes Commit clone the pre-merge bodies of both
	// originals into CommitSide.Snapshot before rewriting anything. The
	// translation validator needs the original semantics to compare
	// against after the originals have been thunked or deleted.
	SnapshotOriginals bool

	// CFGAlign switches block pairing from the greedy sequence matcher
	// to the CFG-aware canonical-order matcher (align.MatchBlocksCFG),
	// which tolerates block-layout permutation and swapped branch arms
	// between the two functions. Result.BlockMoves then reports how
	// much reordering the pairing absorbed. Set by the f3m-cfg pipeline
	// strategy.
	CFGAlign bool
}

// DefaultOptions mirror the defaults used by the pipeline.
func DefaultOptions() Options {
	return Options{MinBlockRatio: 0.5}
}

// ErrIncompatible marks function pairs the merger does not support.
var ErrIncompatible = errors.New("merge: incompatible function pair")

// Result describes one attempted merge.
type Result struct {
	// Merged is the generated function, already inserted in the module
	// under a fresh name. The caller either Commits it or Discards it.
	Merged *ir.Function

	// Profitable reports whether replacing the originals with Merged
	// shrinks the size model.
	Profitable bool

	// CostA, CostB and CostMerged are size-model values.
	CostA, CostB, CostMerged int

	// CallOverhead is the size-model cost the call-site rewrite adds
	// (0 when Options.CallSiteCount is unset).
	CallOverhead int

	// AlignDur and CodegenDur break the merge attempt into the two
	// stages the paper's Figures 3 and 13 report.
	AlignDur, CodegenDur time.Duration

	// BlockMoves is the number of accepted block pairs whose two blocks
	// sit at different layout positions — the reordering the CFG-aware
	// matcher absorbed. It is -1 when the sequence matcher ran
	// (Options.CFGAlign off), so the pipeline can publish CFG histograms
	// only for CFG-aligned attempts.
	BlockMoves int

	// AlignScore is the block-level alignment quality of the pair: the
	// fraction of instructions (of both functions) landing in matched
	// alignment columns of accepted block pairs — the same metric as
	// align.MergeRatio, derived from this attempt's own block pairing
	// instead of a second alignment pass. It feeds the observability
	// layer's alignment-score histogram.
	AlignScore float64

	fa, fb *ir.Function

	// paramMapA/B map merged-parameter index (>= 1; 0 is the function
	// identifier) to the original argument index on each side.
	paramMapA, paramMapB map[int]int

	// idx is the optional live call index Commit maintains.
	idx *CallIndex

	// snapshot carries Options.SnapshotOriginals to Commit.
	snapshot bool
}

// SizeSaving is the size-model benefit of committing (positive =
// smaller binary).
func (r *Result) SizeSaving() int { return r.CostA + r.CostB - r.CostMerged - r.CallOverhead }

// Cost is the code-size model: a weighted instruction count. Every
// instruction costs one unit; calls cost an extra unit per argument
// (they lower to argument-passing code).
func Cost(f *ir.Function) int {
	c := 0
	f.Instructions(func(in *ir.Instr) {
		c++
		if in.Op == ir.OpCall || in.Op == ir.OpInvoke {
			c += len(in.CallArgs())
		}
	})
	return c
}

// Pair merges functions fa and fb of module m. The returned Result
// holds the merged function regardless of profitability; on failure an
// error is returned and the module is left unchanged.
func Pair(m *ir.Module, fa, fb *ir.Function, opts Options) (*Result, error) {
	if fa == fb {
		return nil, fmt.Errorf("%w: cannot merge a function with itself", ErrIncompatible)
	}
	if fa.IsDecl() || fb.IsDecl() {
		return nil, fmt.Errorf("%w: declarations", ErrIncompatible)
	}
	if fa.ReturnType() != fb.ReturnType() {
		return nil, fmt.Errorf("%w: return types %s vs %s", ErrIncompatible, fa.ReturnType(), fb.ReturnType())
	}
	if fa.Sig.Variadic || fb.Sig.Variadic {
		return nil, fmt.Errorf("%w: variadic", ErrIncompatible)
	}

	// Phi-free working copies, drawn from (and returned to) a pooled
	// arena: the merged function is fully remapped by codegen, so the
	// copies are dead the moment Pair returns.
	ar := arenaPool.Get().(*ir.CloneArena)
	defer arenaPool.Put(ar)
	ca := ar.CloneFunc(m, fa, m.UniqueFuncName(fa.Name()+".tmpA"))
	cb := ar.CloneFunc(m, fb, m.UniqueFuncName(fb.Name()+".tmpB"))
	passes.RegToMemIn(ca, ar)
	passes.RegToMemIn(cb, ar)
	defer func() {
		m.RemoveFunc(ca)
		m.RemoveFunc(cb)
		ar.Recycle(ca)
		ar.Recycle(cb)
	}()

	g := newMergeGen(m, ca, cb, ar, opts)
	defer g.release()
	merged, err := g.run(m.UniqueFuncName(mergedName(fa, fb)))
	if err != nil {
		if merged != nil {
			m.RemoveFunc(merged)
			ar.Recycle(merged)
		}
		return nil, err
	}

	res := &Result{
		Merged:     merged,
		CostA:      Cost(fa),
		CostB:      Cost(fb),
		CostMerged: Cost(merged),
		fa:         fa,
		fb:         fb,
		paramMapA:  g.paramMapA,
		paramMapB:  g.paramMapB,
		AlignDur:   g.alignDur,
		CodegenDur: g.codegenDur,
		AlignScore: g.alignScore,
		BlockMoves: g.blockMoves,
	}
	countSites := opts.CallSiteCount
	if opts.Index != nil {
		countSites = opts.Index.NumCallSites
	}
	if countSites != nil {
		extraA := len(merged.Params) - len(fa.Params)
		extraB := len(merged.Params) - len(fb.Params)
		res.CallOverhead = countSites(fa)*extraA + countSites(fb)*extraB
	}
	res.idx = opts.Index
	res.snapshot = opts.SnapshotOriginals
	res.Profitable = res.CostMerged+res.CallOverhead < res.CostA+res.CostB
	return res, nil
}

func mergedName(fa, fb *ir.Function) string {
	return "merged." + fa.Name() + "." + fb.Name()
}

// Discard removes an uncommitted merged function from the module and
// recycles its storage: the function was built from (and is returned
// to) the pooled clone arenas, so the ~90% of attempts the
// profitability model rejects cost no retained allocations.
func Discard(m *ir.Module, r *Result) {
	m.RemoveFunc(r.Merged)
	ar := arenaPool.Get().(*ir.CloneArena)
	ar.Recycle(r.Merged)
	arenaPool.Put(ar)
}

// CommitInfo records what one Commit actually did to the module. The
// analysis package's merge auditor replays these facts against the
// module to prove the commit left no dangling or mis-wired state; tests
// corrupt them to exercise that proof.
type CommitInfo struct {
	// Merged is the function the originals were folded into.
	Merged *ir.Function

	// A and B describe the two replaced originals; A is the side
	// selected by a true function identifier.
	A, B CommitSide

	// Callers lists, without duplicates and in rewrite order, the
	// functions that contained at least one rewritten call site. Their
	// bodies changed, so any cached analysis facts about them are stale.
	Callers []*ir.Function
}

// CommitSide is the commit outcome for one replaced original.
type CommitSide struct {
	// Name is the original function's name (still its name if thunked).
	Name string

	// Fn is the original function object. When Thunked it remains in
	// the module with its body rewritten to forward into Merged;
	// otherwise it has been removed from the module.
	Fn *ir.Function

	// Sig is the original signature, which thunking must preserve.
	Sig *ir.Type

	// ParamMap maps merged-parameter index (>= 1; 0 is the function
	// identifier) to the original argument index on this side.
	ParamMap map[int]int

	// Thunked reports whether the original survives as a thunk
	// (address-taken functions must).
	Thunked bool

	// RewrittenCalls counts the direct call sites redirected to Merged.
	RewrittenCalls int

	// Snapshot is a clone of the original body taken before the commit
	// rewrote anything, or nil unless Options.SnapshotOriginals was set.
	// It lives in a detached scratch module (sharing the type context)
	// so pipeline stages walking the real module never observe it; its
	// call operands still reference the pre-commit function objects.
	Snapshot *ir.Function
}

// Commit replaces fa and fb with the merged function: direct calls are
// rewritten to pass the function identifier and remapped arguments;
// address-taken originals are kept as thunks; otherwise the originals
// are deleted. The returned CommitInfo describes the outcome for
// post-commit auditing.
func Commit(m *ir.Module, r *Result) *CommitInfo {
	g := r.Merged
	if r.idx != nil {
		r.idx.AddFunction(g)
	}
	info := &CommitInfo{Merged: g}
	var snapA, snapB *ir.Function
	if r.snapshot {
		// Clone before any rewriting: the snapshots must capture the
		// pre-commit semantics, and they live outside the real module so
		// no pipeline stage ever walks into them.
		scratch := ir.NewModuleInCtx("tv.ref", m.Ctx)
		snapA = ir.CloneFunc(scratch, r.fa, r.fa.Name())
		snapB = ir.CloneFunc(scratch, r.fb, r.fb.Name())
	}
	seenCaller := make(map[*ir.Function]bool)
	rewrite := func(orig *ir.Function, id bool) CommitSide {
		paramMap := r.paramMapB
		if id {
			paramMap = r.paramMapA
		}
		side := CommitSide{Name: orig.Name(), Fn: orig, Sig: orig.Sig, ParamMap: paramMap}
		rewriteCall := func(call *ir.Instr) {
			if caller := call.Parent.Parent; !seenCaller[caller] {
				seenCaller[caller] = true
				info.Callers = append(info.Callers, caller)
			}
			args := call.CallArgs()
			newArgs := make([]ir.Value, len(g.Params))
			newArgs[0] = ir.ConstBool(m.Ctx, id)
			for i := 1; i < len(g.Params); i++ {
				if oi, ok := paramMap[i]; ok {
					newArgs[i] = args[oi]
				} else {
					newArgs[i] = ir.ConstUndef(g.Params[i].Ty)
				}
			}
			rest := call.Operands[1+len(args):] // invoke successors, if any
			call.Operands = append(append([]ir.Value{g}, newArgs...), rest...)
		}
		if r.idx != nil {
			side.RewrittenCalls = r.idx.rewriteCalls(orig, rewriteCall)
			addrTaken := r.idx.HasNonCallUses(orig)
			r.idx.RemoveFunction(orig)
			if addrTaken {
				makeThunk(m, orig, g, id, paramMap)
				r.idx.AddFunction(orig)
				side.Thunked = true
			} else {
				m.RemoveFunc(orig)
			}
			return side
		}
		side.RewrittenCalls = m.ReplaceAllCalls(orig, rewriteCall)
		if hasNonCallUses(m, orig) {
			makeThunk(m, orig, g, id, paramMap)
			side.Thunked = true
		} else {
			m.RemoveFunc(orig)
		}
		return side
	}
	info.A = rewrite(r.fa, true)
	info.B = rewrite(r.fb, false)
	info.A.Snapshot = snapA
	info.B.Snapshot = snapB
	return info
}

// hasNonCallUses reports whether f appears as an operand anywhere other
// than the callee slot of a call/invoke.
func hasNonCallUses(m *ir.Module, f *ir.Function) bool {
	found := false
	for _, fn := range m.Funcs {
		fn.Instructions(func(in *ir.Instr) {
			for i, op := range in.Operands {
				if op != ir.Value(f) {
					continue
				}
				isCallee := (in.Op == ir.OpCall || in.Op == ir.OpInvoke) && i == 0
				if !isCallee {
					found = true
				}
			}
		})
	}
	return found
}

// makeThunk rewrites orig's body into a tail call of the merged
// function so remaining address-taken references stay valid.
func makeThunk(m *ir.Module, orig, g *ir.Function, id bool, paramMap map[int]int) {
	orig.Blocks = nil
	entry := orig.NewBlock("entry")
	bd := ir.NewBuilder(entry)
	args := make([]ir.Value, len(g.Params))
	args[0] = ir.ConstBool(m.Ctx, id)
	for i := 1; i < len(g.Params); i++ {
		if oi, ok := paramMap[i]; ok {
			args[i] = orig.Params[oi]
		} else {
			args[i] = ir.ConstUndef(g.Params[i].Ty)
		}
	}
	call := bd.Call(g, args...)
	if orig.ReturnType().IsVoid() {
		bd.Ret(nil)
	} else {
		bd.Ret(call)
	}
}

// side selects which original function a value mapping refers to.
type side int

const (
	sideA side = iota
	sideB
)

// ParamMapForTest exposes the merged-parameter provenance for
// differential tests.
func (r *Result) ParamMapForTest(first bool) map[int]int {
	if first {
		return r.paramMapA
	}
	return r.paramMapB
}
