// Package tv is the per-commit translation validator behind
// `-check=validate`: for every committed merge it proves, statically,
// that the merged function specialized at each discriminator value is
// behaviourally equivalent to the original function it replaced.
//
// The proof strategy is specialize-then-bisimulate. For side A (and
// symmetrically B): clone the merged function into a scratch module,
// pin the discriminator parameter to its constant via sparse
// conditional constant propagation, prune the branches and selects the
// constant decides, and canonicalize the result with the same pass
// pipeline applied to a clone of the pre-merge snapshot. If the merge
// was semantics-preserving, the two canonical functions are the same
// program up to value naming — which a CFG bisimulation with lazy value
// correspondence checks exactly. Any divergence yields a deterministic
// `tv` error diagnostic locating the first mismatching instruction.
//
// Everything runs on the pipeline's sequential commit loop against
// detached scratch modules that share only the type context, so the
// real module never observes validation state.
package tv

import (
	"fmt"
	"time"

	"f3m/internal/analysis"
	"f3m/internal/analysis/dataflow"
	"f3m/internal/ir"
	"f3m/internal/merge"
	"f3m/internal/obs"
	"f3m/internal/passes"
)

// Validator implements analysis.CommitValidator. One Validator serves
// one pipeline run; it is not safe for concurrent use (the pipeline
// calls it only from the sequential commit loop).
type Validator struct {
	met *obs.Metrics
}

// NewValidator returns a validator publishing through met (which may be
// nil; obs metrics are nil-safe).
func NewValidator(met *obs.Metrics) *Validator {
	return &Validator{met: met}
}

// validateLatencyBounds bucket the per-commit validation latency
// histogram, in milliseconds.
var validateLatencyBounds = []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100}

// ValidateCommit proves one commit semantics-preserving: both sides are
// specialized, canonicalized and bisimulated against their pre-merge
// snapshots. It returns one error diagnostic per diverging side (the
// first mismatch found, deterministically) and publishes the
// `analysis.tv.*` counters plus a volatile latency histogram.
func (v *Validator) ValidateCommit(m *ir.Module, info *merge.CommitInfo) analysis.Diagnostics {
	start := time.Now()
	v.met.Counter("analysis.tv.commits").Inc()

	var ds analysis.Diagnostics
	ds = append(ds, v.validateSide(m, info, &info.A, true)...)
	ds = append(ds, v.validateSide(m, info, &info.B, false)...)

	if n := len(ds); n > 0 {
		v.met.Counter("analysis.tv.mismatches").Add(int64(n))
	}
	v.met.VolatileHistogram("analysis.tv.validate_ms", validateLatencyBounds).
		Observe(float64(time.Since(start).Microseconds()) / 1000)
	return ds
}

// validateSide checks one original against the merged function
// specialized at that side's discriminator value.
func (v *Validator) validateSide(m *ir.Module, info *merge.CommitInfo, side *merge.CommitSide, d bool) analysis.Diagnostics {
	v.met.Counter("analysis.tv.sides").Inc()
	errd := func(block, instr, format string, args ...any) analysis.Diagnostics {
		return analysis.Diagnostics{{
			Checker: "tv", Sev: analysis.Error,
			Func: info.Merged.Name(), Block: block, Instr: instr,
			Msg: fmt.Sprintf("side %s (@%s): ", sideName(d), side.Name) + fmt.Sprintf(format, args...),
		}}
	}
	if side.Snapshot == nil {
		return errd("", "", "commit carries no pre-merge snapshot (merge.Options.SnapshotOriginals unset)")
	}
	if len(info.Merged.Params) == 0 {
		return errd("", "", "merged function has no discriminator parameter")
	}

	// Both comparands are clones in a detached scratch module: the
	// canonicalization passes may rewrite them freely without the real
	// module (or the pristine snapshot) ever changing.
	scratch := ir.NewModuleInCtx("tv.scratch", m.Ctx)
	pin := ir.ConstBool(m.Ctx, d)
	spec := canonicalClone(scratch, info.Merged, "tv.spec", pin, nil)
	ref := canonicalClone(scratch, side.Snapshot, "tv.ref", nil, nil)

	// A pass that leaves invalid IR would otherwise surface as a
	// misleading structural mismatch.
	if err := ir.VerifyFunc(spec); err != nil {
		return errd("", "", "internal error: canonicalization pass %s left the specialized merged function invalid: %v",
			brokenPass(m, info.Merged, pin), err)
	}
	if err := ir.VerifyFunc(ref); err != nil {
		return errd("", "", "internal error: canonicalization pass %s left the original invalid: %v",
			brokenPass(m, side.Snapshot, nil), err)
	}

	if mis := bisimulate(spec, ref, info, side, d); mis != nil {
		return errd(mis.block, mis.instr, "%s", mis.msg)
	}
	return nil
}

// sideName renders the discriminator value as the side letter the
// commit metadata uses.
func sideName(d bool) string {
	if d {
		return "A"
	}
	return "B"
}

// canonPass is one named step of the canonicalization pipeline. The
// assumption map pins values to constants; only SCCP reads it.
type canonPass struct {
	name string
	run  func(f *ir.Function, assume map[ir.Value]*ir.Const) int
}

// canonStage is a pass sequence, run once or repeated until a whole
// round rewrites nothing.
type canonStage struct {
	fixpoint bool
	passes   []canonPass
}

// plain adapts a pass that takes no assumptions.
func plain(run func(*ir.Function) int) func(*ir.Function, map[ir.Value]*ir.Const) int {
	return func(f *ir.Function, _ map[ir.Value]*ir.Const) int { return run(f) }
}

// canonPipeline rewrites a function into the normal form both
// comparands share: constants (including the assumed discriminator)
// folded and propagated through branches via SCCP, identity
// simplifications the merge pipeline also performs (ConstFold, notably
// select-with-equal-arms) applied, decided control flow pruned, then a
// RegToMem/Mem2Reg round trip to re-derive phi placement purely from
// the dominance structure, and a final cleanup fixpoint. Two functions
// that are the same program up to value naming canonicalize to
// structurally identical IR.
var canonPipeline = []canonStage{
	{fixpoint: true, passes: []canonPass{
		{"sccp", sccpFold},
		{"constfold", plain(passes.ConstFold)},
		{"simplifycfg", plain(passes.SimplifyCFG)},
		{"dce", plain(passes.DCE)},
	}},
	{passes: []canonPass{
		{"reg2mem", plain(passes.RegToMem)},
		{"mem2reg", plain(passes.Mem2Reg)},
	}},
	{fixpoint: true, passes: []canonPass{
		{"constfold", plain(passes.ConstFold)},
		{"simplifycfg", plain(passes.SimplifyCFG)},
		{"dce", plain(passes.DCE)},
	}},
}

// canonicalClone clones src into scratch under name and runs
// canonPipeline over the clone, pinning its first parameter to pin
// when pin is non-nil. When after is non-nil it runs after every pass,
// and the pipeline stops at the first pass it returns false for.
func canonicalClone(scratch *ir.Module, src *ir.Function, name string, pin *ir.Const, after func(pass string, f *ir.Function) bool) *ir.Function {
	f := ir.CloneFunc(scratch, src, name)
	var assume map[ir.Value]*ir.Const
	if pin != nil {
		assume = map[ir.Value]*ir.Const{ir.Value(f.Params[0]): pin}
	}
	for _, st := range canonPipeline {
		for {
			n := 0
			for _, p := range st.passes {
				n += p.run(f, assume)
				if after != nil && !after(p.name, f) {
					return f
				}
			}
			if !st.fixpoint || n == 0 {
				break
			}
		}
	}
	return f
}

// brokenPass names the first canonicalization pass that leaves src
// invalid, by re-running canonPipeline on a fresh clone with a verify
// after every pass. Only the failure path pays for this.
func brokenPass(m *ir.Module, src *ir.Function, pin *ir.Const) string {
	var pass string
	canonicalClone(ir.NewModuleInCtx("tv.blame", m.Ctx), src, "tv.blame", pin, func(name string, f *ir.Function) bool {
		if ir.VerifyFunc(f) != nil {
			pass = name
			return false
		}
		return true
	})
	return pass
}

// sccpFold applies one SCCP fixpoint to f: uses of values proven
// constant are replaced by the constant, selects with decided
// conditions forward the chosen arm, and branches with decided
// conditions become unconditional (dropping the abandoned edges from
// successor phis). Unreachable code is left for SimplifyCFG. Returns
// the number of rewrites.
func sccpFold(f *ir.Function, assume map[ir.Value]*ir.Const) int {
	res := dataflow.SCCP(f, assume)
	n := 0
	for _, b := range f.Blocks {
		if !res.Reachable(b) {
			continue
		}
		for _, in := range b.Instrs {
			for i, op := range in.Operands {
				if !dataflow.Trackable(op) {
					continue
				}
				if lat := res.Lookup(op); lat.Kind == dataflow.Constant && op != ir.Value(lat.Const) {
					in.Operands[i] = lat.Const
					n++
				}
			}
		}
	}
	// Selects whose condition is decided forward one arm even when the
	// arm itself is not constant.
	for _, b := range f.Blocks {
		if !res.Reachable(b) {
			continue
		}
		for _, in := range b.Instrs {
			if in.Op != ir.OpSelect {
				continue
			}
			cond, ok := in.Operands[0].(*ir.Const)
			if !ok || cond.Undef || cond.Null {
				continue
			}
			arm := in.Operands[2]
			if cond.IntVal&1 != 0 {
				arm = in.Operands[1]
			}
			replaceAllUses(f, in, arm)
			n++
		}
	}
	for _, b := range f.Blocks {
		if !res.Reachable(b) {
			continue
		}
		n += foldDecidedTerminator(f, b)
	}
	return n
}

// foldDecidedTerminator rewrites a condbr/switch whose scrutinee is now
// a literal constant into an unconditional branch, removing the
// abandoned edges from successor phis.
func foldDecidedTerminator(f *ir.Function, b *ir.Block) int {
	t := b.Term()
	if t == nil {
		return 0
	}
	var dst *ir.Block
	switch t.Op {
	case ir.OpCondBr:
		cond, ok := t.Operands[0].(*ir.Const)
		if !ok || cond.Undef || cond.Null {
			return 0
		}
		if cond.IntVal&1 != 0 {
			dst = t.Operands[1].(*ir.Block)
		} else {
			dst = t.Operands[2].(*ir.Block)
		}
	case ir.OpSwitch:
		scrut, ok := t.Operands[0].(*ir.Const)
		if !ok || scrut.Undef || scrut.Null {
			return 0
		}
		dst = t.Operands[1].(*ir.Block) // default
		for i := 2; i+1 < len(t.Operands); i += 2 {
			if c, ok := t.Operands[i].(*ir.Const); ok && ir.ConstEqual(c, scrut) {
				dst = t.Operands[i+1].(*ir.Block)
				break
			}
		}
	default:
		return 0
	}
	abandoned := make(map[*ir.Block]bool)
	for _, s := range t.Successors() {
		if s != dst {
			abandoned[s] = true
		}
	}
	br := &ir.Instr{Op: ir.OpBr, Ty: f.Parent.Ctx.Void, Operands: []ir.Value{dst}, Parent: b}
	b.Instrs[len(b.Instrs)-1] = br
	for s := range abandoned {
		dropPhiEdges(s, b)
	}
	return 1
}

// dropPhiEdges removes the incoming edge from pred out of every phi of
// b (pred stopped branching here).
func dropPhiEdges(b, pred *ir.Block) {
	for _, phi := range b.Phis() {
		for i := 0; i < len(phi.IncomingBlocks); {
			if phi.IncomingBlocks[i] == pred {
				phi.Operands = append(phi.Operands[:i], phi.Operands[i+1:]...)
				phi.IncomingBlocks = append(phi.IncomingBlocks[:i], phi.IncomingBlocks[i+1:]...)
				continue
			}
			i++
		}
	}
}

// replaceAllUses substitutes new for old in every instruction of f.
func replaceAllUses(f *ir.Function, old, new ir.Value) {
	f.Instructions(func(in *ir.Instr) {
		in.ReplaceUsesOfWith(old, new)
	})
}
