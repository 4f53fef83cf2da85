package analysis

import (
	"fmt"

	"f3m/internal/ir"
	"f3m/internal/merge"
)

// CheckerMergeAudit names the merge auditor in diagnostics.
const CheckerMergeAudit = "merge-audit"

// afterIndexUpdate, when non-nil, runs in every AuditCommit right
// after the reference index is brought up to date. Tests install it to
// compare the live index with a rebuilt one at every commit of a real
// pipeline run.
var afterIndexUpdate func(*Manager, *ir.Module)

// AuditCommit statically validates one committed merge against the
// module, proving the properties whose silent violation is exactly the
// bug class the paper's Section III-E fixes chase:
//
//   - the merged function is in the module and carries an i1
//     discriminator as its first parameter;
//   - the discriminator feeds only control decisions (condbr and
//     select conditions), i.e. it channels every diverging path and
//     never leaks into computation;
//   - a thunked original keeps its name and signature and forwards
//     exactly its own parameters (per the recorded parameter map, undef
//     for unshared slots) plus the correct discriminator constant;
//   - a deleted original is gone from the module and nothing —
//     no call site, no address-taken operand — still references it;
//   - every call site the commit rewrote (recursive ones inside the
//     merged function included) calls the merged function with the full
//     merged parameter list: a literal discriminator selecting the
//     original it used to call, undef in that side's unshared slots,
//     and each of its original arguments forwarded exactly once through
//     the side's parameter map.
//
// The merged function is new, so its only callers are the rewritten
// call sites and the thunks, and both are checked against the commit
// record.
//
// The reference checks read the Manager's live reference index (see
// refIndex). A module's first audit builds it in one walk and scans
// every function; each later audit re-indexes and scans only the
// functions the commit touched — the merged function, both originals
// and info.Callers — plus every remaining referrer of a function
// missing from the module. Its cost is proportional to the commit, not
// to the module. Dangling references to functions deleted by earlier
// commits are re-reported while they last. The index trusts the
// commit's declared footprint: a body changed outside it is re-indexed
// only when a later commit touches it, and StrictVerify, which walks
// the whole module, is the net for such mutations.
func AuditCommit(mgr *Manager, m *ir.Module, info *merge.CommitInfo) Diagnostics {
	// A commit touches a known set of functions: the merged one is new,
	// the originals were thunked or deleted, and CommitInfo.Callers had
	// call sites rewritten in place. Invalidating exactly that set keeps
	// every other function's cached facts live across the commit.
	mgr.Invalidate(info.Merged)
	mgr.Invalidate(info.A.Fn)
	mgr.Invalidate(info.B.Fn)
	for _, caller := range info.Callers {
		mgr.Invalidate(caller)
	}
	scope := mgr.auditScope(m, info)
	if afterIndexUpdate != nil {
		afterIndexUpdate(mgr, m)
	}

	var ds Diagnostics
	errf := func(fn, blk, instr, format string, args ...any) {
		ds = append(ds, Diagnostic{
			Checker: CheckerMergeAudit, Sev: Error,
			Func: fn, Block: blk, Instr: instr,
			Msg: fmt.Sprintf(format, args...),
		})
	}

	g := info.Merged
	if m.Func(g.Name()) != g {
		errf(g.Name(), "", "", "merged function is not in the module")
		return ds
	}
	ctx := m.Ctx
	if len(g.Params) == 0 || g.Params[0].Ty != ctx.I1 {
		errf(g.Name(), "", "", "merged function lacks a leading i1 discriminator parameter")
	} else {
		ds = append(ds, auditDiscriminator(g)...)
	}

	ds = append(ds, auditSide(m, g, info.A, true)...)
	ds = append(ds, auditSide(m, g, info.B, false)...)
	ds = append(ds, auditRewrittenCalls(m, g, info.A, true)...)
	ds = append(ds, auditRewrittenCalls(m, g, info.B, false)...)

	// Dangling function references: the deleted originals, or leftovers
	// of earlier commits.
	for _, f := range scope {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				for i, op := range in.Operands {
					callee, ok := op.(*ir.Function)
					if !ok {
						continue
					}
					isCallee := (in.Op == ir.OpCall || in.Op == ir.OpInvoke) && i == 0
					if !present(m, callee) {
						kind := "reference to"
						if isCallee {
							kind = "call site still targets"
						}
						errf(f.Name(), b.Name(), instrLabel(in),
							"%s deleted function @%s", kind, callee.Name())
					}
				}
			}
		}
	}
	return ds
}

// auditDiscriminator checks that every use of the merged function's
// discriminator parameter is a control decision: the condition slot of
// a condbr or select. Any other use means a diverging path was wired
// into computation instead of being channelled by the identifier.
func auditDiscriminator(g *ir.Function) Diagnostics {
	var ds Diagnostics
	fid := ir.Value(g.Params[0])
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			for i, op := range in.Operands {
				if op != fid {
					continue
				}
				condPos := (in.Op == ir.OpCondBr || in.Op == ir.OpSelect) && i == 0
				if !condPos {
					ds = append(ds, Diagnostic{
						Checker: CheckerMergeAudit, Sev: Error,
						Func: g.Name(), Block: b.Name(), Instr: instrLabel(in),
						Msg: fmt.Sprintf("discriminator %%%s used outside a condbr/select condition (operand %d of %s)",
							g.Params[0].Name(), i, in.Op),
					})
				}
			}
		}
	}
	return ds
}

// auditSide validates the post-commit state of one replaced original.
func auditSide(m *ir.Module, g *ir.Function, side merge.CommitSide, idA bool) Diagnostics {
	var ds Diagnostics
	errf := func(blk, instr, format string, args ...any) {
		ds = append(ds, Diagnostic{
			Checker: CheckerMergeAudit, Sev: Error,
			Func: side.Name, Block: blk, Instr: instr,
			Msg: fmt.Sprintf(format, args...),
		})
	}

	if !side.Thunked {
		if m.Func(side.Name) == side.Fn {
			errf("", "", "deleted original is still in the module")
		}
		return ds
	}

	f := side.Fn
	if m.Func(side.Name) != f {
		errf("", "", "thunk is not in the module under the original name")
		return ds
	}
	if f.Sig != side.Sig {
		errf("", "", "thunk signature %s differs from the original %s", f.Sig, side.Sig)
		return ds
	}
	if len(f.Blocks) != 1 {
		errf("", "", "thunk has %d blocks, want 1", len(f.Blocks))
		return ds
	}
	b := f.Blocks[0]
	if len(b.Instrs) != 2 {
		errf(b.Name(), "", "thunk body has %d instructions, want call+ret", len(b.Instrs))
		return ds
	}
	call, ret := b.Instrs[0], b.Instrs[1]
	if call.Op != ir.OpCall || call.Operands[0] != ir.Value(g) {
		errf(b.Name(), instrLabel(call), "thunk does not call the merged function @%s", g.Name())
		return ds
	}
	params := make([]ir.Value, len(f.Params))
	for i, p := range f.Params {
		params[i] = p
	}
	if !auditForwarding(m, g, call, params, side.ParamMap, idA, "thunk", func(format string, args ...any) {
		errf(b.Name(), instrLabel(call), format, args...)
	}) {
		return ds
	}
	if ret.Op != ir.OpRet {
		errf(b.Name(), instrLabel(ret), "thunk does not end in ret")
		return ds
	}
	if g.ReturnType().IsVoid() {
		if len(ret.Operands) != 0 {
			errf(b.Name(), instrLabel(ret), "void thunk returns a value")
		}
	} else if len(ret.Operands) != 1 || ret.Operands[0] != ir.Value(call) {
		errf(b.Name(), instrLabel(ret), "thunk does not return the merged call's result")
	}
	return ds
}

// auditRewrittenCalls checks every call site the commit redirected
// from side's original to the merged function g. Calls left behind in a
// deleted original's body are not in the module and are skipped.
func auditRewrittenCalls(m *ir.Module, g *ir.Function, side merge.CommitSide, idA bool) Diagnostics {
	var ds Diagnostics
	what := "rewritten call of @" + side.Name
	for _, rc := range side.Calls {
		in := rc.Call
		f := in.Parent.Parent
		if !present(m, f) {
			continue
		}
		errf := func(format string, args ...any) {
			ds = append(ds, Diagnostic{
				Checker: CheckerMergeAudit, Sev: Error,
				Func: f.Name(), Block: in.Parent.Name(), Instr: instrLabel(in),
				Msg: fmt.Sprintf(format, args...),
			})
		}
		if in.Operands[0] != ir.Value(g) {
			errf("%s does not call the merged function @%s", what, g.Name())
			continue
		}
		auditForwarding(m, g, in, rc.Args, side.ParamMap, idA, what, errf)
	}
	return ds
}

// auditForwarding checks call, a call of the merged function g standing
// in for a call of one original with arguments orig (a thunk forwards
// the original's own parameters): it must pass g's full parameter list
// — the literal discriminator idA, each of orig exactly once through
// paramMap, and a type-correct undef in every unshared slot. what names
// the call in messages. It reports false when the arity is wrong, which
// leaves nothing else to check.
func auditForwarding(m *ir.Module, g *ir.Function, call *ir.Instr, orig []ir.Value, paramMap map[int]int, idA bool, what string, errf func(format string, args ...any)) bool {
	args := call.CallArgs()
	if len(args) != len(g.Params) {
		errf("%s passes %d arguments, merged function has %d parameters", what, len(args), len(g.Params))
		return false
	}
	if c, ok := args[0].(*ir.Const); !ok || c.Ty != m.Ctx.I1 || c.Undef || (c.IntVal != 0) != idA {
		errf("%s discriminator argument %s, want i1 %v", what, args[0].Ident(), idA)
	}
	forwarded := make([]bool, len(orig))
	for i := 1; i < len(args); i++ {
		oi, shared := paramMap[i]
		if !shared {
			c, ok := args[i].(*ir.Const)
			if !ok || !c.Undef {
				errf("%s argument %d is %s, want undef (unshared slot)", what, i, args[i].Ident())
			} else if c.Ty != g.Params[i].Ty {
				errf("%s undef argument %d has type %s, want %s", what, i, c.Ty, g.Params[i].Ty)
			}
			continue
		}
		switch {
		case oi < 0 || oi >= len(orig):
			errf("parameter map slot %d points at argument %d of %d", i, oi, len(orig))
			continue
		case forwarded[oi]:
			errf("%s forwards parameter %d twice", what, oi)
		case args[i] != orig[oi]:
			errf("%s argument %d is %s, want forwarded parameter %d (%s)", what, i, args[i].Ident(), oi, orig[oi].Ident())
		}
		forwarded[oi] = true
	}
	for oi, ok := range forwarded {
		if !ok {
			errf("%s does not forward parameter %d", what, oi)
		}
	}
	return true
}
