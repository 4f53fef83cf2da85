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
//   - every remaining direct call of the merged function passes the
//     full merged parameter list, discriminator first.
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

	// Dangling function references (the deleted originals, or leftovers
	// of earlier commits) and the shape of every call site that targets
	// the merged function; a call of a function created by this commit
	// can only sit in a function the commit touched.
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
						continue
					}
					if isCallee && callee == g {
						ds = append(ds, auditMergedCall(f, b, in, g)...)
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
	args := call.CallArgs()
	if len(args) != len(g.Params) {
		errf(b.Name(), instrLabel(call), "thunk passes %d arguments, merged function has %d parameters",
			len(args), len(g.Params))
		return ds
	}
	if c, ok := args[0].(*ir.Const); !ok || c.Ty != m.Ctx.I1 || (c.IntVal != 0) == !idA {
		errf(b.Name(), instrLabel(call), "thunk discriminator argument %s, want i1 %v", args[0].Ident(), idA)
	}
	for i := 1; i < len(g.Params); i++ {
		if oi, ok := side.ParamMap[i]; ok {
			if oi < 0 || oi >= len(f.Params) {
				errf(b.Name(), instrLabel(call), "parameter map slot %d points at argument %d of %d", i, oi, len(f.Params))
				continue
			}
			if args[i] != ir.Value(f.Params[oi]) {
				errf(b.Name(), instrLabel(call),
					"thunk argument %d is %s, want forwarded parameter %%%s", i, args[i].Ident(), f.Params[oi].Name())
			}
			continue
		}
		c, ok := args[i].(*ir.Const)
		if !ok || !c.Undef {
			errf(b.Name(), instrLabel(call), "thunk argument %d is %s, want undef (unshared slot)", i, args[i].Ident())
		} else if c.Ty != g.Params[i].Ty {
			errf(b.Name(), instrLabel(call), "thunk undef argument %d has type %s, want %s", i, c.Ty, g.Params[i].Ty)
		}
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

// auditMergedCall checks the shape of one rewritten call site: full
// merged arity with an i1 discriminator in the leading slot.
func auditMergedCall(f *ir.Function, b *ir.Block, in *ir.Instr, g *ir.Function) Diagnostics {
	var ds Diagnostics
	errf := func(format string, args ...any) {
		ds = append(ds, Diagnostic{
			Checker: CheckerMergeAudit, Sev: Error,
			Func: f.Name(), Block: b.Name(), Instr: instrLabel(in),
			Msg: fmt.Sprintf(format, args...),
		})
	}
	args := in.CallArgs()
	if len(args) != len(g.Params) {
		errf("call to merged @%s passes %d arguments, want %d", g.Name(), len(args), len(g.Params))
		return ds
	}
	if len(args) > 0 && args[0].Type() != g.Params[0].Ty {
		errf("call to merged @%s passes %s discriminator, want i1", g.Name(), args[0].Type())
	}
	return ds
}
