package analysis

import (
	"fmt"
	"sort"

	"f3m/internal/ir"
)

// CheckerStrictVerify names the strict verifier in diagnostics.
const CheckerStrictVerify = "strict-verify"

// StrictVerify runs the strict module verifier: every function
// definition is checked against the full ir.FuncIssues rule set
// (operand arity and types including the GEP/alloca/cast rules, phi
// edges, terminators, SSA dominance) and the module is checked for
// duplicate symbols and references to functions that are not — or are
// no longer — part of it. All findings are errors: each one is IR that
// could miscompile silently.
func StrictVerify(mgr *Manager, m *ir.Module) Diagnostics {
	var ds Diagnostics
	// A fresh membership set on every call: this pass is the net for
	// any mutation outside a commit's declared footprint, so it trusts
	// no state kept across commits.
	inModule := make(map[*ir.Function]bool, len(m.Funcs))
	seen := make(map[string]int, len(m.Funcs))
	for _, f := range m.Funcs {
		inModule[f] = true
		seen[f.Name()]++
	}
	// Sorted emission: diagnostics join the rendered report, which must
	// be byte-identical across runs.
	names := make([]string, 0, len(seen))
	for name := range seen { // lintmap:ignore keys are sorted before emission
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if n := seen[name]; n > 1 {
			ds = append(ds, Diagnostic{
				Checker: CheckerStrictVerify, Sev: Error, Func: name,
				Msg: fmt.Sprintf("function defined %d times in the module", n),
			})
		}
	}

	for _, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		for _, issue := range ir.FuncIssues(f) {
			ds = append(ds, Diagnostic{
				Checker: CheckerStrictVerify, Sev: Error, Func: f.Name(),
				Msg: issue.Error(),
			})
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				for i, op := range in.Operands {
					callee, ok := op.(*ir.Function)
					if !ok || inModule[callee] {
						continue
					}
					kind := "reference to"
					if (in.Op == ir.OpCall || in.Op == ir.OpInvoke) && i == 0 {
						kind = "call to"
					}
					ds = append(ds, Diagnostic{
						Checker: CheckerStrictVerify, Sev: Error,
						Func: f.Name(), Block: b.Name(), Instr: instrLabel(in),
						Msg: fmt.Sprintf("%s @%s which is not a function in the module", kind, callee.Name()),
					})
				}
			}
		}
	}
	return ds
}

// instrLabel identifies an instruction in a diagnostic: its result name
// when it has one, else its opcode mnemonic.
func instrLabel(in *ir.Instr) string {
	if in.Nam != "" {
		return in.Nam
	}
	return in.Op.String()
}
