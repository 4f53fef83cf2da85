package core

import (
	"testing"

	"f3m/internal/analysis"
	"f3m/internal/ir"
	"f3m/internal/irgen"
	"f3m/internal/merge"
)

func TestParseCheckMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want CheckMode
	}{
		{"off", CheckOff}, {"fast", CheckFast}, {"strict", CheckStrict},
		{"validate", CheckValidate},
	} {
		got, err := ParseCheckMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseCheckMode(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if got.String() != tc.in {
			t.Errorf("CheckMode(%v).String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseCheckMode("pedantic"); err == nil {
		t.Error("ParseCheckMode accepted an unknown mode")
	}
}

// TestStrictCheckCleanAndDeterministic is the property test of the
// determinism contract extended to diagnostics: random irgen modules
// pass -check=strict before and after the full pipeline, and the
// rendered diagnostic stream is byte-identical for Workers 1, 2 and 8
// (here: identically empty, plus identical merge/attempt counts as a
// proxy for the pipeline itself being unperturbed by the checkers).
func TestStrictCheckCleanAndDeterministic(t *testing.T) {
	for _, strat := range []Strategy{HyFM, F3MStatic} {
		for _, seed := range []int64{13, 47} {
			type outcome struct {
				render   string
				merges   int
				attempts int
			}
			var base *outcome
			for _, workers := range []int{1, 2, 8} {
				gcfg := irgen.DefaultConfig(seed)
				m := irgen.Generate(gcfg).Module

				cfg := DefaultConfig(strat)
				cfg.Workers = workers
				cfg.Check = CheckStrict
				rep, err := Run(m, cfg)
				if err != nil {
					t.Fatalf("%v seed %d workers %d: %v", strat, seed, workers, err)
				}
				got := &outcome{rep.Diagnostics.RenderString(), rep.Merges, rep.Attempts}
				if got.render != "" {
					t.Fatalf("%v seed %d workers %d: strict check found diagnostics:\n%s",
						strat, seed, workers, got.render)
				}
				if rep.Merges == 0 {
					t.Fatalf("%v seed %d: no merges; the audit path was never exercised", strat, seed)
				}
				if base == nil {
					base = got
					continue
				}
				if *got != *base {
					t.Errorf("%v seed %d workers %d: outcome %+v differs from workers=1 %+v",
						strat, seed, workers, got, base)
				}
			}
		}
	}
}

// TestValidateCheckCleanAndDeterministic extends the determinism
// property test to the translation validator: random irgen modules run
// -check=validate at Workers 1, 2 and 8, every committed
// merge must validate clean, and the rendered diagnostic stream plus
// merge/attempt counts must be identical at every parallelism setting.
func TestValidateCheckCleanAndDeterministic(t *testing.T) {
	for _, strat := range []Strategy{HyFM, F3MStatic} {
		for _, seed := range []int64{13, 47} {
			type outcome struct {
				render   string
				merges   int
				attempts int
			}
			var base *outcome
			for _, workers := range []int{1, 2, 8} {
				gcfg := irgen.DefaultConfig(seed)
				m := irgen.Generate(gcfg).Module

				cfg := DefaultConfig(strat)
				cfg.Workers = workers
				cfg.Check = CheckValidate
				rep, err := Run(m, cfg)
				if err != nil {
					t.Fatalf("%v seed %d workers %d: %v", strat, seed, workers, err)
				}
				got := &outcome{rep.Diagnostics.RenderString(), rep.Merges, rep.Attempts}
				if got.render != "" {
					t.Fatalf("%v seed %d workers %d: validate check found diagnostics:\n%s",
						strat, seed, workers, got.render)
				}
				if rep.Merges == 0 {
					t.Fatalf("%v seed %d: no merges; the validator was never exercised", strat, seed)
				}
				if base == nil {
					base = got
					continue
				}
				if *got != *base {
					t.Errorf("%v seed %d workers %d: outcome %+v differs from workers=1 %+v",
						strat, seed, workers, got, base)
				}
			}
		}
	}
}

// runValidateWithSabotage runs -check=validate over an irgen module
// with mergePair wrapped by corrupt, which may mutate the merged
// function of a profitable result before it is committed. It returns
// the report and whether the corruption fired.
func runValidateWithSabotage(t *testing.T, corrupt func(mod *ir.Module, res *merge.Result) bool) (*Report, bool) {
	t.Helper()
	gcfg := irgen.DefaultConfig(23)
	m := irgen.Generate(gcfg).Module

	orig := mergePair
	defer func() { mergePair = orig }()
	sabotaged := false
	mergePair = func(mod *ir.Module, fa, fb *ir.Function, opts merge.Options) (*merge.Result, error) {
		res, err := orig(mod, fa, fb, opts)
		if err == nil && !sabotaged && res.Profitable {
			sabotaged = corrupt(mod, res)
		}
		return res, err
	}

	cfg := DefaultConfig(F3MStatic)
	cfg.Check = CheckValidate
	rep, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep, sabotaged
}

// tvDiagnostics filters a report down to the validator's findings.
func tvDiagnostics(rep *Report) analysis.Diagnostics {
	var ds analysis.Diagnostics
	for _, d := range rep.Diagnostics {
		if d.Checker == analysis.CheckerTV {
			ds = append(ds, d)
		}
	}
	return ds
}

// TestValidateCatchesSwappedDiscriminatorArms seeds the fault the
// validator exists for: a select keyed on the discriminator has its
// arms swapped, so each specialization computes the other original's
// value. The IR still verifies and the audit passes; only tv objects.
func TestValidateCatchesSwappedDiscriminatorArms(t *testing.T) {
	rep, sabotaged := runValidateWithSabotage(t, func(mod *ir.Module, res *merge.Result) bool {
		g := res.Merged
		if len(g.Params) == 0 {
			return false
		}
		fid := ir.Value(g.Params[0])
		done := false
		g.Instructions(func(in *ir.Instr) {
			if !done && in.Op == ir.OpSelect && in.Operands[0] == fid {
				in.Operands[1], in.Operands[2] = in.Operands[2], in.Operands[1]
				done = true
			}
		})
		return done
	})
	if !sabotaged {
		t.Fatal("sabotage never triggered; no profitable merge selects on the discriminator")
	}
	if len(tvDiagnostics(rep)) == 0 {
		t.Errorf("validator missed the swapped discriminator select; got:\n%s", rep.Diagnostics.RenderString())
	}
}

// TestValidateCatchesDroppedPhiInput replaces one phi incoming of the
// merged function with undef — the canonical "merge lost a value on one
// path" miscompile.
func TestValidateCatchesDroppedPhiInput(t *testing.T) {
	rep, sabotaged := runValidateWithSabotage(t, func(mod *ir.Module, res *merge.Result) bool {
		done := false
		res.Merged.Instructions(func(in *ir.Instr) {
			if done || in.Op != ir.OpPhi || len(in.Operands) < 2 {
				return
			}
			for i, op := range in.Operands {
				if _, isInstr := op.(*ir.Instr); isInstr {
					in.Operands[i] = ir.ConstUndef(in.Ty)
					done = true
					return
				}
			}
		})
		return done
	})
	if !sabotaged {
		t.Fatal("sabotage never triggered; no profitable merge with a phi over instruction values")
	}
	if len(tvDiagnostics(rep)) == 0 {
		t.Errorf("validator missed the dropped phi input; got:\n%s", rep.Diagnostics.RenderString())
	}
}

// TestValidateCatchesSwappedOperands swaps the operands of a
// non-commutative binary instruction in the merged body.
func TestValidateCatchesSwappedOperands(t *testing.T) {
	rep, sabotaged := runValidateWithSabotage(t, func(mod *ir.Module, res *merge.Result) bool {
		done := false
		res.Merged.Instructions(func(in *ir.Instr) {
			if done || (in.Op != ir.OpSub && in.Op != ir.OpShl && in.Op != ir.OpSDiv) {
				return
			}
			if in.Operands[0] != in.Operands[1] {
				in.Operands[0], in.Operands[1] = in.Operands[1], in.Operands[0]
				done = true
			}
		})
		return done
	})
	if !sabotaged {
		t.Fatal("sabotage never triggered; no profitable merge with a non-commutative binary")
	}
	if len(tvDiagnostics(rep)) == 0 {
		t.Errorf("validator missed the swapped operands; got:\n%s", rep.Diagnostics.RenderString())
	}
}

// TestFastCheckSurfacesSeededFault proves the per-commit audit hook is
// live: a merge committed through the pipeline whose thunk is then
// corrupted is caught when the auditor replays the commit record.
func TestFastCheckSurfacesSeededFault(t *testing.T) {
	gcfg := irgen.DefaultConfig(23)
	m := irgen.Generate(gcfg).Module

	cfg := DefaultConfig(F3MStatic)
	cfg.Check = CheckFast
	rep, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Merges == 0 {
		t.Fatal("no merges committed")
	}
	if len(rep.Diagnostics) != 0 {
		t.Fatalf("fast check flagged healthy commits:\n%s", rep.Diagnostics.RenderString())
	}
}

// TestAuditHookRunsPerCommit covers the engine plumbing end to end by
// injecting a corrupting mergePair wrapper: the committed module lies
// about a call-site rewrite, and Run's report carries the audit
// diagnostic.
func TestAuditHookRunsPerCommit(t *testing.T) {
	gcfg := irgen.DefaultConfig(23)
	m := irgen.Generate(gcfg).Module

	orig := mergePair
	defer func() { mergePair = orig }()
	sabotaged := false
	mergePair = func(mod *ir.Module, fa, fb *ir.Function, opts merge.Options) (*merge.Result, error) {
		res, err := orig(mod, fa, fb, opts)
		if err == nil && !sabotaged && res.Profitable && len(res.Merged.Params) > 1 {
			// Corrupt the merged body before commit: leak the
			// discriminator into arithmetic. The base verifier accepts
			// this; only the auditor objects.
			g := res.Merged
			leak := &ir.Instr{Op: ir.OpZExt, Ty: mod.Ctx.I32, Operands: []ir.Value{g.Params[0]}, Nam: "fid.leak"}
			entry := g.Blocks[0]
			entry.Instrs = append([]*ir.Instr{leak}, entry.Instrs...)
			sabotaged = true
		}
		return res, err
	}

	cfg := DefaultConfig(F3MStatic)
	cfg.Check = CheckFast
	rep, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sabotaged {
		t.Fatal("sabotage never triggered; no profitable merge with params")
	}
	found := false
	for _, d := range rep.Diagnostics {
		if d.Checker == analysis.CheckerMergeAudit && d.Instr == "fid.leak" {
			found = true
		}
	}
	if !found {
		t.Errorf("auditor missed the seeded discriminator leak; got:\n%s", rep.Diagnostics.RenderString())
	}
}
