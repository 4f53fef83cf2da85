package core

import (
	"testing"

	"f3m/internal/interp"
	"f3m/internal/ir"
	"f3m/internal/irgen"
	"f3m/internal/merge"
)

// TestPairwiseMergeDifferential merges random generated function pairs
// and checks, via the interpreter, that the merged function reproduces
// both originals exactly — the strongest correctness statement the
// repository makes about the code generator.
func TestPairwiseMergeDifferential(t *testing.T) {
	cfg := irgen.Config{
		Seed: 2024, Families: 6, FamilySizeMin: 2, FamilySizeMax: 3,
		Singletons: 6, BlocksMin: 2, BlocksMax: 6, InstrsMin: 3, InstrsMax: 10,
		MutationMin: 0, MutationMax: 0.6,
	}
	ref := irgen.Generate(cfg).Module
	fns := candidates(ref)
	limit := 10
	if len(fns) < limit {
		limit = len(fns)
	}

	argTuples := [][]int64{{0, 0, 0, 0}, {3, 4, 5, 6}, {-9, 2, 0, 1}, {100, -100, 50, 7}}

	for i := 0; i < limit; i++ {
		for j := i + 1; j < limit; j++ {
			// Fresh module per pair: merging mutates it.
			work := irgen.Generate(cfg).Module
			wa, wb := work.Func(fns[i].Name()), work.Func(fns[j].Name())
			res, err := merge.Pair(work, wa, wb, merge.DefaultOptions())
			if err != nil {
				continue // incompatible pair
			}
			for side := 0; side < 2; side++ {
				id := side == 0
				orig := ref.Func(fns[i].Name())
				if !id {
					orig = ref.Func(fns[j].Name())
				}
				for _, tuple := range argTuples {
					checkSame(t, ref, work, orig, res, id, tuple)
				}
			}
			merge.Discard(work, res)
		}
	}
}

// checkSame runs orig (in its module) and the merged function (in the
// work module) on one argument tuple and compares results.
func checkSame(t *testing.T, refM, workM *ir.Module, orig *ir.Function, res *merge.Result, id bool, tuple []int64) {
	t.Helper()
	mkArgs := func(f *ir.Function) []interp.Val {
		args := make([]interp.Val, len(f.Params))
		for k, p := range f.Params {
			if p.Ty.IsFloat() {
				args[k] = interp.FloatVal(p.Ty, float64(tuple[k%len(tuple)])+0.5)
			} else {
				args[k] = interp.IntVal(p.Ty, tuple[k%len(tuple)])
			}
		}
		return args
	}
	m1 := interp.NewMachine(refM)
	m1.StepLimit = 5_000_000
	want, err1 := m1.Call(orig, mkArgs(orig)...)

	worig := workM.Func(orig.Name())
	oargs := mkArgs(worig)
	margs := make([]interp.Val, len(res.Merged.Params))
	margs[0] = interp.IntVal(workM.Ctx.I1, boolToI(id))
	pm := res.ParamMap(id)
	for mi := 1; mi < len(res.Merged.Params); mi++ {
		pt := res.Merged.Params[mi].Ty
		if oi, ok := pm[mi]; ok {
			margs[mi] = oargs[oi]
		} else if pt.IsFloat() {
			margs[mi] = interp.FloatVal(pt, 0)
		} else {
			margs[mi] = interp.IntVal(pt, 0)
		}
	}
	m2 := interp.NewMachine(workM)
	m2.StepLimit = 5_000_000
	got, err2 := m2.Call(res.Merged, margs...)

	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("%s (id=%v) args %v: errors differ: %v vs %v\nmerged:\n%s",
			orig.Name(), id, tuple, err1, err2, ir.FuncString(res.Merged))
	}
	if err1 == nil && (want.I != got.I || want.F != got.F) {
		t.Fatalf("%s (id=%v) args %v: want %v, got %v\nmerged:\n%s",
			orig.Name(), id, tuple, want, got, ir.FuncString(res.Merged))
	}
}

func boolToI(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
