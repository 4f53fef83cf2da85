package ir

import "fmt"

// SplitModule partitions a module into n translation units, each in
// its own fresh TypeContext, as a whole-program workload would look if
// it had been compiled as n separate files: partition i keeps the
// bodies of every i-th function definition (round-robin over the
// definition order) and declares the rest, so every cross-partition
// call resolves at link time. Globals are replicated into every
// partition that could need them (the linker unifies by name).
// LinkModules over the result reconstructs a module equivalent to the
// input; the cross-module merge tests and the scripts/check.sh corpus
// gate are the consumers.
//
// Each partition's context is first seeded with every type the input
// mentions, in the order ParseModule would intern them from the input's
// printed form, so a partition assigns each type the dense ID a
// textual copy of the input would, whichever bodies it keeps.
// Partitions are built structurally: globals and all function headers,
// then clones of the owned bodies only.
//
// The input is not modified. n < 1 or a module with fewer definitions
// than partitions is an error (an empty partition would be pointless
// and masks miscounted test corpora).
func SplitModule(m *Module, n int) ([]*Module, error) {
	if n < 1 {
		return nil, fmt.Errorf("ir: split: %d partitions", n)
	}
	defs := 0
	for _, f := range m.Funcs {
		if !f.IsDecl() {
			defs++
		}
	}
	if defs < n {
		return nil, fmt.Errorf("ir: split: %d definitions cannot fill %d partitions", defs, n)
	}

	out := make([]*Module, n)
	for i := 0; i < n; i++ {
		part := NewModule(fmt.Sprintf("%s.part%d", m.Name, i))
		im := newTypeImporter(part.Ctx)
		im.module(m)
		for _, g := range m.Globs {
			part.NewGlobal(g.Nam, im.typ(g.Elem), im.constant(g.Init))
		}
		for _, f := range m.Funcs {
			declareInto(part, f, im)
		}
		di := 0
		for _, f := range m.Funcs {
			if f.IsDecl() {
				continue
			}
			if di%n == i {
				cloneBodyInto(part, part.Func(f.Nam), f, im)
			}
			di++
		}
		if err := VerifyModule(part); err != nil {
			return nil, fmt.Errorf("ir: split: partition %d: %w", i, err)
		}
		out[i] = part
	}
	return out, nil
}
