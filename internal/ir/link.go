package ir

import "fmt"

// LinkModules combines translation units into one module, the setup the
// paper's evaluation uses ("we compiled and linked all their source
// files to a monolithic LLVM bitcode file", Section IV-A). Symbol
// resolution follows the usual linker rules:
//
//   - a definition satisfies any number of declarations of the same
//     signature;
//   - duplicate definitions of one function are an error;
//   - globals unify by name and type, keeping the initializer (two
//     different initializers conflict).
//
// The result lives in the first input's TypeContext. Inputs in another
// context are moved structurally: their types are re-interned in the
// result's context, in the order a print/parse round-trip would meet
// them, and their constants are copied with the re-interned types.
// Inputs are not modified, and neither are their contexts.
func LinkModules(name string, mods ...*Module) (*Module, error) {
	if len(mods) == 0 {
		return nil, fmt.Errorf("ir: link: no input modules")
	}
	ctx := mods[0].Ctx
	// Every foreign type is interned before the result is built, so the
	// dense IDs do not depend on what verification interns later.
	imps := make([]*typeImporter, len(mods))
	var foreign *typeImporter
	for k, m := range mods {
		if m.Ctx == ctx {
			continue
		}
		if foreign == nil {
			foreign = newTypeImporter(ctx)
		}
		foreign.module(m)
		imps[k] = foreign
	}

	out := NewModuleInCtx(name, ctx)

	// Globals: unify by name.
	for k, m := range mods {
		im := imps[k]
		for _, g := range m.Globs {
			elem, init := im.typ(g.Elem), im.constant(g.Init)
			prev := out.Global(g.Nam)
			if prev == nil {
				out.NewGlobal(g.Nam, elem, init)
				continue
			}
			if prev.Elem != elem {
				return nil, fmt.Errorf("ir: link: global @%s has conflicting types %s and %s", g.Nam, prev.Elem, elem)
			}
			if init != nil {
				if prev.Init != nil && !ConstEqual(prev.Init, init) {
					return nil, fmt.Errorf("ir: link: global @%s multiply initialized", g.Nam)
				}
				prev.Init = init
			}
		}
	}

	// Function headers: declarations merge into definitions.
	type body struct {
		src *Function
		im  *typeImporter
	}
	defined := make(map[string]bool)
	var bodies []body
	for k, m := range mods {
		im := imps[k]
		for _, f := range m.Funcs {
			if prev := out.Func(f.Nam); prev == nil {
				declareInto(out, f, im)
			} else if sig := im.typ(f.Sig); prev.Sig != sig {
				return nil, fmt.Errorf("ir: link: function @%s has conflicting signatures %s and %s", f.Nam, prev.Sig, sig)
			}
			if f.IsDecl() {
				continue
			}
			if defined[f.Nam] {
				return nil, fmt.Errorf("ir: link: function @%s multiply defined", f.Nam)
			}
			defined[f.Nam] = true
			bodies = append(bodies, body{f, im})
		}
	}

	// Copy bodies, remapping references into the output module, and
	// verify each linked body so a failure names the function that was
	// being linked rather than just the output module.
	for _, b := range bodies {
		dst := out.Func(b.src.Nam)
		cloneBodyInto(out, dst, b.src, b.im)
		if err := VerifyFunc(dst); err != nil {
			return nil, fmt.Errorf("ir: link: function @%s: %w", b.src.Nam, err)
		}
	}
	// Module-level rules (duplicate symbols, dangling references) span
	// functions, so they are checked once over the finished module.
	if err := VerifyModule(out); err != nil {
		return nil, fmt.Errorf("ir: link: %w", err)
	}
	return out, nil
}
