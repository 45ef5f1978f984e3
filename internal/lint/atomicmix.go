package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// AtomicMix flags a struct field that is accessed both through sync/atomic
// function calls (atomic.AddUint64(&s.n, 1)) and through plain loads or
// stores (s.n++, v := s.n) in the same package. Mixing the two is a
// race-detector-class bug that any host-side counter shared between
// goroutines (the runner's parallelism bound, a grid's busy-worker level)
// is one edit away from: the plain access races with concurrent atomic
// updates, and on weakly ordered hardware can observe torn or stale
// values. Once a field is atomic, every
// access must go through sync/atomic (or the field should become one of
// the atomic.Int64-style types, which make plain access impossible).
//
// This analyzer runs module-wide: the bug is a host-side race, not a
// determinism leak, so the host packages need it most.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc:  "a field accessed via sync/atomic must never also be accessed plainly",
	Run:  runAtomicMix,
}

func runAtomicMix(p *Package) []Finding {
	// Pass 1: collect every field whose address is passed to a sync/atomic
	// function, and remember those selector nodes so pass 2 does not count
	// them as plain accesses.
	atomicFields := map[*types.Var]ast.Node{} // field -> first atomic call (for the message)
	inAtomicCall := map[*ast.SelectorExpr]bool{}
	p.inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := p.calleeFunc(call)
		if fn == nil || pkgPathOf(fn) != "sync/atomic" {
			return true
		}
		for _, arg := range call.Args {
			ue, ok := ast.Unparen(arg).(*ast.UnaryExpr)
			if !ok {
				continue
			}
			sel, ok := ast.Unparen(ue.X).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			if fld := p.fieldOf(sel); fld != nil {
				if _, seen := atomicFields[fld]; !seen {
					atomicFields[fld] = call
				}
				inAtomicCall[sel] = true
			}
		}
		return true
	})
	if len(atomicFields) == 0 {
		return nil
	}
	// Pass 2: any other selector resolving to one of those fields is a
	// plain access.
	var out []Finding
	p.inspect(func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || inAtomicCall[sel] {
			return true
		}
		fld := p.fieldOf(sel)
		if fld == nil {
			return true
		}
		if first, ok := atomicFields[fld]; ok {
			pos := p.position(first)
			out = append(out, p.finding(sel, "atomicmix",
				"field %s is accessed with sync/atomic at %s:%d but plainly here; every access must be atomic",
				fld.Name(), filepath.Base(pos.Filename), pos.Line))
		}
		return true
	})
	return out
}

// fieldOf resolves a selector expression to the struct field it denotes,
// or nil when it names a method, package member, or unresolved symbol.
func (p *Package) fieldOf(sel *ast.SelectorExpr) *types.Var {
	if s, ok := p.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
	}
	return nil
}
