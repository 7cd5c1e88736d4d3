package analysis

import (
	"go/ast"
	"go/types"
)

// FX002 enforces the atomic-bound discipline of the parallel explorer:
// the shared flexibility bound travels through an atomic.Uint64 as
// math.Float64bits, and only the designated helpers — function
// declarations annotated //flexvet:bound-helper — may perform the raw
// bit conversion or touch the bound field. Everything else must call
// the helpers, so the publication protocol (the scan's goroutine writes
// as it commits, workers read, second-chance re-check at commit) stays
// in one place.
//
// Concretely, inside packages named "core" the analyzer flags, outside
// annotated helpers:
//
//   - any call of math.Float64bits or math.Float64frombits;
//   - any selector of a struct field of type sync/atomic.Uint64 whose
//     name contains "bound".
var FX002 = &Analyzer{
	Name: "fx002",
	Code: "FX002",
	Doc: "check that the shared flexibility bound is loaded and stored only " +
		"through the annotated //flexvet:bound-helper functions",
	Run: runFX002,
}

func runFX002(pass *Pass) error {
	if !ScopedTo(pass.Pkg, "core") {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || HasDirective(fn, "bound-helper") {
				continue
			}
			checkBoundDiscipline(pass, fn)
		}
	}
	return nil
}

func checkBoundDiscipline(pass *Pass, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			callee := CalleeFunc(info, n)
			if IsPkgFunc(callee, "math", "Float64bits") || IsPkgFunc(callee, "math", "Float64frombits") {
				pass.Reportf(n.Pos(), "FX002: raw math.%s outside a //flexvet:bound-helper function; publish the flexibility bound through the designated helper",
					callee.Name())
			}
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[n]; ok && sel.Kind() == types.FieldVal {
				field := sel.Obj()
				if isBoundField(field) {
					pass.Reportf(n.Pos(), "FX002: direct access to atomic bound field %q outside a //flexvet:bound-helper function",
						field.Name())
				}
			}
		}
		return true
	})
}

// isBoundField reports whether the object is a struct field of type
// sync/atomic.Uint64 whose name names the bound.
func isBoundField(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || !v.IsField() {
		return false
	}
	return containsFold(v.Name(), "bound") && IsNamedType(v.Type(), "sync/atomic", "Uint64")
}

// containsFold is a case-insensitive strings.Contains for ASCII names.
func containsFold(s, sub string) bool {
	lower := func(b byte) byte {
		if b >= 'A' && b <= 'Z' {
			return b + 'a' - 'A'
		}
		return b
	}
	n, m := len(s), len(sub)
	for i := 0; i+m <= n; i++ {
		match := true
		for j := 0; j < m; j++ {
			if lower(s[i+j]) != lower(sub[j]) {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}
