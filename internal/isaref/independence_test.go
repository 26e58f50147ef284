package isaref_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strconv"
	"strings"
	"testing"
)

// TestReferencesShareNoCode holds the references to their promise: an
// oracle that imported what it checks would only check that code against
// itself. Neither internal/isaref nor internal/mmxref may import the
// packages that execute or time the ISA, nor name the assembler's
// operand-shape table (isa.Inst.CheckOperands and its ShapeError), which
// isaref's own shape checks are the test of.
func TestReferencesShareNoCode(t *testing.T) {
	forbidden := map[string]bool{}
	for _, p := range []string{"vm", "mem", "mmx", "fixed", "pentium", "profile"} {
		forbidden["mmxdsp/internal/"+p] = true
	}
	forbiddenNames := map[string]bool{"CheckOperands": true, "ShapeError": true}
	for _, dir := range []string{".", "../mmxref"} {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkgs) == 0 {
			t.Fatalf("%s: no package found", dir)
		}
		for _, pkg := range pkgs {
			for name, f := range pkg.Files {
				for _, imp := range f.Imports {
					path, _ := strconv.Unquote(imp.Path.Value)
					if forbidden[path] {
						t.Errorf("%s imports %s", name, path)
					}
				}
				ast.Inspect(f, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && forbiddenNames[id.Name] {
						t.Errorf("%s uses %s", name, id.Name)
					}
					return true
				})
			}
		}
	}
}
