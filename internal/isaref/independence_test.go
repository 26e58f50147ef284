package isaref_test

import (
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
// packages that execute or time the ISA.
func TestReferencesShareNoCode(t *testing.T) {
	forbidden := map[string]bool{}
	for _, p := range []string{"vm", "mem", "mmx", "fixed", "pentium", "profile"} {
		forbidden["mmxdsp/internal/"+p] = true
	}
	for _, dir := range []string{".", "../mmxref"} {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ImportsOnly)
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
			}
		}
	}
}
