package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestExportsHaveCallers keeps internal/ from exporting what only its
// own tests use. It lists the exported functions and methods declared
// under internal/ that no non-test file in the repository references —
// bench/, cmd/ and examples/ count as callers — and checks the list
// against testdata/uncalled_exports.txt. A new uncalled export fails, and
// so does a listed name that is now called or gone: the list only
// shrinks. The scan is syntactic: a function counts as called when its
// package-qualified name (or, inside its package, its bare name)
// appears; a method when any selector names it.
func TestExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	pkgName := map[string]string{} // import path → package name
	type file struct {
		dir string
		f   *ast.File
	}
	var files []file
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkgName["repro/"+dir] = f.Name.Name // the root package is never imported
		files = append(files, file{dir, f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]bool{}    // "dir.Func" or "dir.Type.Method"
	methods := map[string][]string{} // method name → its declarations
	for _, fl := range files {
		if !strings.HasPrefix(fl.dir, "internal/") {
			continue
		}
		for _, d := range fl.f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			if fd.Recv == nil {
				declared[fl.dir+"."+fd.Name.Name] = true
				continue
			}
			typ := fd.Recv.List[0].Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			switch x := typ.(type) {
			case *ast.IndexExpr:
				typ = x.X
			case *ast.IndexListExpr:
				typ = x.X
			}
			name := fl.dir + "." + typ.(*ast.Ident).Name + "." + fd.Name.Name
			declared[name] = true
			methods[fd.Name.Name] = append(methods[fd.Name.Name], name)
		}
	}

	called := map[string]bool{}
	for _, fl := range files {
		imports := map[string]string{} // local name → package dir
		for _, im := range fl.f.Imports {
			path, _ := strconv.Unquote(im.Path.Value)
			dir, ok := strings.CutPrefix(path, "repro/")
			if !ok {
				continue
			}
			local := pkgName[path]
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = dir
		}
		// Names a node refers to: pkg.F through an import of pkg, F inside
		// F's own package, and x.M for every exported method called M.
		var mark func(n ast.Node) bool
		mark = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl: // a declaration is not a reference
				if x.Body != nil {
					ast.Inspect(x.Body, mark)
				}
				return false
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
					called[imports[id.Name]+"."+x.Sel.Name] = true
				}
				for _, m := range methods[x.Sel.Name] {
					called[m] = true
				}
			case *ast.Ident:
				called[fl.dir+"."+x.Name] = true
			}
			return true
		}
		ast.Inspect(fl.f, mark)
	}

	var uncalled []string
	for name := range declared {
		if !called[name] {
			uncalled = append(uncalled, name)
		}
	}
	sort.Strings(uncalled)

	raw, err := os.ReadFile("testdata/uncalled_exports.txt")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			listed[line] = true
		}
	}
	for _, name := range uncalled {
		if !listed[name] {
			t.Errorf("%s is exported but only tests call it: unexport it, move it into a _test.go file, or delete it", name)
		}
		delete(listed, name)
	}
	for name := range listed {
		if declared[name] {
			t.Errorf("%s now has a caller: remove it from testdata/uncalled_exports.txt", name)
		} else {
			t.Errorf("%s is gone: remove it from testdata/uncalled_exports.txt", name)
		}
	}
}
