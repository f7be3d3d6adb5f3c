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

// goFile is one parsed non-test Go file of the repository.
type goFile struct {
	dir     string // its directory, slash-separated, relative to the root
	f       *ast.File
	imports map[string]string // local name → imported package's directory
}

// parseTree parses every non-test Go file of the repository outside
// testdata and hidden directories; bench/, cmd/ and examples/ included.
func parseTree(t *testing.T) []goFile {
	t.Helper()
	fset := token.NewFileSet()
	pkgName := map[string]string{} // import path → package name
	var files []goFile
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
		files = append(files, goFile{dir: dir, f: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, fl := range files {
		files[i].imports = map[string]string{}
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
			files[i].imports[local] = dir
		}
	}
	return files
}

// checkList compares found, sorted, with the names listed in the file at
// path, one a line with # comments, which may only shrink: a found name
// not listed fails with msgNew, a listed name no longer found with
// msgGone.
func checkList(t *testing.T, path string, found []string, msgNew, msgGone string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			listed[line] = true
		}
	}
	for _, name := range found {
		if !listed[name] {
			t.Errorf("%s "+msgNew, name)
		}
		delete(listed, name)
	}
	gone := make([]string, 0, len(listed))
	for name := range listed {
		gone = append(gone, name)
	}
	sort.Strings(gone)
	for _, name := range gone {
		t.Errorf("%s "+msgGone, name, path)
	}
}

// TestExportsHaveCallers keeps internal/ from exporting what only its
// own tests use. It lists the exported functions and methods declared
// under internal/ that no non-test file in the repository references —
// bench/, cmd/ and examples/ count as callers — and checks the list
// against testdata/uncalled_exports.txt. A new uncalled export fails, and
// so does a listed name that is now called or gone: the list only
// shrinks. The scan is syntactic: a function counts as called when its
// package-qualified name (or, inside its package, its bare name)
// appears; a method when any selector names it. That is the check's
// blind spot: a method counts as called whenever any selector has its
// name, whatever the receiver, so seq.Index.Search passed while only
// seq's tests called it, because search.Index.Search and DB.Search have
// callers.
func TestExportsHaveCallers(t *testing.T) {
	files := parseTree(t)
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
		imports := fl.imports
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

	checkList(t, "testdata/uncalled_exports.txt", uncalled,
		"is exported but only tests call it: unexport it, move it into a _test.go file, or delete it",
		"is no longer an uncalled export: remove it from %s")
}

// TestOptionsHaveSetters keeps pipeline options from outliving their
// callers: an option with one value in use is a constant. It lists the
// fields of every Options and SearchOptions struct under internal/ that
// no non-test file outside the struct's package sets, and checks the list
// against testdata/unset_options.txt, which only shrinks. The scan is
// syntactic, like TestExportsHaveCallers': a field counts as set where it
// is a key of a composite literal of its package-qualified type, or where
// any selector on the left of an assignment names it.
func TestOptionsHaveSetters(t *testing.T) {
	files := parseTree(t)
	type field struct{ dir, typ, name string }
	var declared []field
	for _, fl := range files {
		if !strings.HasPrefix(fl.dir, "internal/") {
			continue
		}
		for _, d := range fl.f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, sp := range gd.Specs {
				ts := sp.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || ts.Name.Name != "Options" && ts.Name.Name != "SearchOptions" {
					continue
				}
				for _, f := range st.Fields.List {
					for _, n := range f.Names {
						declared = append(declared, field{fl.dir, ts.Name.Name, n.Name})
					}
				}
			}
		}
	}

	keyed := map[string]bool{}               // "dir.Type.Field" keyed outside dir
	assigned := map[string]map[string]bool{} // field name → dirs assigning through it
	for _, fl := range files {
		ast.Inspect(fl.f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CompositeLit:
				sel, ok := x.Type.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok || fl.imports[id.Name] == "" {
					return true
				}
				for _, e := range x.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if k, ok := kv.Key.(*ast.Ident); ok {
							keyed[fl.imports[id.Name]+"."+sel.Sel.Name+"."+k.Name] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, e := range x.Lhs {
					for {
						switch y := e.(type) {
						case *ast.SelectorExpr:
							if assigned[y.Sel.Name] == nil {
								assigned[y.Sel.Name] = map[string]bool{}
							}
							assigned[y.Sel.Name][fl.dir] = true
							e = y.X
							continue
						case *ast.IndexExpr:
							e = y.X
							continue
						case *ast.ParenExpr:
							e = y.X
							continue
						case *ast.StarExpr:
							e = y.X
							continue
						}
						break
					}
				}
			}
			return true
		})
	}

	var unset []string
	for _, f := range declared {
		name := f.dir + "." + f.typ + "." + f.name
		set := keyed[name]
		for dir := range assigned[f.name] {
			set = set || dir != f.dir
		}
		if !set {
			unset = append(unset, name)
		}
	}
	sort.Strings(unset)
	checkList(t, "testdata/unset_options.txt", unset,
		"is set by no non-test file outside its package: make it a constant at the value in use",
		"is set now, or gone: remove it from %s")
}

// TestPublicOptionsHaveCallers keeps the public aladin package to one way
// of doing each job: every exported function returning an Option or an
// IngestOption must be called by a non-test file under cmd/, examples/ or
// bench/. An option only aladin's own tests set is a constant at the value
// in use. There is no allowance list.
func TestPublicOptionsHaveCallers(t *testing.T) {
	files := parseTree(t)
	var declared []string
	for _, fl := range files {
		if fl.dir != "aladin" {
			continue
		}
		for _, d := range fl.f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !fd.Name.IsExported() || fd.Type.Results == nil || len(fd.Type.Results.List) != 1 {
				continue
			}
			if id, ok := fd.Type.Results.List[0].Type.(*ast.Ident); ok && (id.Name == "Option" || id.Name == "IngestOption") {
				declared = append(declared, fd.Name.Name)
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("no aladin option constructors found")
	}

	called := map[string]bool{}
	for _, fl := range files {
		if !strings.HasPrefix(fl.dir, "cmd/") && !strings.HasPrefix(fl.dir, "examples/") &&
			fl.dir != "bench" && !strings.HasPrefix(fl.dir, "bench/") {
			continue
		}
		ast.Inspect(fl.f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && fl.imports[id.Name] == "aladin" {
					called[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	sort.Strings(declared)
	for _, name := range declared {
		if !called[name] {
			t.Errorf("aladin.%s has no caller in cmd/, examples/ or bench/: delete it and make its setting a constant", name)
		}
	}
}
