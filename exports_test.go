package waterwheel

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestInternalExportsAreReferenced holds every exported function and method
// under internal/ to a referrer in non-test code — this module's or the
// ledger's (ledger/, the benchmark module, which imports these packages) —
// or to a line of .github/unreferenced-exports.allow saying why it stays.
// References are resolved to objects by go/types, not matched by name: a
// method shares no references with another method of the same name. A
// method is also referenced when it implements an interface the code calls
// it through: one declared here whose method is used, or one from outside
// the module that the code names (error, http.Handler ...) or fmt.Stringer,
// whose callers are the standard library. An allow-list line whose export has a referrer
// again, or is gone, fails too, so the list cannot rot.
func TestInternalExportsAreReferenced(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library it imports from source")
	}
	l := loadModule(t)

	used := map[types.Object]bool{}
	calledIfaces := map[*types.Interface][]string{} // interfaces declared here, by the methods used through them
	// Interfaces declared outside the module that the code hands values to:
	// the ones it names, and fmt.Stringer, whose String fmt calls on every
	// value it formats without the code ever naming it.
	fmtPkg, err := l.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	outside := []*types.Interface{fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface)}
	for _, p := range l.pkgs {
		if p == nil {
			continue // a directory with no Go files
		}
		for _, obj := range p.info.Uses {
			switch obj := obj.(type) {
			case *types.Func:
				used[obj.Origin()] = true
				if iface := recvInterface(obj); iface != nil {
					calledIfaces[iface] = append(calledIfaces[iface], obj.Name())
				}
			case *types.TypeName:
				if iface, ok := obj.Type().Underlying().(*types.Interface); ok && !l.inModule(obj.Pkg()) {
					outside = append(outside, iface)
				}
			}
		}
	}
	implemented := func(m *types.Func) bool {
		recv := m.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		implements := func(iface *types.Interface) bool {
			return types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)
		}
		for iface, names := range calledIfaces {
			if slices.Contains(names, m.Name()) && implements(iface) {
				return true
			}
		}
		for _, iface := range outside {
			if hasMethod(iface, m.Name()) && implements(iface) {
				return true
			}
		}
		return false
	}

	unreferenced := map[string]string{} // qualified name → position
	for _, p := range l.pkgs {
		if p == nil || !strings.HasPrefix(p.dir, "internal"+string(filepath.Separator)) {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				if used[fn] || fd.Recv != nil && implemented(fn) {
					continue
				}
				unreferenced[qualifiedName(fn)] = l.fset.Position(fd.Pos()).String()
			}
		}
	}

	allowed := readAllowList(t, filepath.Join(".github", "unreferenced-exports.allow"))
	var names []string
	for name := range unreferenced {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := allowed[name]; !ok {
			t.Errorf("%s: %s is exported and no non-test code refers to it: delete it, move it to an export_test.go, or allow-list it with a reason", unreferenced[name], name)
		}
	}
	for name := range allowed {
		if _, ok := unreferenced[name]; !ok {
			t.Errorf(".github/unreferenced-exports.allow: %s has a referrer (or is gone): drop the line", name)
		}
	}
}

// exportPkg is one type-checked package of non-test files.
type exportPkg struct {
	dir   string
	files []*ast.File
	info  *types.Info
	types *types.Package
}

// exportLoader type-checks this module's and the ledger's packages from
// source, resolving the module's import paths to directories itself and
// everything else (the standard library) through the source importer, so
// nothing is downloaded.
type exportLoader struct {
	fset   *token.FileSet
	module string
	std    types.ImporterFrom
	pkgs   map[string]*exportPkg // by directory
}

func newExportLoader() (*exportLoader, error) {
	module, err := modulePath("go.mod")
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &exportLoader{
		fset:   fset,
		module: module,
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:   map[string]*exportPkg{},
	}, nil
}

// loaded is the module, ledger included, type-checked once for every test
// of the binary that reads it.
var loaded struct {
	once sync.Once
	l    *exportLoader
	err  error
}

// loadModule returns a loader holding every package directory of the
// module, ledger/ included: all but hidden directories and testdata.
func loadModule(t *testing.T) *exportLoader {
	loaded.once.Do(func() {
		l, err := newExportLoader()
		if err == nil {
			err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
				if err != nil || !d.IsDir() {
					return err
				}
				if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
					return filepath.SkipDir
				}
				_, err = l.load(path)
				return err
			})
		}
		loaded.l, loaded.err = l, err
	})
	if loaded.err != nil {
		t.Fatal(loaded.err)
	}
	return loaded.l
}

func (l *exportLoader) inModule(p *types.Package) bool {
	return p != nil && (p.Path() == l.module || strings.HasPrefix(p.Path(), l.module+"/"))
}

func (l *exportLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, ".", 0)
}

func (l *exportLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		p, err := l.load(filepath.FromSlash("." + strings.TrimPrefix(path, l.module)))
		if err == nil && p == nil {
			err = fmt.Errorf("no Go files for %s", path)
		}
		if err != nil {
			return nil, err
		}
		return p.types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// load parses and type-checks the non-test files of dir, once; nil when it
// holds none.
func (l *exportLoader) load(dir string) (*exportPkg, error) {
	dir = filepath.Clean(dir)
	if p, ok := l.pkgs[dir]; ok {
		return p, nil
	}
	l.pkgs[dir] = nil
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		if _, none := err.(*build.NoGoError); none {
			return nil, nil
		}
		return nil, err
	}
	importPath := l.module
	switch {
	case dir == "ledger": // a module of its own
		if importPath, err = modulePath(filepath.Join("ledger", "go.mod")); err != nil {
			return nil, err
		}
	case dir != ".":
		importPath += "/" + filepath.ToSlash(dir)
	}
	srcs := map[string][]byte{}
	for _, name := range bp.GoFiles {
		path := filepath.Join(dir, name)
		if srcs[path], err = os.ReadFile(path); err != nil {
			return nil, err
		}
	}
	p, err := l.check(importPath, dir, srcs, l)
	if err != nil {
		return nil, err
	}
	l.pkgs[dir] = p
	return p, nil
}

// check parses and type-checks the files of one package, given by path,
// resolving its imports through imp.
func (l *exportLoader) check(importPath, dir string, srcs map[string][]byte, imp types.Importer) (*exportPkg, error) {
	p := &exportPkg{dir: dir, info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}}
	var paths []string
	for path := range srcs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		f, err := parser.ParseFile(l.fset, path, srcs[path], parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: imp}
	var err error
	if p.types, err = conf.Check(importPath, l.fset, p.files, p.info); err != nil {
		return nil, fmt.Errorf("type-check %s: %w", dir, err)
	}
	return p, nil
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// recvInterface returns the interface a method is declared on, nil for a
// concrete method or a function.
func recvInterface(fn *types.Func) *types.Interface {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	iface, _ := recv.Type().Underlying().(*types.Interface)
	return iface
}

func hasMethod(iface *types.Interface, name string) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// qualifiedName names an export as the allow-list does: pkg.Func or
// pkg.Type.Method.
func qualifiedName(fn *types.Func) string {
	name := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		name += t.(*types.Named).Obj().Name() + "."
	}
	return name + fn.Name()
}

// readAllowList returns the allow-list's names: the first field of every
// line that is not blank or a comment, each of which must give a reason.
func readAllowList(t *testing.T, path string) map[string]bool {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Errorf("%s: %q gives no reason", path, line)
		}
		out[fields[0]] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
