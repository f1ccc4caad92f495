// Command deadcode lists every top-level declaration under internal/
// that nothing ships through, one per line, and exits 1 when it lists
// any. Run it from the repository root (`make deadcode`); it reads the
// module there and every module nested below it (bench/), and takes no
// flags.
//
// A declaration in an internal package is live when shipped code
// reaches it, following references through to a fixpoint. Shipped code
// is every non-test declaration of a package outside internal/ (the
// facade, cmd/, examples/, bench/), of a package main, or of
// internal/testutil.
//
// Tests do not keep code live, with one exception: another package's
// test may keep a method of a live type live (a read accessor such as a
// pending-event count that a cross-package test asserts on). A function,
// type, var or const that only tests reach is reported: it is either
// dead or a test's reference implementation, and a reference belongs in
// the test file that uses it, or in internal/testutil when tests of
// several packages share it.
//
// A method is live when it is referenced, or when its receiver type is
// live and satisfies an interface the live code uses: a live named
// interface, an interface type literal in live code (the anonymous
// interfaces of type assertions among them) or any exported interface
// of the standard library packages the code imports.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	hits, err := find(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	for _, h := range hits {
		fmt.Println(h)
	}
	if len(hits) > 0 {
		os.Exit(1)
	}
}

// pkg is one package directory: its non-test and in-package test files
// type-checked together (so test code and the code under test share
// objects), and its external test files as a second package.
type pkg struct {
	path       string // import path
	reportable bool   // under internal/, neither testutil nor a main
	bp         *build.Package

	files, xfiles []*ast.File
	test          map[*ast.File]bool
	types, xtypes *types.Package
	checking      bool
}

// decl is one top-level declaration: a func, method, type, var or const.
type decl struct {
	obj    types.Object
	pkg    *pkg
	pos    token.Position
	test   bool // declared in a _test.go file
	root   bool // live whatever else holds
	refs   []types.Object
	ifaces []*types.Interface // interface type literals inside it
}

type program struct {
	fset      *token.FileSet
	pkgs      map[string]*pkg
	std       types.Importer
	info      *types.Info
	decls     map[types.Object]*decl
	list      []*decl
	stdIfaces []*types.Interface
	methods   map[*types.TypeName]*types.MethodSet // of *T, cached
}

// find type-checks every package below root and returns the dead
// declarations of its internal packages as "file:line: pkg.Name" lines.
func find(root string) ([]string, error) {
	p := &program{
		fset:  token.NewFileSet(),
		pkgs:  map[string]*pkg{},
		decls: map[types.Object]*decl{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
		methods: map[*types.TypeName]*types.MethodSet{},
	}
	p.std = importer.ForCompiler(p.fset, "source", nil)
	if err := p.load(root); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(p.pkgs))
	for path := range p.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if err := p.check(p.pkgs[path]); err != nil {
			return nil, err
		}
	}
	// External tests go last: one may import a package (testutil) that
	// imports the package under test.
	for _, path := range paths {
		if k := p.pkgs[path]; len(k.xfiles) > 0 {
			conf := types.Config{Importer: p}
			var err error
			if k.xtypes, err = conf.Check(k.path+"_test", p.fset, k.xfiles, p.info); err != nil {
				return nil, err
			}
		}
	}
	p.stdIfaces = append(p.stdIfaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{}
	for _, path := range paths {
		k := p.pkgs[path]
		p.collectStdInterfaces(k.types, seen)
		if k.xtypes != nil {
			p.collectStdInterfaces(k.xtypes, seen)
		}
		p.collect(k)
	}
	var out []string
	for _, d := range p.dead() {
		file, _ := filepath.Rel(root, d.pos.Filename)
		out = append(out, fmt.Sprintf("%s:%d: %s.%s", filepath.ToSlash(file), d.pos.Line, d.pkg.bp.Name, name(d.obj)))
	}
	return out, nil
}

// load walks root for module roots (go.mod) and package directories,
// skipping testdata and hidden directories, and parses every package.
func (p *program) load(root string) error {
	mods := map[string]string{} // module directory -> module path
	return filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); dir != root && (n == "testdata" || n == "vendor" ||
			strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
			return filepath.SkipDir
		}
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if mp, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					mods[dir] = strings.Trim(strings.TrimSpace(mp), `"`)
				}
			}
		} else if !os.IsNotExist(err) {
			return err
		}
		modDir := dir
		for mods[modDir] == "" {
			if modDir == root {
				return fmt.Errorf("%s: no go.mod with a module line", root)
			}
			modDir = filepath.Dir(modDir)
		}
		bp, err := build.ImportDir(dir, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		} else if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		rel = filepath.ToSlash(rel)
		modRel, _ := filepath.Rel(modDir, dir)
		k := &pkg{
			path:       path.Join(mods[modDir], filepath.ToSlash(modRel)),
			reportable: strings.HasPrefix(rel, "internal/") && rel != "internal/testutil" && bp.Name != "main",
			bp:         bp,
			test:       map[*ast.File]bool{},
		}
		for _, n := range append(append(bp.GoFiles, bp.TestGoFiles...), bp.XTestGoFiles...) {
			f, err := parser.ParseFile(p.fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			k.test[f] = strings.HasSuffix(n, "_test.go")
			if f.Name.Name == bp.Name {
				k.files = append(k.files, f)
			} else {
				k.xfiles = append(k.xfiles, f)
			}
		}
		p.pkgs[k.path] = k
		return nil
	})
}

// Import resolves the packages found below the root to their checked
// form and everything else (the standard library) from source.
func (p *program) Import(path string) (*types.Package, error) {
	k := p.pkgs[path]
	if k == nil {
		return p.std.Import(path)
	}
	if err := p.check(k); err != nil {
		return nil, err
	}
	return k.types, nil
}

// check type-checks k with its in-package tests, importing
// dependencies first.
func (p *program) check(k *pkg) (err error) {
	if k.types != nil {
		return nil
	}
	if k.checking {
		return fmt.Errorf("%s: import cycle", k.path)
	}
	k.checking = true
	conf := types.Config{Importer: p}
	k.types, err = conf.Check(k.path, p.fset, k.files, p.info)
	return err
}

// collectStdInterfaces gathers every exported interface of the standard
// library packages t imports, directly or not: the library calls
// methods through them (fmt.Stringer, sort.Interface, json.Marshaler)
// without the program naming them.
func (p *program) collectStdInterfaces(t *types.Package, seen map[*types.Package]bool) {
	if seen[t] {
		return
	}
	seen[t] = true
	if p.pkgs[strings.TrimSuffix(t.Path(), "_test")] == nil {
		for _, name := range t.Scope().Names() {
			if tn, ok := t.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
					p.stdIfaces = append(p.stdIfaces, it)
				}
			}
		}
	}
	for _, imp := range t.Imports() {
		p.collectStdInterfaces(imp, seen)
	}
}

// collect records k's top-level declarations with what each references.
func (p *program) collect(k *pkg) {
	for _, f := range append(append([]*ast.File(nil), k.files...), k.xfiles...) {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				p.add(k, k.test[f], d.Name, d, d.Recv == nil && d.Name.Name == "init")
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						p.add(k, k.test[f], s.Name, s, false)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							p.add(k, k.test[f], n, s, false)
						}
					}
				}
			}
		}
	}
}

func (p *program) add(k *pkg, test bool, name *ast.Ident, node ast.Node, init bool) {
	obj := p.info.Defs[name]
	if obj == nil {
		// The blank identifier and init functions declare no object.
		obj = types.NewLabel(name.Pos(), nil, name.Name)
	}
	d := &decl{obj: obj, pkg: k, pos: p.fset.Position(name.Pos()), test: test,
		root: !test && (init || !k.reportable)}
	seen := map[types.Object]bool{}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if u := p.info.Uses[n]; u != nil && !seen[u] {
				seen[u] = true
				d.refs = append(d.refs, origin(u))
			}
		case *ast.InterfaceType:
			if it, ok := p.info.Types[n].Type.(*types.Interface); ok {
				d.ifaces = append(d.ifaces, it)
			}
		}
		return true
	})
	p.decls[obj] = d
	p.list = append(p.list, d)
}

// origin maps a use of an instantiated generic function or method to
// its declaration.
func origin(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}

// dead returns the reportable declarations that the roots do not reach,
// counting as reached a method of a reached type that another package's
// tests reach. Such a method may reach further types, so the two grow
// together to a fixpoint.
func (p *program) dead() []*decl {
	var roots []*decl
	tests := map[*pkg][]*decl{}
	for _, d := range p.list {
		if d.root {
			roots = append(roots, d)
		} else if d.test {
			tests[d.pkg] = append(tests[d.pkg], d)
		}
	}
	var methods []*decl // reached by another package's tests
	for k, seeds := range tests {
		for d := range p.reach(seeds) {
			if d.pkg != k && recv(d.obj) != nil {
				methods = append(methods, d)
			}
		}
	}
	live := p.reach(roots)
	for grew := true; grew; {
		grew = false
		for _, m := range methods {
			if !live[m] && live[p.decls[recv(m.obj)]] {
				roots = append(roots, m)
				grew = true
			}
		}
		if grew {
			live = p.reach(roots)
		}
	}
	var hits []*decl
	for _, d := range p.list {
		if d.pkg.reportable && !d.test && !live[d] {
			hits = append(hits, d)
		}
	}
	return hits
}

// recv returns the receiver type of a method, and nil for anything else.
func recv(obj types.Object) *types.TypeName {
	f, ok := obj.(*types.Func)
	if !ok || f.Type().(*types.Signature).Recv() == nil {
		return nil
	}
	t := f.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named).Origin().Obj()
}

// name renders obj as Name or Type.Method.
func name(obj types.Object) string {
	if tn := recv(obj); tn != nil {
		return tn.Name() + "." + obj.Name()
	}
	return obj.Name()
}

// reach returns every declaration seeds reach. A method is reached
// through a reference, or when its receiver type is reached and
// satisfies a reached interface (or one of the standard library's)
// that declares it; the two feed each other, so it runs to a fixpoint.
func (p *program) reach(seeds []*decl) map[*decl]bool {
	live := map[*decl]bool{}
	ifaces := map[string][]*types.Interface{} // by method name
	addIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
		}
	}
	for _, it := range p.stdIfaces {
		addIface(it)
	}
	var typeNames []*types.TypeName
	var queue []*decl
	mark := func(d *decl) {
		if d != nil && !live[d] {
			live[d] = true
			queue = append(queue, d)
		}
	}
	for _, d := range seeds {
		mark(d)
	}
	for len(queue) > 0 {
		for len(queue) > 0 {
			d := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, r := range d.refs {
				mark(p.decls[r])
			}
			for _, it := range d.ifaces {
				addIface(it)
			}
			if tn, ok := d.obj.(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					addIface(it)
				} else {
					typeNames = append(typeNames, tn)
				}
			}
		}
		for _, tn := range typeNames {
			ms := p.methods[tn]
			if ms == nil {
				ms = types.NewMethodSet(types.NewPointer(tn.Type()))
				p.methods[tn] = ms
			}
			for i := 0; i < ms.Len(); i++ {
				m := p.decls[origin(ms.At(i).Obj())]
				if m == nil || live[m] {
					continue
				}
				for _, it := range ifaces[m.obj.Name()] {
					if satisfies(tn, it) {
						mark(m)
						break
					}
				}
			}
		}
	}
	return live
}

// satisfies reports whether T or *T implements it. The implements
// relation is undefined for an uninstantiated generic type, whose
// methods match an interface by name alone.
func satisfies(tn *types.TypeName, it *types.Interface) bool {
	t := tn.Type()
	if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
		return true
	}
	return types.Implements(t, it) || types.Implements(types.NewPointer(t), it)
}
