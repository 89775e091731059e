package crossbroker

// The exported-surface gate: every exported function and method of the
// module must have a caller outside test files, or an entry in
// keptSurface saying why it stays. A word-grep cannot decide this,
// since names such as Len, Name or Busy match unrelated declarations,
// so the gate type-checks every non-test file of the module (cmd/ and
// examples/ included) and of the benchmark/ module and reads what each
// identifier resolves to.

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptSurface lists the exported names that have no non-test use and
// stay anyway. Each reason starts with its kind:
//
//   - "interface:" it satisfies an interface that no named type of the
//     module or the standard library declares, so the gate cannot see it;
//   - "reference:" tests compare the production path against it;
//   - "seam:" another package's tests need it to reach inside;
//   - "roadmap:" an open ROADMAP item decides whether it gains a caller
//     or goes.
var keptSurface = map[string]string{
	"internal/batch.Queue.RunningCount":            "seam: broker and core tests check that no LRM job outlives its broker job",
	"internal/broker.Broker.Abort":                 "roadmap: item 5 makes it the console's give-up kill, or it goes",
	"internal/datacat.Catalog.DropReplica":         "seam: broker's data-aware test changes the catalog between match passes",
	"internal/experiments.PingPongOne":             "seam: the root package's Figure 6/7 benchmarks time one cell",
	"internal/infosys.Service.Epoch":               "seam: broker and site tests count registry writes",
	"internal/infosys.Service.StaleAfter":          "seam: faultinject's partition test reads the records that went stale",
	"internal/infosys.Snapshot.Records":            "seam: broker, site and core tests read what the index holds",
	"internal/jdl.Expr.EvalBool":                   "reference: the AST interpreter the compiled predicates are held to",
	"internal/jdl.Expr.EvalNumber":                 "reference: the AST interpreter the compiled predicates are held to",
	"internal/metrics.Series.Values":               "seam: experiments' golden-hash test hashes Figure 8's samples",
	"internal/netsim.Loopback":                     "seam: console, core and baseline tests and the root benchmarks run on a zero-latency net",
	"internal/vmslot.Machine.Runnable":             "seam: batch's kill test checks a killed job leaves no run on the CPU",
	"internal/vmslot.Slot.Tickets":                 "seam: glidein's degree test checks the batch VM gets its share back",
	"internal/workload/gwf.Format":                 "reference: the canonical serialization the fuzz round trips compare",
	"internal/workload/gwf.Parse":                  "reference: the whole-trace parse the streaming reader is compared with",
	"internal/workload/scanio.TooLongError.Unwrap": "interface: errors.Is reaches it through an unnamed interface{ Unwrap() error }",
	"internal/workload/scanio.Trace.Directive":     "seam: swf, gwf and workload tests read a parsed header through it",
	"internal/workload/swf.Format":                 "reference: the canonical serialization the fuzz round trips compare",
	"internal/workload/swf.Parse":                  "reference: the whole-trace parse the streaming reader is compared with",
}

var surfaceKinds = []string{"interface:", "reference:", "seam:", "roadmap:"}

func TestExportedSurfaceHasCallers(t *testing.T) {
	l := &surfaceLoader{
		fset: token.NewFileSet(),
		std:  importer.Default(),
		pkgs: map[string]*types.Package{},
		info: &types.Info{Uses: map[*ast.Ident]types.Object{}},
	}
	var own []*types.Package // packages of this module, not benchmark/
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if bp, err := build.ImportDir(path, 0); err != nil || len(bp.GoFiles) == 0 {
			return nil
		}
		pkg, err := l.Import(surfaceImportPath(path))
		if err != nil {
			return err
		}
		if path != "benchmark" && !strings.HasPrefix(path, "benchmark"+string(filepath.Separator)) {
			own = append(own, pkg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	used := map[*types.Func]bool{}
	for _, obj := range l.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}
	ifaces := surfaceInterfaces(own)

	var unused []string
	seen := map[string]bool{}
	for _, fn := range exportedFuncs(own) {
		name := surfaceName(fn)
		seen[name] = true
		if used[fn] || satisfiesInterface(fn, ifaces) {
			if _, ok := keptSurface[name]; ok {
				t.Errorf("%s is in keptSurface but has a non-test use; drop its entry", name)
			}
			continue
		}
		reason, ok := keptSurface[name]
		if !ok {
			unused = append(unused, name)
			continue
		}
		if !hasSurfaceKind(reason) {
			t.Errorf("keptSurface[%q]: the reason must start with one of %v", name, surfaceKinds)
		}
	}
	for name := range keptSurface {
		if !seen[name] {
			t.Errorf("keptSurface names %s, which is not an exported function or method of the module", name)
		}
	}
	if len(unused) > 0 {
		sort.Strings(unused)
		t.Errorf("%d exported functions or methods have no caller outside tests; delete or unexport each, or keep it in keptSurface with a reason:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
}

// surfaceLoader type-checks the module's packages from source and
// takes standard-library packages from their export data.
type surfaceLoader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*types.Package
	info *types.Info
}

func (l *surfaceLoader) Import(path string) (*types.Package, error) {
	if path != "crossbroker" && !strings.HasPrefix(path, "crossbroker/") {
		return l.std.Import(path)
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, "crossbroker"), "/"))
	if dir == "" {
		dir = "."
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

func surfaceImportPath(dir string) string {
	if dir == "." {
		return "crossbroker"
	}
	return "crossbroker/" + filepath.ToSlash(dir)
}

// exportedFuncs returns every exported function, method and interface
// method that pkgs declare.
func exportedFuncs(pkgs []*types.Package) []*types.Func {
	var out []*types.Func
	for _, pkg := range pkgs {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					out = append(out, obj)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						out = append(out, m)
					}
				}
				if iface, ok := named.Underlying().(*types.Interface); ok {
					for i := 0; i < iface.NumExplicitMethods(); i++ {
						if m := iface.ExplicitMethod(i); m.Exported() {
							out = append(out, m)
						}
					}
				}
			}
		}
	}
	return out
}

// surfaceInterfaces returns the interfaces a method can be called
// through without a direct reference: error, and every named interface
// of the module and of the standard-library packages it imports.
func surfaceInterfaces(pkgs []*types.Package) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
					out = append(out, iface)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range pkgs {
		walk(pkg)
	}
	return out
}

// recvNamed returns the named type fn is a method of (an interface
// for an interface's own method), or nil for a function.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// satisfiesInterface reports whether fn is a concrete method whose
// receiver implements an interface that has a method of fn's name.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	named := recvNamed(fn)
	if named == nil || types.IsInterface(named) {
		return false
	}
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == fn.Name() &&
				(types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
				return true
			}
		}
	}
	return false
}

// surfaceName spells fn as "pkg.Func" or "pkg.Type.Method", with pkg
// relative to the module root.
func surfaceName(fn *types.Func) string {
	pkg := strings.TrimPrefix(strings.TrimPrefix(fn.Pkg().Path(), "crossbroker"), "/")
	if pkg == "" {
		pkg = "crossbroker"
	}
	if named := recvNamed(fn); named != nil {
		return pkg + "." + named.Obj().Name() + "." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

func hasSurfaceKind(reason string) bool {
	for _, k := range surfaceKinds {
		if strings.HasPrefix(reason, k) {
			return true
		}
	}
	return false
}
