package crossbroker

// The exported-surface gate: an exported name is a contract with
// another package. Every exported function and method of the module
// needs a use from a non-test file of another package, and every
// exported field of a *Config, *Spec or *Options struct a write from
// one, or an entry in keptSurface or keptFields saying why it stays. A
// word-grep cannot decide this, since names such as Len or Busy match
// unrelated declarations, so the gate type-checks every non-test file
// of the module (cmd/ and examples/ included) and of the benchmark/
// module and reads what each identifier resolves to.

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
	"sync"
	"testing"
)

// keptSurface lists the exported functions and methods that have no
// use from a non-test file of another package and stay anyway. Each
// reason starts with its kind:
//
//   - "interface:" it satisfies an interface that no named type of the
//     module or the standard library declares, so the gate cannot see it;
//   - "reference:" tests compare the production path against it;
//   - "seam:" the named tests of another package need it and cannot
//     read the same fact through a name that passes;
//   - "roadmap:" an open ROADMAP item decides whether it gains a caller
//     or goes.
var keptSurface = map[string]string{
	"internal/batch.Queue.RunningCount":            "seam: broker's Test2PCAbortAtSite, TestAbortKillsRunningExclusiveJob, TestCrashMidSubmissionNoDoubleAllocation, TestFigure5Scenario1 and core's TestConsoleGiveUpKillAbortsJob check that no LRM job outlives its broker job",
	"internal/broker.Broker.Abort":                 "roadmap: item 8 makes it the console's give-up kill, or it goes",
	"internal/datacat.Catalog.DropReplica":         "seam: broker's TestDataAwareIncrementalTracksCatalogChanges changes the catalog between match passes",
	"internal/experiments.PingPongOne":             "seam: the root package's BenchmarkConsoleThroughput times one Figure 6/7 cell",
	"internal/fairshare.Manager.Usage":             "seam: broker's TestYieldedBatchReclassified and core's TestSystemSubmitJDLBatch read a user's charged usage",
	"internal/gsi.Pool.Verify":                     "seam: cmd/gcshadow's TestLoadGSI and cmd/gsictl's TestFullCredentialWorkflow check a loaded credential against the loaded CA",
	"internal/infosys.Service.Epoch":               "seam: broker's TestIncrementalTopKBoundsCandidates and site's TestPublishTickAllocs and TestStartPublishingIdempotent count registry writes",
	"internal/infosys.Service.Partitioned":         "seam: faultinject's TestInjectorDeterministicTrace checks that the partition window opens and heals",
	"internal/infosys.Service.StaleAfter":          "seam: faultinject's TestCrashKillsQueueAndStopsPublishing reads the records that went stale",
	"internal/infosys.Snapshot.Records":            "seam: broker's oracle tests, core's TestMemberSpecs and TestSpecReachesSiteAndIndex and site's TestStartPublishing read what the index holds",
	"internal/jdl.Expr.EvalBool":                   "reference: the AST interpreter the compiled predicates are held to",
	"internal/jdl.Expr.EvalNumber":                 "reference: the AST interpreter the compiled predicates are held to",
	"internal/metrics.Series.Values":               "seam: experiments' TestGoldenHashes hashes Figure 8's samples",
	"internal/netsim.Loopback":                     "seam: console, core and baseline tests (TestSSHRoundTrip, TestLinkGiveUpAfterMaxRetries, TestSessionMultiSubjobLateAgent, ...) and the root BenchmarkConsoleThroughput run on a zero-latency net",
	"internal/netsim.Net.SetDown":                  "seam: console, core and baseline tests (TestLinkReplayAfterReconnect, TestSessionSurvivesOutageInReliableMode, TestDialFailsWhenNetworkDown, ...) cut and restore the network at chosen points",
	"internal/simclock.Sim.Pending":                "seam: core's TestSystemWithoutFairShare counts the events a built grid schedules",
	"internal/vmslot.Machine.Runnable":             "seam: batch's TestFixedWorkKilledReleasesCPU checks a killed job leaves no run on the CPU",
	"internal/vmslot.Slot.Tickets":                 "seam: glidein's TestBatchShareUsesMostRestrictivePL checks the batch VM gets its share back",
	"internal/workload/gwf.Format":                 "reference: the canonical serialization the fuzz round trips compare",
	"internal/workload/gwf.Parse":                  "reference: the whole-trace parse the streaming reader is compared with",
	"internal/workload/scanio.Reader.Directives":   "seam: swf's and gwf's TestReaderMatchesParse, TestReaderInterleavedDirectives and TestStringFieldsOutliveTheLine read a live reader's header",
	"internal/workload/scanio.TooLongError.Unwrap": "interface: errors.Is reaches it through an unnamed interface{ Unwrap() error }",
	"internal/workload/scanio.Trace.Directive":     "seam: workload's TestGoldenSWF and swf's and gwf's TestParseSample read a parsed header through it",
	"internal/workload/swf.Format":                 "reference: the canonical serialization the fuzz round trips compare",
	"internal/workload/swf.Parse":                  "reference: the whole-trace parse the streaming reader is compared with",
}

// keptFields lists the exported config fields that no other package
// sets and that stay anyway, with reasons of the kinds above or
// "mode:", a parse mode of an input format, which callers choose per
// archive.
var keptFields = map[string]string{
	"internal/workload.TraceReaderOptions.ReorderWindow": "mode: how far ahead of its submit order a record may appear and still be sorted into place",
	"internal/workload.TraceReaderOptions.Strict":        "mode: strict parsing, which also rejects a record out of submit order beyond the reorder window",
}

var (
	surfaceKinds = []string{"interface:", "reference:", "seam:", "roadmap:"}
	fieldKinds   = []string{"interface:", "reference:", "seam:", "roadmap:", "mode:"}
)

// TestExportedSurfaceHasCallers holds every exported function and
// method to a use from a non-test file of another package (cmd/,
// examples/ and the benchmark/ module count as other packages). A
// method also passes when its type implements an interface of another
// package that has a method of its name, or an interface whose method
// passes; an interface method passes when a type of another package
// implements its interface.
func TestExportedSurfaceHasCallers(t *testing.T) {
	m := loadSurface(t)
	var unused []string
	seen := map[string]bool{}
	for _, fn := range exportedFuncs(m.own) {
		name := surfaceName(fn.Pkg(), recvNamed(fn), fn.Name())
		seen[name] = true
		if m.funcPasses(fn) {
			if _, ok := keptSurface[name]; ok {
				t.Errorf("%s is in keptSurface but has a use from another package; drop its entry", name)
			}
			continue
		}
		reason, ok := keptSurface[name]
		if !ok {
			unused = append(unused, name)
			continue
		}
		if !hasKind(reason, surfaceKinds) {
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
		t.Errorf("%d exported functions or methods have no use from a non-test file of another package; delete or unexport each, or keep it in keptSurface with a reason:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
}

// TestConfigFieldsAreSet holds every exported field of an exported
// struct type named *Config, *Spec or *Options to a write (a
// composite-literal key, an assignment or an address taken) from a
// non-test file of another package, or an entry in keptFields. A
// field no other package sets is a constant or an unexported field.
func TestConfigFieldsAreSet(t *testing.T) {
	m := loadSurface(t)
	var unset []string
	seen := map[string]bool{}
	for _, f := range configFields(m.own) {
		name := surfaceName(f.typ.Obj().Pkg(), f.typ, f.field.Name())
		seen[name] = true
		if m.written[f.field] {
			if _, ok := keptFields[name]; ok {
				t.Errorf("%s is in keptFields but another package sets it; drop its entry", name)
			}
			continue
		}
		reason, ok := keptFields[name]
		if !ok {
			unset = append(unset, name)
			continue
		}
		if !hasKind(reason, fieldKinds) {
			t.Errorf("keptFields[%q]: the reason must start with one of %v", name, fieldKinds)
		}
	}
	for name := range keptFields {
		if !seen[name] {
			t.Errorf("keptFields names %s, which is not an exported field of a *Config, *Spec or *Options struct", name)
		}
	}
	if len(unset) > 0 {
		sort.Strings(unset)
		t.Errorf("%d exported config fields are set by no non-test file of another package; make each a constant or unexported, or keep it in keptFields with a reason:\n\t%s",
			len(unset), strings.Join(unset, "\n\t"))
	}
}

// surfaceModule is the type-checked module: its own packages, the
// objects used from a package other than their own, and the struct
// fields another package writes.
type surfaceModule struct {
	own     []*types.Package // packages of this module, not benchmark/
	all     []*types.Package // own and benchmark/
	used    map[types.Object]bool
	written map[*types.Var]bool
	ifaces  []*types.TypeName
}

var (
	surfaceOnce sync.Once
	surfaceMod  *surfaceModule
	surfaceErr  error
)

func loadSurface(t *testing.T) *surfaceModule {
	t.Helper()
	surfaceOnce.Do(func() { surfaceMod, surfaceErr = typeCheckModule() })
	if surfaceErr != nil {
		t.Fatal(surfaceErr)
	}
	return surfaceMod
}

func typeCheckModule() (*surfaceModule, error) {
	l := &surfaceLoader{
		fset:  token.NewFileSet(),
		std:   importer.Default(),
		pkgs:  map[string]*types.Package{},
		pkgOf: map[string]string{},
		info:  &types.Info{Uses: map[*ast.Ident]types.Object{}},
	}
	m := &surfaceModule{used: map[types.Object]bool{}, written: map[*types.Var]bool{}}
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
		m.all = append(m.all, pkg)
		if path != "benchmark" && !strings.HasPrefix(path, "benchmark"+string(filepath.Separator)) {
			m.own = append(m.own, pkg)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// from reports whether id sits in a package other than obj's.
	from := func(id *ast.Ident, obj types.Object) bool {
		return obj.Pkg() != nil && l.pkgOf[l.fset.File(id.Pos()).Name()] != obj.Pkg().Path()
	}
	for id, obj := range l.info.Uses {
		if !from(id, obj) {
			continue
		}
		switch o := obj.(type) {
		case *types.Func:
			m.used[o.Origin()] = true
		case *types.Var:
			m.used[o.Origin()] = true
		default:
			m.used[obj] = true
		}
	}
	write := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			e = sel.Sel
		}
		if id, ok := e.(*ast.Ident); ok {
			if v, ok := l.info.Uses[id].(*types.Var); ok && v.IsField() && from(id, v) {
				m.written[v.Origin()] = true
			}
		}
	}
	for _, f := range l.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				write(n.Key)
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if _, ok := lhs.(*ast.SelectorExpr); ok {
						write(lhs)
					}
				}
			case *ast.IncDecStmt:
				if _, ok := n.X.(*ast.SelectorExpr); ok {
					write(n.X)
				}
			case *ast.UnaryExpr:
				if _, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
					write(n.X)
				}
			}
			return true
		})
	}
	m.ifaces = surfaceInterfaces(m.own)
	return m, nil
}

// funcPasses applies TestExportedSurfaceHasCallers' rule to fn.
func (m *surfaceModule) funcPasses(fn *types.Func) bool {
	if m.used[fn] {
		return true
	}
	named := recvNamed(fn)
	if named == nil {
		return false
	}
	if iface, ok := named.Underlying().(*types.Interface); ok {
		return m.implementedElsewhere(named.Obj().Pkg(), iface)
	}
	for _, tn := range m.ifaces {
		iface := tn.Type().Underlying().(*types.Interface)
		obj, _, _ := types.LookupFieldOrMethod(iface, false, nil, fn.Name())
		m2, ok := obj.(*types.Func)
		if !ok || !(types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
			continue
		}
		if tn.Pkg() != fn.Pkg() || m.used[m2] || m.implementedElsewhere(tn.Pkg(), iface) {
			return true
		}
	}
	return false
}

// implementedElsewhere reports whether a named type of a module
// package other than pkg implements iface.
func (m *surfaceModule) implementedElsewhere(pkg *types.Package, iface *types.Interface) bool {
	for _, p := range m.all {
		if p == pkg {
			continue
		}
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			if types.Implements(tn.Type(), iface) || types.Implements(types.NewPointer(tn.Type()), iface) {
				return true
			}
		}
	}
	return false
}

// surfaceLoader type-checks the module's packages from source and
// takes standard-library packages from their export data.
type surfaceLoader struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	pkgOf map[string]string // file name to import path
	files []*ast.File
	info  *types.Info
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
		name = filepath.Join(dir, name)
		f, err := parser.ParseFile(l.fset, name, nil, 0)
		if err != nil {
			return nil, err
		}
		l.pkgOf[name] = path
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	l.files = append(l.files, files...)
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

// configField is an exported field of an exported *Config, *Spec or
// *Options struct type.
type configField struct {
	typ   *types.Named
	field *types.Var
}

func configFields(pkgs []*types.Package) []configField {
	var out []configField
	for _, pkg := range pkgs {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() ||
				!(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Spec") || strings.HasSuffix(name, "Options")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					out = append(out, configField{tn.Type().(*types.Named), f})
				}
			}
		}
	}
	return out
}

// surfaceInterfaces returns the interfaces a method can be called
// through without a direct reference: error, and every named interface
// of the module and of the standard-library packages it imports.
func surfaceInterfaces(pkgs []*types.Package) []*types.TypeName {
	out := []*types.TypeName{types.Universe.Lookup("error").(*types.TypeName)}
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
					out = append(out, tn)
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

// surfaceName spells a name as "pkg.Name" or "pkg.Type.Name", with pkg
// relative to the module root.
func surfaceName(pkg *types.Package, typ *types.Named, name string) string {
	path := strings.TrimPrefix(strings.TrimPrefix(pkg.Path(), "crossbroker"), "/")
	if path == "" {
		path = "crossbroker"
	}
	if typ != nil {
		return path + "." + typ.Obj().Name() + "." + name
	}
	return path + "." + name
}

func hasKind(reason string, kinds []string) bool {
	for _, k := range kinds {
		if strings.HasPrefix(reason, k) {
			return true
		}
	}
	return false
}
