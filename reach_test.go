package pasp

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"testing"

	"pasp/internal/analysis"
)

// keptUnreached lists the package-level declarations that no program
// reaches but that stay, each with the reason. Every other function, method
// or type in a non-test file must be reachable from a main, an init or an
// interface-satisfying method of a reached type. An entry that a program
// does reach fails the test too, so the list cannot go stale.
var keptUnreached = map[string]string{
	"pasp/internal/core.Amdahl":            eq3Twin,
	"pasp/internal/core.Enhancement":       eq3Twin,
	"pasp/internal/core.GeneralizedAmdahl": eq3Twin,
	"pasp/internal/core.Terms":             eq13Twin,
	"pasp/internal/core.Terms.Time":        eq13Twin,
	"pasp/internal/core.Terms.Speedup":     eq13Twin,
	"pasp/internal/core.FTTerms":           eq13Twin,
	"pasp/internal/core.EPSpeedup":         "Eq. 12, held against Figure 1 and ScaledEP by TestEq12TwinEP",
	"pasp/internal/core.KarpFlatt":         "Karp–Flatt, held against SP's Eq. 17 overhead by TestKarpFlattTwinEq17",

	"pasp/internal/experiments.Suite.ScaledEP": "the scaled twin of Eq. 12; grid_loops.golden pins it",
	"pasp/internal/mpi.Ctx.Barrier":            "the runtime's barrier primitive, which no NPB kernel calls; TestReplayEveryOpKind and FuzzReplay hold its direct runs to replay",
	"pasp/internal/mpi.Recording.CommLog":      "the protocol projection of a tape that comm_log.golden pins through TestCommLogMatrix, TestRecordingCommLog and TestSPPhaseSequenceUniform",
	"pasp/internal/simnet.Config.PointToPoint": "the network's closed form, which TestPingPongMatchesModel holds the simulated ping-pong against",
	"pasp/internal/trace.Log.Validate":         "the trace tests' ordering check",
	"pasp/internal/obs.EventLog.SetClock":      "the seam tests use to substitute a clock",
	"pasp/internal/papi.Counters.Get":          "how tests read counters",
	"pasp/internal/units.GHz":                  unitsVocabulary,
	"pasp/internal/units.Hertz.Per":            unitsVocabulary,
	"pasp/internal/units.Cycles.Times":         unitsVocabulary,
	"pasp/internal/units.Cycles.Div":           unitsVocabulary,
}

const (
	eq3Twin         = "Eqs. 2–3, held against Table 1 by TestEq3TwinTable1"
	eq13Twin        = "Eqs. 11 and 13, held against Table 3 by TestEq13TwinTable3"
	unitsVocabulary = "internal/units is the vocabulary palint's unitcheck fixture type-checks against"
)

// TestEveryDeclarationReached walks the call and reference graph of every
// non-test file in the module (cmd, examples and perfbench included; testdata
// skipped) from its program roots, and fails on a declaration only tests
// reach. Struct fields are out of scope: JSON encoding reads them.
func TestEveryDeclarationReached(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole tree; skipped under -short")
	}
	pkgs, err := analysis.Load(".", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		for _, e := range p.TypeErrors {
			t.Fatalf("%s: %v", p.Path, e)
		}
	}
	g := newReachGraph(pkgs)

	for _, r := range g.roots {
		g.walk(r.node, r.info)
	}
	g.drain()
	byName := map[string]types.Object{}
	for obj := range g.decls {
		byName[declName(obj)] = obj
	}
	for name := range keptUnreached {
		obj, ok := byName[name]
		switch {
		case !ok:
			t.Errorf("keep-list entry %s names no declaration", name)
		case g.reached[obj]:
			t.Errorf("keep-list entry %s is reached by a program; drop it from the list", name)
		default:
			g.mark(obj)
		}
	}
	g.drain()

	var stale []string
	for obj := range g.decls {
		switch obj.(type) {
		case *types.Func, *types.TypeName:
			if !g.reached[obj] {
				pos := g.fset.Position(obj.Pos())
				stale = append(stale, declName(obj)+" ("+pos.String()+")")
			}
		}
	}
	sort.Strings(stale)
	for _, s := range stale {
		t.Errorf("%s: no program reaches it; delete it, or keep it with a reason in keptUnreached", s)
	}
}

// reachGraph is the module's package-level declarations with the AST each
// one's reach flows through.
type reachGraph struct {
	fset    *token.FileSet
	decls   map[types.Object]ast.Node
	info    map[types.Object]*types.Info
	roots   []reachRoot
	ifaces  map[*types.Interface]bool
	reached map[types.Object]bool
	queue   []types.Object
}

// reachRoot is code that runs without being referenced: a main, an init or
// a blank package-level variable's initializer.
type reachRoot struct {
	node ast.Node
	info *types.Info
}

func newReachGraph(pkgs []*analysis.Package) *reachGraph {
	g := &reachGraph{
		decls:   map[types.Object]ast.Node{},
		info:    map[types.Object]*types.Info{},
		ifaces:  map[*types.Interface]bool{},
		reached: map[types.Object]bool{},
	}
	seen := map[*types.Package]bool{}
	for _, p := range pkgs {
		g.fset = p.Fset // one Load shares one FileSet
		g.collectIfaces(p.Types, seen)
		for _, tv := range p.Info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				g.ifaces[it] = true
			}
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				g.addDecl(p, d)
			}
		}
	}
	g.ifaces[types.Universe.Lookup("error").Type().Underlying().(*types.Interface)] = true
	return g
}

// collectIfaces gathers every named interface declared in pkg and in the
// packages it imports, standard library included.
func (g *reachGraph) collectIfaces(pkg *types.Package, seen map[*types.Package]bool) {
	if pkg == nil || seen[pkg] {
		return
	}
	seen[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			g.ifaces[it] = true
		}
	}
	for _, imp := range pkg.Imports() {
		g.collectIfaces(imp, seen)
	}
}

func (g *reachGraph) addDecl(p *analysis.Package, d ast.Decl) {
	switch d := d.(type) {
	case *ast.FuncDecl:
		obj := p.Info.Defs[d.Name]
		if d.Recv == nil && (d.Name.Name == "init" ||
			d.Name.Name == "main" && p.Types.Name() == "main") {
			g.roots = append(g.roots, reachRoot{d, p.Info})
			return
		}
		g.decls[obj] = d
		g.info[obj] = p.Info
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				obj := p.Info.Defs[s.Name]
				g.decls[obj] = s
				g.info[obj] = p.Info
			case *ast.ValueSpec:
				for _, name := range s.Names {
					if name.Name == "_" {
						g.roots = append(g.roots, reachRoot{s, p.Info})
						continue
					}
					obj := p.Info.Defs[name]
					g.decls[obj] = s
					g.info[obj] = p.Info
				}
			}
		}
	}
}

// mark records obj as reached and queues its declaration for walking.
func (g *reachGraph) mark(obj types.Object) {
	if fn, ok := obj.(*types.Func); ok {
		obj = fn.Origin()
	}
	if _, ok := g.decls[obj]; !ok || g.reached[obj] {
		return
	}
	g.reached[obj] = true
	g.queue = append(g.queue, obj)
}

// drain walks every queued declaration and everything its references reach.
func (g *reachGraph) drain() {
	for len(g.queue) > 0 {
		obj := g.queue[0]
		g.queue = g.queue[1:]
		g.walk(g.decls[obj], g.info[obj])
		if tn, ok := obj.(*types.TypeName); ok {
			g.markIfaceMethods(tn)
		}
	}
}

func (g *reachGraph) walk(n ast.Node, info *types.Info) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				g.mark(obj)
			}
		}
		return true
	})
}

// markIfaceMethods reaches the methods through which a reached type
// satisfies an interface: a call through the interface may land on them.
func (g *reachGraph) markIfaceMethods(tn *types.TypeName) {
	if _, isIface := tn.Type().Underlying().(*types.Interface); isIface {
		return
	}
	ptr := types.NewPointer(tn.Type())
	for it := range g.ifaces {
		if !types.Implements(ptr, it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			if obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name()); obj != nil {
				g.mark(obj)
			}
		}
	}
}

// declName names a package-level object as the keep-list does:
// "pasp/internal/core.Terms" or, for a method, "pasp/internal/core.Terms.Time".
func declName(obj types.Object) string {
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			name = rt.(*types.Named).Obj().Name() + "." + name
		}
	}
	return obj.Pkg().Path() + "." + name
}
