package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the whole-package, interprocedural layer under the v3 passes
// (detsource, ownfree, atomicmix, hotalloc). The per-file analyzers from v1
// walk one AST at a time; the Program built here additionally indexes every
// function declaration across the loaded packages *and their module-internal
// dependencies*, resolves static call edges between them, and memoizes
// per-function facts (nondeterminism taint, fmt-verb forwarding, allocation
// behaviour, payload-ownership transfer) that the passes propagate through
// calls. DESIGN §11 documents the fact model and its soundness limits.

// hotpathDirective tags a function whose body must stay allocation-free:
//
//	//palint:hotpath
//
// in the function's doc comment. The hotalloc pass audits tagged functions.
const hotpathDirective = "palint:hotpath"

// FuncInfo is one function or method declaration known to the Program.
type FuncInfo struct {
	// Obj is the type-checker's object for the declaration.
	Obj *types.Func
	// Decl carries the body the facts are computed from.
	Decl *ast.FuncDecl
	// Pkg is the declaring package.
	Pkg *Package
	// Hotpath is true when the doc comment carries //palint:hotpath.
	Hotpath bool

	// calls are the statically resolved call edges out of the body, in
	// source order (the order makes fact witnesses deterministic).
	calls []callSite
}

// callSite is one resolved call edge.
type callSite struct {
	call   *ast.CallExpr
	callee *types.Func
}

// callMap returns call-expression → resolved callee for one function,
// memoized on the Program.
func (prog *Program) callMap(info *FuncInfo) map[*ast.CallExpr]*types.Func {
	if m, ok := prog.callMaps[info.Obj]; ok {
		return m
	}
	m := make(map[*ast.CallExpr]*types.Func, len(info.calls))
	for _, cs := range info.calls {
		m[cs.call] = cs.callee
	}
	prog.callMaps[info.Obj] = m
	return m
}

// Program is the whole-program context shared by every interprocedural
// pass of one Run call. Facts are memoized per function, so the four v3
// passes share one call graph and one fact computation.
type Program struct {
	// pkgs is the reporting set (the packages named on the command line).
	pkgs []*Package
	// all additionally holds module-internal dependency packages: their
	// sources are parsed and type-checked by the loader anyway, so facts
	// see through calls into packages outside the reporting set.
	all []*Package
	// inReport marks the packages diagnostics may be attached to.
	inReport map[*Package]bool

	fset  *token.FileSet
	funcs map[*types.Func]*FuncInfo
	// callMaps memoizes callMap per function.
	callMaps map[*types.Func]map[*ast.CallExpr]*types.Func
	// suppress indexes //palint:ignore directives across all packages, so
	// fact computation can honour suppressed-at-callee sanctions.
	suppress map[string]map[int][]suppression

	// Per-function facts, filled lazily by the passes.
	nondet    factMemo[map[taintKind]string]
	fmtParams factMemo[map[int]bool]
	allocs    factMemo[*allocFact]
	frees     factMemo[map[int]bool]
	owned     factMemo[*ownedFact]

	// atomicmix's program-wide gather (which fields are touched by
	// sync/atomic calls, and which selector nodes ARE those calls), done
	// once and shared by every reported package.
	atomicGathered bool
	atomicFields   map[types.Object]bool
	atomicAllowed  map[ast.Node]bool
}

// factMemo memoizes one interprocedural fact per function. A fact is
// computed from the function's body and its callees' facts, so computing
// one recurses along call edges; a call that re-enters a function whose
// fact is still in progress (a call-graph cycle) gets the fact's
// in-progress value instead. The zero value is ready to use.
type factMemo[T any] struct {
	done map[*types.Func]T
	busy map[*types.Func]bool
}

// get returns f's fact, running compute on first use. While compute runs,
// a nested get for f returns inProgress.
func (m *factMemo[T]) get(f *types.Func, inProgress T, compute func() T) T {
	if v, ok := m.done[f]; ok {
		return v
	}
	if m.busy[f] {
		return inProgress
	}
	if m.done == nil {
		m.done = map[*types.Func]T{}
		m.busy = map[*types.Func]bool{}
	}
	m.busy[f] = true
	v := compute()
	delete(m.busy, f)
	m.done[f] = v
	return v
}

// newProgram indexes the packages (and their module-internal dependencies)
// into a call graph. It is cheap relative to type checking: one AST walk per
// function to resolve call edges and directives.
func newProgram(pkgs []*Package) *Program {
	prog := &Program{
		pkgs:     pkgs,
		inReport: map[*Package]bool{},
		funcs:    map[*types.Func]*FuncInfo{},
		callMaps: map[*types.Func]map[*ast.CallExpr]*types.Func{},
	}
	seen := map[string]*Package{}
	for _, p := range pkgs {
		prog.inReport[p] = true
		seen[p.Path] = p
		if prog.fset == nil {
			prog.fset = p.Fset
		}
	}
	for _, p := range pkgs {
		for path, dep := range p.deps {
			if dep != nil && seen[path] == nil && dep.Fset == prog.fset {
				seen[path] = dep
			}
		}
	}
	paths := make([]string, 0, len(seen))
	for path := range seen {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		prog.all = append(prog.all, seen[path])
	}
	prog.suppress = buildSuppressionIndex(prog.all)
	for _, p := range prog.all {
		prog.indexPackage(p)
	}
	return prog
}

// indexPackage registers every function declaration of one package and
// resolves its outgoing call edges.
func (prog *Program) indexPackage(pkg *Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			info := &FuncInfo{Obj: obj, Decl: fd, Pkg: pkg, Hotpath: hasHotpathTag(fd)}
			bindings := funcValueBindings(pkg, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := resolveCallee(pkg, bindings, call); callee != nil {
					info.calls = append(info.calls, callSite{call: call, callee: callee})
				}
				return true
			})
			prog.funcs[obj] = info
		}
	}
}

// hasHotpathTag reports whether the declaration's doc comment carries the
// //palint:hotpath directive.
func hasHotpathTag(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == hotpathDirective || strings.HasPrefix(text, hotpathDirective+" ") {
			return true
		}
	}
	return false
}

// funcValueBindings maps local variables assigned exactly once from a named
// function or method value ("f := time.Now; f()") to that function, so call
// resolution sees through the method-value indirection. A variable assigned
// more than once, or from a non-function expression, resolves to nothing.
func funcValueBindings(pkg *Package, fd *ast.FuncDecl) map[types.Object]*types.Func {
	bindings := map[types.Object]*types.Func{}
	poisoned := map[types.Object]bool{}
	bind := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := pkg.Info.Defs[id]
		if obj == nil {
			obj = pkg.Info.Uses[id]
		}
		if obj == nil {
			return
		}
		if _, dup := bindings[obj]; dup || poisoned[obj] {
			delete(bindings, obj)
			poisoned[obj] = true
			return
		}
		if fn := funcValueOf(pkg, rhs); fn != nil {
			bindings[obj] = fn
		} else {
			poisoned[obj] = true
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Lhs) != len(asg.Rhs) {
			return true
		}
		for i := range asg.Lhs {
			bind(asg.Lhs[i], asg.Rhs[i])
		}
		return true
	})
	return bindings
}

// funcValueOf resolves an expression to the named function it denotes
// ("time.Now", "c.Recv" as a method value), or nil.
func funcValueOf(pkg *Package, e ast.Expr) *types.Func {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[x].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[x]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		if fn, ok := pkg.Info.Uses[x.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// resolveCallee maps a call expression to the static *types.Func it invokes:
// a plain function, a method (through the selection), a package-qualified
// function, or a local variable bound to a method value. Dynamic calls
// (interface methods, arbitrary func-typed expressions) resolve to nil and
// are invisible to fact propagation — a documented soundness limit.
func resolveCallee(pkg *Package, bindings map[types.Object]*types.Func, call *ast.CallExpr) *types.Func {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := pkg.Info.Uses[fn].(type) {
		case *types.Func:
			return obj
		case *types.Var:
			return bindings[obj]
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fn]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				// Interface method calls have no static body to look at.
				if isInterfaceRecv(f) {
					return nil
				}
				return f
			}
			return nil
		}
		if f, ok := pkg.Info.Uses[fn.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// isInterfaceRecv reports whether f is declared on an interface type.
func isInterfaceRecv(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, ok = sig.Recv().Type().Underlying().(*types.Interface)
	return ok
}

// funcOf returns the FuncInfo for a callee, or nil when its body is outside
// the loaded program (standard library, dynamic call).
func (prog *Program) funcOf(f *types.Func) *FuncInfo {
	if f == nil {
		return nil
	}
	return prog.funcs[f]
}

// sanctioned reports whether the line holding pos carries a //palint:ignore
// directive for the named analyzer. Fact computation uses it so that a
// suppression at the callee sanctions the behaviour for every caller: the
// author of the suppressed line vouched for it, and re-flagging each caller
// would make the escape hatch useless.
func (prog *Program) sanctioned(analyzer string, pos token.Pos) bool {
	position := prog.fset.Position(pos)
	byLine := prog.suppress[position.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{position.Line, position.Line - 1} {
		for _, s := range byLine[line] {
			if s.matches(analyzer) {
				return true
			}
		}
	}
	return false
}

// stdFuncKey renders a standard-library function as "path.Name"
// ("time.Now", "os.Getenv") for table lookups.
func stdFuncKey(f *types.Func) string {
	if f.Pkg() == nil {
		return f.Name()
	}
	return f.Pkg().Path() + "." + f.Name()
}

// shortFuncName renders a function compactly for witness chains:
// "mpi.(*Ctx).Recv", "obs.Fingerprint", "helper".
func shortFuncName(f *types.Func) string {
	name := f.Name()
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := sig.Recv().Type()
		ptr := ""
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
			ptr = "*"
		}
		if named, ok := recv.(*types.Named); ok {
			name = "(" + ptr + named.Obj().Name() + ")." + name
		}
	}
	if f.Pkg() != nil {
		path := f.Pkg().Path()
		if i := strings.LastIndex(path, "/"); i >= 0 {
			path = path[i+1:]
		}
		return path + "." + name
	}
	return name
}

// eachReportedFunc runs fn over every declared function of the pass's
// package, in file and source order — the iteration every v3 pass starts
// from.
func eachReportedFunc(pass *Pass, fn func(info *FuncInfo)) {
	prog := pass.Prog
	if prog == nil {
		return
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if info := prog.funcs[obj]; info != nil {
				fn(info)
			}
		}
	}
}
