package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"pasp/internal/commspec"
)

// This file is the shared substrate of the commcheck passes (commshape,
// phasebal, deadlock) and the skeleton extractor. It classifies call sites
// against the mpi runtime's API shape, tracks which values derive from the
// executing rank's identity (rank taint), renders partner/tag/guard
// expressions into the commspec algebra over {rank, N}, and builds one
// memoized guarded operation tree per function that all four consumers
// walk. DESIGN §12 documents the model and its soundness limits.
//
// The runtime is recognized structurally — a package named "mpi" whose Ctx
// methods carry the MPI-shaped names — so the seeded testdata can exercise
// the passes against a tiny stub without loading the real simulator.

// commKind classifies one mpi operation.
type commKind int

const (
	commNone commKind = iota
	commSend
	commRecv
	commSendRecv
	commColl
	commPhase
	commCompute
)

// commCollectives are the synchronizing collectives of the runtime.
var commCollectives = map[string]bool{
	"Barrier":   true,
	"Allreduce": true,
	"Alltoall":  true,
	"Allgather": true,
}

// isMPIRuntimePkg reports whether the package IS an mpi runtime: the passes
// verify the runtime's clients, never the protocol implementation itself
// (SendRecv legitimately calls Recv on another rank's behalf there).
func isMPIRuntimePkg(pkg *Package) bool {
	return pkg.Types != nil && pkg.Types.Name() == "mpi"
}

// classifyComm maps a resolved callee to the communication operation it
// performs: a method of an mpi-package Ctx with an MPI-shaped name.
func classifyComm(callee *types.Func) (commKind, string) {
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Name() != "mpi" {
		return commNone, ""
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return commNone, ""
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || named.Obj().Name() != "Ctx" {
		return commNone, ""
	}
	name := callee.Name()
	switch {
	case name == "Send":
		return commSend, name
	case name == "Recv":
		return commRecv, name
	case name == "SendRecv":
		return commSendRecv, name
	case name == "SetPhase":
		return commPhase, name
	case name == "Compute":
		return commCompute, name
	case commCollectives[name]:
		return commColl, name
	}
	return commNone, ""
}

// isCtxRankCall / isCtxSizeCall classify the two identity accessors.
func ctxAccessor(callee *types.Func) string {
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Name() != "mpi" {
		return ""
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	if callee.Name() == "Rank" || callee.Name() == "Size" {
		return callee.Name()
	}
	return ""
}

// isMPIRunCall reports whether the callee is the runtime's job launcher
// (package-level mpi.Run).
func isMPIRunCall(callee *types.Func) bool {
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Name() != "mpi" {
		return false
	}
	sig, ok := callee.Type().(*types.Signature)
	return ok && sig.Recv() == nil && callee.Name() == "Run"
}

// ---------------------------------------------------------------------------
// Rank taint: which values derive from the executing rank's identity.
//
// Roots are Ctx.Rank() results. Taint flows through arithmetic, local
// assignment, struct fields assigned rank-derived values anywhere in the
// program, and module-internal calls (through arguments, and through
// callees whose returns are rank-derived). Collective results are uniform
// by construction and immune; so are Ctx.Size() and received payloads —
// the analysis tracks identity divergence, not data divergence.
// ---------------------------------------------------------------------------

// ensureRankFields gathers, program-wide, the struct fields assigned
// rank-derived values ("g.ix = c.Rank() % px"). Two rounds reach the
// field-through-field chains the kernels use.
func (prog *Program) ensureRankFields() {
	if prog.rankFieldsGathered {
		return
	}
	prog.rankFieldsGathered = true
	prog.rankFields = map[types.Object]bool{}
	for round := 0; round < 2; round++ {
		changed := false
		for _, pkg := range prog.all {
			if isMPIRuntimePkg(pkg) {
				continue
			}
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
					info := prog.funcs[obj]
					if info == nil {
						continue
					}
					taint := prog.computeLocalTaint(info)
					if prog.gatherFieldWrites(info, taint) {
						changed = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}
}

// gatherFieldWrites records rank-tainted field assignments and composite
// literals of one function; it reports whether any new field was found.
func (prog *Program) gatherFieldWrites(info *FuncInfo, taint map[types.Object]bool) bool {
	pkg := info.Pkg
	changed := false
	mark := func(obj types.Object) {
		if obj != nil && !prog.rankFields[obj] {
			prog.rankFields[obj] = true
			changed = true
		}
	}
	ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				// Multi-value: taint every field target if the call is tainted.
				tainted := false
				for _, r := range x.Rhs {
					if prog.exprRankTainted(info, taint, r) {
						tainted = true
					}
				}
				if tainted {
					for _, l := range x.Lhs {
						if sel, ok := l.(*ast.SelectorExpr); ok {
							mark(fieldObj(pkg, sel))
						}
					}
				}
				return true
			}
			for i, l := range x.Lhs {
				sel, ok := l.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if prog.exprRankTainted(info, taint, x.Rhs[i]) {
					mark(fieldObj(pkg, sel))
				}
			}
		case *ast.CompositeLit:
			st, ok := pkg.TypeOfExpr(x).Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, elt := range x.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					key, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					if prog.exprRankTainted(info, taint, kv.Value) {
						mark(pkg.Info.Uses[key])
					}
					continue
				}
				if i < st.NumFields() && prog.exprRankTainted(info, taint, elt) {
					mark(st.Field(i))
				}
			}
		}
		return true
	})
	return changed
}

// fieldObj resolves a selector to the struct field it denotes, or nil.
func fieldObj(pkg *Package, sel *ast.SelectorExpr) types.Object {
	if s, ok := pkg.Info.Selections[sel]; ok {
		if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
			return v
		}
		return nil
	}
	return nil
}

// TypeOfExpr mirrors Pass.TypeOf for contexts without a Pass.
func (p *Package) TypeOfExpr(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok && tv.Type != nil {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return types.Typ[types.Invalid]
}

// localTaint returns the function's rank-tainted local objects, memoized.
func (prog *Program) localTaint(info *FuncInfo) map[types.Object]bool {
	prog.ensureRankFields()
	if t, ok := prog.commTaints[info.Obj]; ok {
		return t
	}
	t := prog.computeLocalTaint(info)
	prog.commTaints[info.Obj] = t
	return t
}

// computeLocalTaint walks assignments to a fixpoint (two rounds cover the
// kernels' forward-flow) marking locals assigned rank-derived values.
func (prog *Program) computeLocalTaint(info *FuncInfo) map[types.Object]bool {
	pkg := info.Pkg
	taint := map[types.Object]bool{}
	bind := func(l ast.Expr, tainted bool) bool {
		if !tainted {
			return false
		}
		id, ok := l.(*ast.Ident)
		if !ok || id.Name == "_" {
			return false
		}
		obj := pkg.Info.Defs[id]
		if obj == nil {
			obj = pkg.Info.Uses[id]
		}
		if obj == nil || taint[obj] {
			return false
		}
		taint[obj] = true
		return true
	}
	for round := 0; round < 2; round++ {
		changed := false
		ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				if len(x.Lhs) == len(x.Rhs) {
					for i := range x.Lhs {
						if bind(x.Lhs[i], prog.exprRankTainted(info, taint, x.Rhs[i])) {
							changed = true
						}
					}
					return true
				}
				tainted := false
				for _, r := range x.Rhs {
					if prog.exprRankTainted(info, taint, r) {
						tainted = true
					}
				}
				for _, l := range x.Lhs {
					if bind(l, tainted) {
						changed = true
					}
				}
			case *ast.GenDecl:
				for _, spec := range x.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					tainted := false
					for _, v := range vs.Values {
						if prog.exprRankTainted(info, taint, v) {
							tainted = true
						}
					}
					for _, name := range vs.Names {
						if bind(name, tainted) {
							changed = true
						}
					}
				}
			case *ast.RangeStmt:
				if prog.exprRankTainted(info, taint, x.X) {
					// The key is a uniform index (container lengths are
					// assumed rank-uniform); the values are the
					// rank-derived data.
					if x.Value != nil && bind(x.Value, true) {
						changed = true
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	return taint
}

// exprRankTainted reports whether the expression's value derives from the
// executing rank's identity.
func (prog *Program) exprRankTainted(info *FuncInfo, taint map[types.Object]bool, e ast.Expr) bool {
	if e == nil {
		return false
	}
	pkg := info.Pkg
	calls := prog.callMap(info)
	var walk func(e ast.Expr) bool
	walk = func(e ast.Expr) bool {
		switch x := e.(type) {
		case nil:
			return false
		case *ast.Ident:
			obj := pkg.Info.Uses[x]
			if obj == nil {
				obj = pkg.Info.Defs[x]
			}
			return obj != nil && (taint[obj] || prog.rankFields[obj])
		case *ast.SelectorExpr:
			if obj := fieldObj(pkg, x); obj != nil && prog.rankFields[obj] {
				return true
			}
			return walk(x.X)
		case *ast.CallExpr:
			callee := calls[x]
			switch ctxAccessor(callee) {
			case "Rank":
				return true
			case "Size":
				return false // N is rank-uniform
			}
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin && (id.Name == "len" || id.Name == "cap") {
					// Container lengths are assumed rank-uniform: the
					// kernels size their containers from N, not from the
					// rank. A rank-sized container is a documented miss.
					return false
				}
			}
			if kind, _ := classifyComm(callee); kind == commColl || kind == commRecv || kind == commSendRecv {
				// Collective results are uniform; received payloads carry
				// data divergence, not identity divergence — out of scope.
				return false
			}
			if callee != nil && prog.funcOf(callee) != nil && prog.rankReturns(callee) {
				return true
			}
			// Taint flows through arguments of ordinary calls
			// (blockRange(n, size, rank) → rank-derived bounds).
			for _, a := range x.Args {
				if walk(a) {
					return true
				}
			}
			return false
		case *ast.ParenExpr:
			return walk(x.X)
		case *ast.UnaryExpr:
			return walk(x.X)
		case *ast.StarExpr:
			return walk(x.X)
		case *ast.BinaryExpr:
			return walk(x.X) || walk(x.Y)
		case *ast.IndexExpr:
			return walk(x.X) || walk(x.Index)
		case *ast.SliceExpr:
			return walk(x.X) || walk(x.Low) || walk(x.High) || walk(x.Max)
		case *ast.TypeAssertExpr:
			return walk(x.X)
		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if walk(kv.Value) {
						return true
					}
					continue
				}
				if walk(elt) {
					return true
				}
			}
			return false
		case *ast.KeyValueExpr:
			return walk(x.Value)
		case *ast.FuncLit:
			return false
		}
		return false
	}
	return walk(e)
}

// rankReturns reports (memoized, cycle-safe) whether a function's return
// values derive from its rank identity — "g.west()" returning a neighbour
// rank makes every caller's guard rank-derived.
func (prog *Program) rankReturns(fn *types.Func) bool {
	return prog.commRankRet.get(fn, false, func() bool {
		info := prog.funcOf(fn)
		if info == nil || isMPIRuntimePkg(info.Pkg) {
			return false
		}
		taint := prog.localTaint(info)
		tainted := false
		namedResults := map[types.Object]bool{}
		if info.Decl.Type.Results != nil {
			for _, f := range info.Decl.Type.Results.List {
				for _, name := range f.Names {
					if obj := info.Pkg.Info.Defs[name]; obj != nil {
						namedResults[obj] = true
					}
				}
			}
		}
		ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
			if tainted {
				return false
			}
			if _, ok := n.(*ast.FuncLit); ok {
				return false // closure returns are not the function's returns
			}
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			if len(ret.Results) == 0 {
				for obj := range namedResults {
					if taint[obj] {
						tainted = true
					}
				}
				return true
			}
			for _, r := range ret.Results {
				if prog.exprRankTainted(info, taint, r) {
					tainted = true
				}
			}
			return true
		})
		return tainted
	})
}

// ---------------------------------------------------------------------------
// Symbolic rendering into the commspec algebra.
// ---------------------------------------------------------------------------

// renderEnv renders expressions of one function into commspec strings over
// {rank, N}: integer constants, Rank()/Size() calls, and single-assignment
// locals whose initializer renders ("up, down := rank+1, rank-1").
type renderEnv struct {
	prog *Program
	info *FuncInfo
	rhs  map[types.Object]ast.Expr
	bad  map[types.Object]bool // assigned more than once, or unrenderable shape
	memo map[types.Object]string
	busy map[types.Object]bool
}

// renderer builds (memoized) the function's render environment.
func (prog *Program) renderer(info *FuncInfo) *renderEnv {
	if env, ok := prog.commRenders[info.Obj]; ok {
		return env
	}
	env := &renderEnv{
		prog: prog,
		info: info,
		rhs:  map[types.Object]ast.Expr{},
		bad:  map[types.Object]bool{},
		memo: map[types.Object]string{},
		busy: map[types.Object]bool{},
	}
	pkg := info.Pkg
	record := func(l ast.Expr, r ast.Expr) {
		id, ok := l.(*ast.Ident)
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
		if _, seen := env.rhs[obj]; seen || env.bad[obj] {
			delete(env.rhs, obj)
			env.bad[obj] = true
			return
		}
		if r == nil {
			env.bad[obj] = true
			return
		}
		env.rhs[obj] = r
	}
	ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					record(x.Lhs[i], x.Rhs[i])
				}
			} else {
				for _, l := range x.Lhs {
					record(l, nil)
				}
			}
		case *ast.IncDecStmt:
			record(x.X, nil)
		case *ast.GenDecl:
			for _, spec := range x.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						record(name, vs.Values[i])
					} else {
						record(name, nil)
					}
				}
			}
		case *ast.RangeStmt:
			if x.Key != nil {
				record(x.Key, nil)
			}
			if x.Value != nil {
				record(x.Value, nil)
			}
		}
		return true
	})
	prog.commRenders[info.Obj] = env
	return env
}

// renderTokens maps the operators the algebra admits.
var renderTokens = map[token.Token]string{
	token.ADD: "+", token.SUB: "-", token.MUL: "*", token.QUO: "/", token.REM: "%",
	token.AND: "&", token.OR: "|", token.XOR: "^", token.SHL: "<<", token.SHR: ">>",
	token.EQL: "==", token.NEQ: "!=", token.LSS: "<", token.LEQ: "<=",
	token.GTR: ">", token.GEQ: ">=", token.LAND: "&&", token.LOR: "||",
}

// render maps an expression to its commspec string, or ok=false.
func (env *renderEnv) render(e ast.Expr) (string, bool) {
	pkg := env.info.Pkg
	if tv, ok := pkg.Info.Types[e]; ok && tv.Value != nil {
		switch tv.Value.Kind() {
		case constant.Int:
			return tv.Value.ExactString(), true
		case constant.Bool:
			return tv.Value.ExactString(), true
		}
		return "", false
	}
	switch x := e.(type) {
	case *ast.ParenExpr:
		return env.render(x.X)
	case *ast.Ident:
		obj := pkg.Info.Uses[x]
		if obj == nil {
			obj = pkg.Info.Defs[x]
		}
		if obj == nil || env.bad[obj] {
			return "", false
		}
		if s, ok := env.memo[obj]; ok {
			return s, s != commspec.Unknown
		}
		rhs, ok := env.rhs[obj]
		if !ok || env.busy[obj] {
			return "", false
		}
		env.busy[obj] = true
		s, ok := env.render(rhs)
		delete(env.busy, obj)
		if !ok {
			env.memo[obj] = commspec.Unknown
			return "", false
		}
		env.memo[obj] = s
		return s, true
	case *ast.CallExpr:
		switch ctxAccessor(env.prog.callMap(env.info)[x]) {
		case "Rank":
			return "rank", true
		case "Size":
			return "N", true
		}
		return "", false
	case *ast.SelectorExpr:
		// The runtime's World.N field IS the job size: rendering it lets
		// guards like "if w.N != 2 { return ... }" bound the simulated N.
		if obj := fieldObj(pkg, x); obj != nil && obj.Name() == "N" {
			if owner, ok := pkg.TypeOfExpr(x.X).(*types.Named); ok &&
				owner.Obj().Name() == "World" && owner.Obj().Pkg() != nil &&
				owner.Obj().Pkg().Name() == "mpi" {
				return "N", true
			}
		}
		return "", false
	case *ast.BinaryExpr:
		op, ok := renderTokens[x.Op]
		if !ok {
			return "", false
		}
		l, ok := env.render(x.X)
		if !ok {
			return "", false
		}
		r, ok := env.render(x.Y)
		if !ok {
			return "", false
		}
		return "(" + l + op + r + ")", true
	case *ast.UnaryExpr:
		v, ok := env.render(x.X)
		if !ok {
			return "", false
		}
		switch x.Op {
		case token.SUB:
			return "(-" + v + ")", true
		case token.NOT:
			return "(!" + v + ")", true
		case token.ADD:
			return v, true
		}
		return "", false
	}
	return "", false
}

// ---------------------------------------------------------------------------
// Transitive communication facts.
// ---------------------------------------------------------------------------

// commWitness is one collective or phase transition reachable from a
// function, with the call chain that reaches it.
type commWitness struct {
	name string    // mpi method name
	via  string    // "" for direct calls, else "helper → deeper"
	pos  token.Pos // the underlying mpi call, for suppressed-at-callee sanctions
}

// commFact summarizes the communication a function performs transitively.
type commFact struct {
	colls      []commWitness
	phases     []commWitness
	hasP2P     bool
	hasCompute bool
}

func (f *commFact) hasComm() bool {
	return f.hasP2P || len(f.colls) > 0 || len(f.phases) > 0
}

// witnessCap bounds fact fan-out so wide call trees stay cheap.
const witnessCap = 8

// commFactOf computes (memoized, cycle-safe) the function's transitive
// communication fact. Bodies inside the mpi runtime are never entered.
func (prog *Program) commFactOf(fn *types.Func) *commFact {
	return prog.commFacts.get(fn, &commFact{}, func() *commFact {
		info := prog.funcOf(fn)
		if info == nil || isMPIRuntimePkg(info.Pkg) {
			return &commFact{}
		}
		f := &commFact{}
		addColl := func(w commWitness) {
			if len(f.colls) < witnessCap {
				f.colls = append(f.colls, w)
			}
		}
		addPhase := func(w commWitness) {
			if len(f.phases) < witnessCap {
				f.phases = append(f.phases, w)
			}
		}
		for _, cs := range info.calls {
			kind, name := classifyComm(cs.callee)
			switch kind {
			case commColl:
				addColl(commWitness{name: name, pos: cs.call.Pos()})
				continue
			case commPhase:
				addPhase(commWitness{name: name, pos: cs.call.Pos()})
				continue
			case commSend, commRecv, commSendRecv:
				f.hasP2P = true
				continue
			case commCompute:
				f.hasCompute = true
				continue
			}
			callee := prog.funcOf(cs.callee)
			if callee == nil || isMPIRuntimePkg(callee.Pkg) {
				continue
			}
			sub := prog.commFactOf(cs.callee)
			if sub.hasCompute {
				f.hasCompute = true
			}
			if !sub.hasComm() {
				continue
			}
			step := shortFuncName(cs.callee)
			for _, w := range sub.colls {
				addColl(commWitness{name: w.name, via: joinVia(step, w.via), pos: w.pos})
			}
			for _, w := range sub.phases {
				addPhase(commWitness{name: w.name, via: joinVia(step, w.via), pos: w.pos})
			}
			if sub.hasP2P {
				f.hasP2P = true
			}
		}
		return f
	})
}

func joinVia(step, rest string) string {
	if rest == "" {
		return step
	}
	return step + " → " + rest
}

// ---------------------------------------------------------------------------
// Guarded operation trees.
// ---------------------------------------------------------------------------

// opKind discriminates tree nodes.
type opKind int

const (
	opP2P opKind = iota
	opColl
	opPhase
	opCompute
	opBranch
	opLoop
	opReturn
	opCall
	opClosure
)

// opNode is one node of a function's communication tree.
type opNode struct {
	kind opKind
	pos  token.Pos

	// opP2P / opColl / opPhase
	comm     commKind
	opName   string
	partner  string // commspec rank expression, or "?"
	partner2 string // SendRecv source
	tag      string

	// opPhase
	phaseName  string
	phaseConst bool

	// opBranch
	condSrc     string
	condStr     string // commspec boolean, or "?"
	condTainted bool
	then, els   []*opNode

	// opLoop / opClosure
	body        []*opNode
	loopTainted bool

	// opReturn
	errReturn bool

	// opCall
	callee *types.Func
}

// commTree builds (memoized) the function's guarded operation tree.
// FuncLit arguments of mpi.Run are inlined in place — the rank body
// executes exactly there; other function literals become opClosure nodes,
// a def-site approximation the consumers treat conservatively.
func (prog *Program) commTree(info *FuncInfo) []*opNode {
	if t, ok := prog.commTrees[info.Obj]; ok {
		return t
	}
	b := &treeBuilder{
		prog:  prog,
		info:  info,
		calls: prog.callMap(info),
		taint: prog.localTaint(info),
		env:   prog.renderer(info),
	}
	b.pushResults(info.Decl.Type.Results)
	t := b.walkStmts(info.Decl.Body.List)
	prog.commTrees[info.Obj] = t
	return t
}

type treeBuilder struct {
	prog  *Program
	info  *FuncInfo
	calls map[*ast.CallExpr]*types.Func
	taint map[types.Object]bool
	env   *renderEnv

	// errResult tracks, per enclosing function literal, whether the last
	// result is an error — the walker is inside inlined closures at times.
	errResult []bool
}

func (b *treeBuilder) pushResults(results *ast.FieldList) {
	isErr := false
	if results != nil && len(results.List) > 0 {
		last := results.List[len(results.List)-1]
		if t := b.info.Pkg.TypeOfExpr(last.Type); t != nil {
			if named, ok := t.(*types.Named); ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
				isErr = true
			}
		}
	}
	b.errResult = append(b.errResult, isErr)
}

func (b *treeBuilder) popResults() { b.errResult = b.errResult[:len(b.errResult)-1] }

func (b *treeBuilder) walkStmts(stmts []ast.Stmt) []*opNode {
	var out []*opNode
	for _, s := range stmts {
		out = append(out, b.walkStmt(s)...)
	}
	return out
}

func (b *treeBuilder) tainted(e ast.Expr) bool {
	return b.prog.exprRankTainted(b.info, b.taint, e)
}

func (b *treeBuilder) walkStmt(s ast.Stmt) []*opNode {
	switch x := s.(type) {
	case nil:
		return nil
	case *ast.BlockStmt:
		return b.walkStmts(x.List)
	case *ast.ExprStmt:
		return b.scanExpr(x.X)
	case *ast.AssignStmt:
		var out []*opNode
		for _, r := range x.Rhs {
			out = append(out, b.scanExpr(r)...)
		}
		for _, l := range x.Lhs {
			out = append(out, b.scanExpr(l)...)
		}
		return out
	case *ast.DeclStmt:
		var out []*opNode
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						out = append(out, b.scanExpr(v)...)
					}
				}
			}
		}
		return out
	case *ast.IfStmt:
		var out []*opNode
		out = append(out, b.walkStmt(x.Init)...)
		out = append(out, b.scanExpr(x.Cond)...)
		n := &opNode{
			kind:        opBranch,
			pos:         x.Pos(),
			condSrc:     types.ExprString(x.Cond),
			condTainted: b.tainted(x.Cond),
			then:        b.walkStmts(x.Body.List),
			els:         b.walkStmt(x.Else),
		}
		if s, ok := b.env.render(x.Cond); ok {
			n.condStr = s
		} else {
			n.condStr = commspec.Unknown
		}
		return append(out, n)
	case *ast.ForStmt:
		var out []*opNode
		out = append(out, b.walkStmt(x.Init)...)
		if x.Cond != nil {
			out = append(out, b.scanExpr(x.Cond)...)
		}
		n := &opNode{
			kind:        opLoop,
			pos:         x.Pos(),
			body:        append(b.walkStmts(x.Body.List), b.walkStmt(x.Post)...),
			loopTainted: x.Cond != nil && b.tainted(x.Cond),
		}
		return append(out, n)
	case *ast.RangeStmt:
		n := &opNode{
			kind:        opLoop,
			pos:         x.Pos(),
			body:        b.walkStmts(x.Body.List),
			loopTainted: b.tainted(x.X),
		}
		return append(b.scanExpr(x.X), n)
	case *ast.ReturnStmt:
		var out []*opNode
		for _, r := range x.Results {
			out = append(out, b.scanExpr(r)...)
		}
		return append(out, &opNode{kind: opReturn, pos: x.Pos(), errReturn: b.isErrReturn(x)})
	case *ast.SwitchStmt:
		var out []*opNode
		out = append(out, b.walkStmt(x.Init)...)
		if x.Tag != nil {
			out = append(out, b.scanExpr(x.Tag)...)
		}
		return append(out, b.switchChain(x)...)
	case *ast.TypeSwitchStmt:
		var out []*opNode
		for _, cc := range x.Body.List {
			clause := cc.(*ast.CaseClause)
			out = append(out, &opNode{
				kind:    opBranch,
				pos:     clause.Pos(),
				condSrc: "type switch",
				condStr: commspec.Unknown,
				then:    b.walkStmts(clause.Body),
			})
		}
		return out
	case *ast.SelectStmt:
		var out []*opNode
		for _, cc := range x.Body.List {
			clause := cc.(*ast.CommClause)
			out = append(out, &opNode{
				kind:    opBranch,
				pos:     clause.Pos(),
				condSrc: "select",
				condStr: commspec.Unknown,
				then:    b.walkStmts(clause.Body),
			})
		}
		return out
	case *ast.LabeledStmt:
		return b.walkStmt(x.Stmt)
	case *ast.GoStmt:
		return b.scanExpr(x.Call)
	case *ast.DeferStmt:
		return b.scanExpr(x.Call)
	case *ast.SendStmt:
		return append(b.scanExpr(x.Chan), b.scanExpr(x.Value)...)
	case *ast.IncDecStmt:
		return b.scanExpr(x.X)
	}
	return nil
}

// switchChain folds a value switch into nested two-way branches so the
// consumers see ordinary guarded arms.
func (b *treeBuilder) switchChain(x *ast.SwitchStmt) []*opNode {
	var clauses []*ast.CaseClause
	var def *ast.CaseClause
	for _, cc := range x.Body.List {
		clause := cc.(*ast.CaseClause)
		if clause.List == nil {
			def = clause
			continue
		}
		clauses = append(clauses, clause)
	}
	var build func(i int) []*opNode
	build = func(i int) []*opNode {
		if i >= len(clauses) {
			if def != nil {
				return b.walkStmts(def.Body)
			}
			return nil
		}
		clause := clauses[i]
		tainted := x.Tag != nil && b.tainted(x.Tag)
		cond := commspec.Unknown
		src := "switch case"
		if x.Tag != nil {
			src = types.ExprString(x.Tag)
			if tagStr, ok := b.env.render(x.Tag); ok {
				parts := make([]string, 0, len(clause.List))
				for _, ce := range clause.List {
					cs, ok := b.env.render(ce)
					if !ok {
						parts = nil
						break
					}
					parts = append(parts, "("+tagStr+"=="+cs+")")
				}
				if parts != nil {
					cond = strings.Join(parts, "||")
					if len(parts) > 1 {
						cond = "(" + cond + ")"
					}
				}
			}
		}
		for _, ce := range clause.List {
			if b.tainted(ce) {
				tainted = true
			}
		}
		return []*opNode{{
			kind:        opBranch,
			pos:         clause.Pos(),
			condSrc:     src,
			condStr:     cond,
			condTainted: tainted,
			then:        b.walkStmts(clause.Body),
			els:         build(i + 1),
		}}
	}
	return build(0)
}

// isErrReturn reports whether a return statement surfaces an error (the
// abort path the simulations assume is not taken).
func (b *treeBuilder) isErrReturn(ret *ast.ReturnStmt) bool {
	if !b.errResult[len(b.errResult)-1] || len(ret.Results) == 0 {
		return false
	}
	last := ret.Results[len(ret.Results)-1]
	if id, ok := ast.Unparen(last).(*ast.Ident); ok && id.Name == "nil" {
		return false
	}
	return true
}

// funcRef resolves an expression used as a function value — a plain
// identifier or a selector — to its declared function, or nil.
func (b *treeBuilder) funcRef(e ast.Expr) *types.Func {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		fn, _ := b.info.Pkg.Info.Uses[x].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := b.info.Pkg.Info.Uses[x.Sel].(*types.Func)
		return fn
	}
	return nil
}

// scanExpr extracts communication leaves from an expression in evaluation
// order: arguments before the call itself.
func (b *treeBuilder) scanExpr(e ast.Expr) []*opNode {
	var out []*opNode
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch x := e.(type) {
		case nil:
			return
		case *ast.CallExpr:
			callee := b.calls[x]
			if isMPIRunCall(callee) {
				// mpi.Run(w, func(c *Ctx) error { ... }): the rank body
				// executes here — inline it transparently. A named function
				// passed as the body becomes a call node, so consumers
				// descend into it exactly as they would for a direct call.
				for _, a := range x.Args {
					if fl, ok := a.(*ast.FuncLit); ok {
						b.pushResults(fl.Type.Results)
						out = append(out, b.walkStmts(fl.Body.List)...)
						b.popResults()
					} else if fn := b.funcRef(a); fn != nil {
						out = append(out, &opNode{kind: opCall, pos: a.Pos(), callee: fn})
					} else {
						walk(a)
					}
				}
				return
			}
			for _, a := range x.Args {
				walk(a)
			}
			walk(x.Fun)
			if n := b.leafFor(x, callee); n != nil {
				out = append(out, n)
			}
		case *ast.FuncLit:
			b.pushResults(x.Type.Results)
			body := b.walkStmts(x.Body.List)
			b.popResults()
			if len(body) > 0 {
				out = append(out, &opNode{kind: opClosure, pos: x.Pos(), body: body})
			}
		case *ast.ParenExpr:
			walk(x.X)
		case *ast.SelectorExpr:
			walk(x.X)
		case *ast.StarExpr:
			walk(x.X)
		case *ast.UnaryExpr:
			walk(x.X)
		case *ast.BinaryExpr:
			walk(x.X)
			walk(x.Y)
		case *ast.IndexExpr:
			walk(x.X)
			walk(x.Index)
		case *ast.SliceExpr:
			walk(x.X)
			walk(x.Low)
			walk(x.High)
			walk(x.Max)
		case *ast.TypeAssertExpr:
			walk(x.X)
		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				walk(elt)
			}
		case *ast.KeyValueExpr:
			walk(x.Value)
		}
	}
	walk(e)
	return out
}

// leafFor builds the leaf node for one classified call, or nil.
func (b *treeBuilder) leafFor(call *ast.CallExpr, callee *types.Func) *opNode {
	kind, name := classifyComm(callee)
	renderArg := func(i int) string {
		if i >= len(call.Args) {
			return commspec.Unknown
		}
		if s, ok := b.env.render(call.Args[i]); ok {
			return s
		}
		return commspec.Unknown
	}
	switch kind {
	case commSend:
		return &opNode{kind: opP2P, pos: call.Pos(), comm: commSend, opName: name,
			partner: renderArg(0), tag: renderArg(1)}
	case commRecv:
		return &opNode{kind: opP2P, pos: call.Pos(), comm: commRecv, opName: name,
			partner: renderArg(0), tag: renderArg(1)}
	case commSendRecv:
		return &opNode{kind: opP2P, pos: call.Pos(), comm: commSendRecv, opName: name,
			partner: renderArg(0), partner2: renderArg(1), tag: renderArg(2)}
	case commColl:
		return &opNode{kind: opColl, pos: call.Pos(), comm: commColl, opName: name}
	case commPhase:
		n := &opNode{kind: opPhase, pos: call.Pos(), comm: commPhase, opName: name,
			phaseName: commspec.Unknown}
		if len(call.Args) > 0 {
			if tv, ok := b.info.Pkg.Info.Types[call.Args[0]]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
				n.phaseName = constant.StringVal(tv.Value)
				n.phaseConst = true
			}
		}
		return n
	case commCompute:
		return &opNode{kind: opCompute, pos: call.Pos(), comm: commCompute, opName: name}
	}
	if callee == nil {
		return nil
	}
	if info := b.prog.funcOf(callee); info != nil && !isMPIRuntimePkg(info.Pkg) {
		if f := b.prog.commFactOf(callee); f.hasComm() || f.hasCompute {
			return &opNode{kind: opCall, pos: call.Pos(), callee: callee}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Tree queries shared by the passes.
// ---------------------------------------------------------------------------

// subtreeHas reports whether any node in the forest satisfies pred,
// descending through branches, loops and closures but not opCall edges.
func subtreeHas(nodes []*opNode, pred func(*opNode) bool) bool {
	for _, n := range nodes {
		if pred(n) {
			return true
		}
		switch n.kind {
		case opBranch:
			if subtreeHas(n.then, pred) || subtreeHas(n.els, pred) {
				return true
			}
		case opLoop, opClosure:
			if subtreeHas(n.body, pred) {
				return true
			}
		}
	}
	return false
}

// expandTree replaces opCall nodes by their callees' trees so a whole
// kernel becomes one instantiable forest. Recursive or overly deep call
// chains fail the expansion (ok=false) — the callers then treat the
// function as unsimulatable rather than analyze a truncated protocol.
func (prog *Program) expandTree(fn *types.Func, depth int, busy map[*types.Func]bool) ([]*opNode, bool) {
	if depth > 8 || busy[fn] {
		return nil, false
	}
	info := prog.funcOf(fn)
	if info == nil || isMPIRuntimePkg(info.Pkg) {
		return nil, false
	}
	busy[fn] = true
	defer delete(busy, fn)
	var expand func(nodes []*opNode) ([]*opNode, bool)
	expand = func(nodes []*opNode) ([]*opNode, bool) {
		out := make([]*opNode, 0, len(nodes))
		for _, n := range nodes {
			switch n.kind {
			case opCall:
				sub, ok := prog.expandTree(n.callee, depth+1, busy)
				if !ok {
					return nil, false
				}
				out = append(out, sub...)
			case opBranch:
				then, ok := expand(n.then)
				if !ok {
					return nil, false
				}
				els, ok := expand(n.els)
				if !ok {
					return nil, false
				}
				c := *n
				c.then, c.els = then, els
				out = append(out, &c)
			case opLoop, opClosure:
				body, ok := expand(n.body)
				if !ok {
					return nil, false
				}
				c := *n
				c.body = body
				out = append(out, &c)
			default:
				out = append(out, n)
			}
		}
		return out, true
	}
	return expand(prog.commTree(info))
}

// calledFuncs returns (memoized) every function with a static caller in
// the program — the complement identifies the analysis roots.
func (prog *Program) calledFuncs() map[*types.Func]bool {
	if prog.commCalled != nil {
		return prog.commCalled
	}
	called := map[*types.Func]bool{}
	for _, info := range prog.funcs {
		for _, cs := range info.calls {
			called[cs.callee] = true
		}
	}
	prog.commCalled = called
	return called
}

// containsMPIRun reports whether the function launches an mpi job — the
// kernel-root marker for the skeleton and the deadlock simulation.
func (prog *Program) containsMPIRun(info *FuncInfo) bool {
	for _, cs := range info.calls {
		if isMPIRunCall(cs.callee) {
			return true
		}
	}
	return false
}

// describeGuard renders a human-facing guard description for reports.
func describeGuard(n *opNode) string {
	return fmt.Sprintf("(%s)", n.condSrc)
}
