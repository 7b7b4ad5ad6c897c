package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// OwnFree enforces the payload-ownership protocol of the mpi freelists
// (DESIGN §8) interprocedurally. A buffer returned by Recv, SendRecv,
// Allreduce, Alltoall or Allgather is caller-owned: it may reach Free at
// most once and must not be read after it is freed. Helpers participate
// through facts: a function that frees its parameter counts as a Free at
// every call site, and a function that returns an unfreed producer result
// hands ownership to its caller.
var OwnFree = &Analyzer{
	Name: "ownfree",
	Doc:  "freelist payload ownership: double Free, use after Free",
	Run:  runOwnFree,
	Explain: `Buffers returned by the mpi producers (Recv, SendRecv, Allreduce,
Alltoall, Allgather — any method of a type that also has Free([]float64))
are owned by the caller, at every world size. ownfree tracks each owned
variable through the function body and flags:
  - a second Free of the same buffer on one execution path (including a
    Free repeated every loop iteration for a buffer bound outside the
    loop, and a Free duplicated through a helper that frees its argument)
  - any read of the buffer after it has been freed
Helpers found through the call graph carry facts: "frees its parameter"
and "returns an owned buffer", so violations split across functions are
still caught.`,
	Example: `got, _ := c.Recv(src, tag)
sum(got)
c.Free(got)
c.Free(got)            // flagged: second Free

parts, _ := c.Allgather(mine, vb)
for _, p := range parts {
	c.Free(p)
	use(p)             // flagged: read after Free
}`,
}

// producerKind describes what a call hands to the caller.
type producerKind int

const (
	notProducer producerKind = iota
	ownedBuffer              // Recv/SendRecv/Allreduce: one caller-owned buffer
	ownedSlices              // Alltoall/Allgather: one caller-owned buffer per rank
)

// producerMethods maps mpi-style producer method names to the ownership
// shape of their result.
var producerMethods = map[string]producerKind{
	"Recv":      ownedBuffer,
	"SendRecv":  ownedBuffer,
	"Allreduce": ownedBuffer,
	"Alltoall":  ownedSlices,
	"Allgather": ownedSlices,
}

// producerOf classifies a resolved callee as a payload producer: a producer-
// named method on a type that also has a Free method (so arbitrary Recv
// functions elsewhere do not match), or a module-internal function with the
// returns-owned fact.
func (prog *Program) producerOf(callee *types.Func) producerKind {
	if callee == nil {
		return notProducer
	}
	kind, ok := producerMethods[callee.Name()]
	if ok && recvHasFree(callee) {
		return kind
	}
	if fact := prog.ownedFacts(callee); fact != nil {
		return fact.kind
	}
	return notProducer
}

// recvHasFree reports whether the callee's receiver type has a Free method.
func recvHasFree(callee *types.Func) bool {
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(sig.Recv().Type(), true, callee.Pkg(), "Free")
	_, ok = obj.(*types.Func)
	return ok
}

// isFreeCall reports whether the call frees a payload: a Free method on a
// producer-owning type, with the freed expression as its argument.
func (prog *Program) isFreeCall(pkg *Package, cs callSite) (ast.Expr, bool) {
	if cs.callee.Name() == "Free" && isMethod(cs.callee) && len(cs.call.Args) == 1 {
		return cs.call.Args[0], true
	}
	return nil, false
}

// ownedFact records that a function returns an owned buffer (result index
// 0) without freeing it — ownership transfers to the caller.
type ownedFact struct{ kind producerKind }

// ownedFacts reports whether f hands an owned producer result to its
// caller: some return statement returns a producer call directly, or a
// local bound to one that was never freed.
func (prog *Program) ownedFacts(f *types.Func) *ownedFact {
	if fact, ok := prog.owned[f]; ok {
		return fact
	}
	info := prog.funcOf(f)
	if info == nil || prog.ownedBusy[f] {
		return nil
	}
	prog.ownedBusy[f] = true
	var fact *ownedFact
	// Variables bound to producer results, and whether they were freed.
	bound := map[types.Object]producerKind{}
	freed := map[types.Object]bool{}
	calleeAt := prog.callMap(info)
	ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				kind := prog.producerOf(calleeAt[call])
				if kind == notProducer || i >= len(x.Lhs) {
					continue
				}
				if id, ok := x.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
					if obj := objOf(info.Pkg, id); obj != nil {
						bound[obj] = kind
					}
				}
			}
		case *ast.CallExpr:
			if callee := calleeAt[x]; callee != nil {
				if arg, ok := prog.isFreeCall(info.Pkg, callSite{call: x, callee: callee}); ok {
					if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
						if obj := objOf(info.Pkg, id); obj != nil {
							freed[obj] = true
						}
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				if call, ok := ast.Unparen(res).(*ast.CallExpr); ok {
					if kind := prog.producerOf(calleeAt[call]); kind != notProducer {
						fact = &ownedFact{kind: kind}
					}
				}
				if id, ok := ast.Unparen(res).(*ast.Ident); ok {
					if obj := objOf(info.Pkg, id); obj != nil {
						if kind, ok := bound[obj]; ok && !freed[obj] {
							fact = &ownedFact{kind: kind}
						}
					}
				}
			}
		}
		return true
	})
	delete(prog.ownedBusy, f)
	prog.owned[f] = fact
	return fact
}

// freesParamFacts returns the parameter indices f passes to a Free call
// (directly or through another helper with this fact).
func (prog *Program) freesParamFacts(f *types.Func) map[int]bool {
	if facts, ok := prog.frees[f]; ok {
		return facts
	}
	info := prog.funcOf(f)
	if info == nil || prog.freesBusy[f] {
		return nil
	}
	prog.freesBusy[f] = true
	facts := map[int]bool{}
	record := func(e ast.Expr) {
		if idx, ok := paramIndexOf(info, e); ok {
			facts[idx] = true
		}
	}
	for _, cs := range info.calls {
		if arg, ok := prog.isFreeCall(info.Pkg, cs); ok {
			record(arg)
			continue
		}
		for idx := range prog.freesParamFacts(cs.callee) {
			if idx < len(cs.call.Args) {
				record(cs.call.Args[idx])
			}
		}
	}
	delete(prog.freesBusy, f)
	prog.frees[f] = facts
	return facts
}

// objOf resolves an identifier to its object (definition or use).
func objOf(pkg *Package, id *ast.Ident) types.Object {
	if obj := pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return pkg.Info.Uses[id]
}

// ── flow approximation ────────────────────────────────────────────────────

// pathElem is one branch decision on the way to a statement: the node that
// branched and which arm was taken. Two events whose paths diverge at the
// same node with different arms are mutually exclusive.
type pathElem struct {
	node ast.Node
	arm  int
}

// eventKind labels what happened to an owned variable.
type eventKind int

const (
	evBind eventKind = iota // variable (re)bound — kills previous ownership
	evFree                  // passed to Free (or a frees-param helper)
	evUse                   // any other read
)

// ownEvent is one occurrence of an owned variable in source order.
type ownEvent struct {
	kind eventKind
	obj  types.Object
	pos  token.Pos
	path []pathElem
	via  string // helper name when the Free happens through a fact
}

// compatible reports whether two paths can lie on one execution: neither
// takes a different arm at a shared branch node.
func compatible(a, b []pathElem) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i].node == b[i].node && a[i].arm != b[i].arm {
			return false
		}
	}
	return true
}

// loopsNotShared returns the loop nodes on path b that are absent from a.
func loopsNotShared(a, b []pathElem) []ast.Node {
	inA := map[ast.Node]bool{}
	for _, e := range a {
		inA[e.node] = true
	}
	var out []ast.Node
	for _, e := range b {
		if !inA[e.node] {
			if _, isFor := e.node.(*ast.ForStmt); isFor {
				out = append(out, e.node)
			}
			if _, isRange := e.node.(*ast.RangeStmt); isRange {
				out = append(out, e.node)
			}
		}
	}
	return out
}

func runOwnFree(pass *Pass) {
	eachReportedFunc(pass, func(info *FuncInfo) {
		checkOwnership(pass, info)
	})
}

// checkOwnership runs the flow approximation over one function body:
// collect bind/free/use events for owned variables in lexical order with
// branch paths, then test the pairwise rules.
func checkOwnership(pass *Pass, info *FuncInfo) {
	prog := pass.Prog
	calleeAt := prog.callMap(info)
	owned := map[types.Object]bool{}
	collections := map[types.Object]bool{} // Alltoall/Allgather results
	var events []ownEvent

	// freedArgs holds identifiers already recorded as evFree through a
	// frees-param helper, so the descent below them does not double-count
	// the same occurrence as a use-after-free.
	freedArgs := map[*ast.Ident]bool{}

	var walkExpr func(e ast.Expr, path []pathElem, skip map[ast.Node]bool)
	walkExpr = func(e ast.Expr, path []pathElem, skip map[ast.Node]bool) {
		if e == nil {
			return
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if skip[n] {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				callee := calleeAt[call]
				if callee != nil {
					cs := callSite{call: call, callee: callee}
					if arg, ok := prog.isFreeCall(info.Pkg, cs); ok {
						if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
							if obj := objOf(info.Pkg, id); obj != nil && owned[obj] {
								events = append(events, ownEvent{kind: evFree, obj: obj, pos: call.Pos(), path: append([]pathElem(nil), path...)})
								return false
							}
						}
						return true
					}
					freed := prog.freesParamFacts(callee)
					for idx := 0; idx < len(call.Args); idx++ {
						if !freed[idx] {
							continue
						}
						if id, ok := ast.Unparen(call.Args[idx]).(*ast.Ident); ok {
							if obj := objOf(info.Pkg, id); obj != nil && owned[obj] {
								events = append(events, ownEvent{kind: evFree, obj: obj, pos: call.Args[idx].Pos(), path: append([]pathElem(nil), path...), via: shortFuncName(callee)})
								freedArgs[id] = true
							}
						}
					}
				}
			}
			if id, ok := n.(*ast.Ident); ok && !freedArgs[id] {
				if obj := objOf(info.Pkg, id); obj != nil && owned[obj] {
					events = append(events, ownEvent{kind: evUse, obj: obj, pos: id.Pos(), path: append([]pathElem(nil), path...)})
				}
			}
			return true
		})
	}

	bindFrom := func(lhs ast.Expr, kind producerKind, path []pathElem) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := objOf(info.Pkg, id)
		if obj == nil {
			return
		}
		switch kind {
		case ownedBuffer:
			owned[obj] = true
		case ownedSlices:
			collections[obj] = true
		}
		events = append(events, ownEvent{kind: evBind, obj: obj, pos: id.Pos(), path: append([]pathElem(nil), path...)})
	}

	var walkStmt func(s ast.Stmt, path []pathElem)
	walkStmts := func(list []ast.Stmt, path []pathElem) {
		for _, s := range list {
			walkStmt(s, path)
		}
	}
	walkStmt = func(s ast.Stmt, path []pathElem) {
		switch x := s.(type) {
		case *ast.BlockStmt:
			walkStmts(x.List, path)
		case *ast.IfStmt:
			if x.Init != nil {
				walkStmt(x.Init, path)
			}
			walkExpr(x.Cond, path, nil)
			walkStmt(x.Body, append(path, pathElem{node: x, arm: 0}))
			if x.Else != nil {
				walkStmt(x.Else, append(path, pathElem{node: x, arm: 1}))
			}
		case *ast.ForStmt:
			if x.Init != nil {
				walkStmt(x.Init, path)
			}
			walkExpr(x.Cond, path, nil)
			inner := append(path, pathElem{node: x, arm: 0})
			walkStmt(x.Body, inner)
			if x.Post != nil {
				walkStmt(x.Post, inner)
			}
		case *ast.RangeStmt:
			walkExpr(x.X, path, nil)
			inner := append(path, pathElem{node: x, arm: 0})
			// Ranging over an owned collection binds an owned element
			// each iteration.
			if id, ok := x.X.(*ast.Ident); ok {
				if obj := objOf(info.Pkg, id); obj != nil && collections[obj] {
					if x.Value != nil {
						bindFrom(x.Value, ownedBuffer, inner)
					}
				}
			}
			walkStmt(x.Body, inner)
		case *ast.SwitchStmt:
			if x.Init != nil {
				walkStmt(x.Init, path)
			}
			walkExpr(x.Tag, path, nil)
			for i, clause := range x.Body.List {
				if cc, ok := clause.(*ast.CaseClause); ok {
					inner := append(path, pathElem{node: x, arm: i})
					for _, e := range cc.List {
						walkExpr(e, inner, nil)
					}
					walkStmts(cc.Body, inner)
				}
			}
		case *ast.TypeSwitchStmt:
			if x.Init != nil {
				walkStmt(x.Init, path)
			}
			walkStmt(x.Assign, path)
			for i, clause := range x.Body.List {
				if cc, ok := clause.(*ast.CaseClause); ok {
					walkStmts(cc.Body, append(path, pathElem{node: x, arm: i}))
				}
			}
		case *ast.SelectStmt:
			for i, clause := range x.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok {
					inner := append(path, pathElem{node: x, arm: i})
					if cc.Comm != nil {
						walkStmt(cc.Comm, inner)
					}
					walkStmts(cc.Body, inner)
				}
			}
		case *ast.AssignStmt:
			skip := map[ast.Node]bool{}
			// Producer results and element loads from an owned collection
			// bind ownership.
			for i, rhs := range x.Rhs {
				if i >= len(x.Lhs) {
					break
				}
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
					if kind := prog.producerOf(calleeAt[call]); kind != notProducer {
						bindFrom(x.Lhs[i], kind, path)
						skip[x.Lhs[i]] = true
					}
					continue
				}
				if idx, ok := ast.Unparen(rhs).(*ast.IndexExpr); ok {
					if id, ok := idx.X.(*ast.Ident); ok {
						if obj := objOf(info.Pkg, id); obj != nil && collections[obj] {
							bindFrom(x.Lhs[i], ownedBuffer, path)
							skip[x.Lhs[i]] = true
						}
					}
				}
			}
			// Any other assignment to a tracked variable kills ownership.
			for _, lhs := range x.Lhs {
				if skip[lhs] {
					continue
				}
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := objOf(info.Pkg, id); obj != nil && owned[obj] {
						events = append(events, ownEvent{kind: evBind, obj: obj, pos: id.Pos(), path: append([]pathElem(nil), path...)})
						skip[lhs] = true
					}
				}
			}
			for _, rhs := range x.Rhs {
				walkExpr(rhs, path, skip)
			}
			for _, lhs := range x.Lhs {
				if !skip[lhs] {
					walkExpr(lhs, path, skip)
				}
			}
		case *ast.ExprStmt:
			walkExpr(x.X, path, nil)
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				walkExpr(r, path, nil)
			}
		case *ast.DeferStmt:
			walkExpr(x.Call, path, nil)
		case *ast.GoStmt:
			walkExpr(x.Call, path, nil)
		case *ast.DeclStmt:
			if gd, ok := x.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, v := range vs.Values {
							walkExpr(v, path, nil)
						}
					}
				}
			}
		case *ast.IncDecStmt:
			walkExpr(x.X, path, nil)
		case *ast.SendStmt:
			walkExpr(x.Chan, path, nil)
			walkExpr(x.Value, path, nil)
		case *ast.LabeledStmt:
			walkStmt(x.Stmt, path)
		}
	}
	walkStmts(info.Decl.Body.List, nil)

	reportOwnEvents(pass, events)
}

// reportOwnEvents applies the pairwise ownership rules to the collected
// event stream.
func reportOwnEvents(pass *Pass, events []ownEvent) {
	// Per variable, in lexical order.
	byObj := map[types.Object][]ownEvent{}
	var order []types.Object
	for _, ev := range events {
		if _, ok := byObj[ev.obj]; !ok {
			order = append(order, ev.obj)
		}
		byObj[ev.obj] = append(byObj[ev.obj], ev)
	}
	for _, obj := range order {
		evs := byObj[obj]
		var lastBind *ownEvent
		var frees []ownEvent
		for i := range evs {
			ev := evs[i]
			switch ev.kind {
			case evBind:
				lastBind = &evs[i]
				frees = nil
			case evFree:
				if lastBind == nil {
					continue
				}
				// Rule: Free inside a loop the binding is outside of frees
				// the same buffer every iteration.
				if loops := loopsNotShared(lastBind.path, ev.path); len(loops) > 0 {
					pass.Reportf(ev.pos, "%s is freed on every iteration of an enclosing loop but bound outside it; each iteration after the first frees an already-freed buffer", obj.Name())
				}
				// Rule: a second Free on a compatible path.
				for _, prev := range frees {
					if compatible(prev.path, ev.path) {
						via := ""
						if ev.via != "" {
							via = " (through " + ev.via + ")"
						}
						pass.Reportf(ev.pos, "%s is freed a second time%s; the first Free is at %s", obj.Name(), via, shortPos(pass, prev.pos))
						break
					}
				}
				frees = append(frees, ev)
			case evUse:
				for _, prev := range frees {
					if compatible(prev.path, ev.path) {
						pass.Reportf(ev.pos, "%s is read after being freed at %s; the freelist may already have recycled it", obj.Name(), shortPos(pass, prev.pos))
						break
					}
				}
			}
		}
	}
}

// shortPos renders a position with the file basename, keeping report
// messages (and the goldens that pin them) location-independent.
func shortPos(pass *Pass, pos token.Pos) string {
	p := pass.Fset().Position(pos)
	return fmt.Sprintf("%s:%d:%d", filepath.Base(p.Filename), p.Line, p.Column)
}
