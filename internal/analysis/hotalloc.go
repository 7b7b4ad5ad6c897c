package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc audits functions tagged //palint:hotpath for heap allocation.
// The simulator's hot loops (mpi payload movement, npb kernel inner
// iterations, obs counter updates) run millions of times per campaign;
// PR 3's freelists exist precisely because a stray make or append there
// dominated the profile. The tag turns that hard-won property into an
// invariant: any allocation site inside a tagged function — or reachable
// from it through module-internal calls — is flagged.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "heap allocation inside //palint:hotpath-tagged functions, including through callees",
	Run:  runHotAlloc,
	Explain: `A function whose doc comment carries //palint:hotpath must not
allocate. Inside tagged functions hotalloc flags:
  - make, new, and append (append may grow)
  - slice and map composite literals, and &StructLit
  - function literals (closures allocate their capture environment)
  - string concatenation with +
  - conversions and call arguments that box a concrete value into an
    interface parameter
  - calls to known allocating stdlib helpers (fmt.Sprintf, strings.Join,
    strconv.FormatFloat, ...)
  - calls to module-internal functions that allocate (the fact propagates
    through the call graph, so an allocation hidden two helpers deep is
    still reported at the hot call site with a witness chain)
A //palint:ignore hotalloc suppression on an allocation site inside a
helper sanctions it for every hot caller — use it for allocations that
are amortized (freelist miss paths, bounded caches).`,
	Example: `//palint:hotpath
func (c *Ctx) deliver(dst int, payload []float64) {
	buf := make([]float64, len(payload)) // flagged: allocation in hot path
	copy(buf, payload)
	c.mailbox(dst).push(buf)
	c.log = append(c.log, event{dst: dst}) // flagged: append may grow
}`,
}

// allocFact records that calling a function allocates: witness is a short
// human chain ("snapshotPayload: make([]float64, ...)" or
// "helper → fmt.Sprintf") naming the concrete site the report points at.
type allocFact struct {
	witness string
}

// allocatingStdFuncs are standard-library calls that allocate on every
// call by contract (they return fresh strings, slices or errors).
var allocatingStdFuncs = map[string]string{
	"fmt.Sprintf":         "returns a fresh string",
	"fmt.Sprint":          "returns a fresh string",
	"fmt.Sprintln":        "returns a fresh string",
	"fmt.Errorf":          "allocates an error",
	"fmt.Appendf":         "may grow its buffer",
	"errors.New":          "allocates an error",
	"strings.Join":        "returns a fresh string",
	"strings.Repeat":      "returns a fresh string",
	"strings.Split":       "allocates a slice of strings",
	"strconv.FormatFloat": "returns a fresh string",
	"strconv.FormatInt":   "returns a fresh string",
	"strconv.Itoa":        "returns a fresh string",
	"strconv.Quote":       "returns a fresh string",
	"strconv.AppendFloat": "may grow its buffer",
	"sort.Slice":          "boxes its closure",
	"sort.SliceStable":    "boxes its closure",
}

// directAllocSite describes one syntactic allocation, or nothing.
func directAllocSite(pkg *Package, n ast.Node) (token.Pos, string, bool) {
	switch x := n.(type) {
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
				switch id.Name {
				case "make":
					return x.Pos(), "make allocates", true
				case "new":
					return x.Pos(), "new allocates", true
				case "append":
					return x.Pos(), "append may grow its backing array", true
				}
			}
		}
	case *ast.CompositeLit:
		t := pkg.Info.Types[x].Type
		if t == nil {
			return token.NoPos, "", false
		}
		switch t.Underlying().(type) {
		case *types.Slice:
			return x.Pos(), "slice literal allocates", true
		case *types.Map:
			return x.Pos(), "map literal allocates", true
		}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
				return x.Pos(), "&literal escapes to the heap", true
			}
		}
	case *ast.FuncLit:
		return x.Pos(), "closure allocates its capture environment", true
	case *ast.BinaryExpr:
		if x.Op == token.ADD {
			if t := pkg.Info.Types[x].Type; t != nil {
				if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					return x.Pos(), "string concatenation allocates", true
				}
			}
		}
	}
	return token.NoPos, "", false
}

// boxedArgs returns the call arguments whose concrete values are converted
// to interface parameters — each conversion heap-allocates the box (small
// integers and pointers aside, which the rule conservatively ignores in
// favour of simplicity: hot paths here pass float64 slices and structs).
func boxedArgs(pkg *Package, call *ast.CallExpr) []ast.Expr {
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok {
		return nil
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return nil
	}
	var out []ast.Expr
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := pkg.Info.Types[arg].Type
		if at == nil {
			continue
		}
		if _, argIface := at.Underlying().(*types.Interface); argIface {
			continue // interface-to-interface: no new box
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		out = append(out, arg)
	}
	return out
}

// allocFacts reports whether calling f allocates: a direct allocation site
// in its body (suppressed sites excluded — a //palint:ignore hotalloc at
// the site sanctions it for every caller), an allocating stdlib call, or
// transitively through a module-internal callee. Memoized; cycles break
// through the busy set (a recursive function is judged on its own body).
func (prog *Program) allocFacts(f *types.Func) *allocFact {
	if fact, ok := prog.allocs[f]; ok {
		return fact
	}
	if key := stdFuncKey(f); !isMethod(f) {
		if why, ok := allocatingStdFuncs[key]; ok {
			fact := &allocFact{witness: key + " (" + why + ")"}
			prog.allocs[f] = fact
			return fact
		}
	}
	info := prog.funcOf(f)
	if info == nil || prog.allocBusy[f] {
		return nil
	}
	prog.allocBusy[f] = true
	var fact *allocFact
	ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
		if fact != nil {
			return false
		}
		if pos, what, ok := directAllocSite(info.Pkg, n); ok {
			if !prog.sanctioned("hotalloc", pos) {
				fact = &allocFact{witness: shortFuncName(f) + ": " + what}
			}
			return true
		}
		return true
	})
	if fact == nil {
		for _, cs := range info.calls {
			if prog.sanctioned("hotalloc", cs.call.Pos()) {
				continue
			}
			if sub := prog.allocFacts(cs.callee); sub != nil {
				fact = &allocFact{witness: shortFuncName(f) + " → " + sub.witness}
				break
			}
		}
	}
	delete(prog.allocBusy, f)
	prog.allocs[f] = fact
	return fact
}

func runHotAlloc(pass *Pass) {
	prog := pass.Prog
	eachReportedFunc(pass, func(info *FuncInfo) {
		if !info.Hotpath {
			return
		}
		calleeAt := prog.callMap(info)
		ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
			// A nested function literal is itself flagged as an allocation;
			// its body runs when called, not on the hot path per se, but
			// anything it allocates would too — keep descending.
			if pos, what, ok := directAllocSite(info.Pkg, n); ok {
				pass.Reportf(pos, "%s in a //palint:hotpath function", what)
				return true
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, arg := range boxedArgs(info.Pkg, call) {
				pass.Reportf(arg.Pos(), "argument is boxed into an interface parameter in a //palint:hotpath function")
			}
			callee := calleeAt[call]
			if callee == nil {
				return true
			}
			// A hotpath callee is audited at its own declaration; reporting
			// the call too would cascade one finding across every caller.
			if sub := prog.funcOf(callee); sub != nil && sub.Hotpath {
				return true
			}
			if fact := prog.allocFacts(callee); fact != nil {
				pass.Reportf(call.Pos(), "call allocates in a //palint:hotpath function: %s", fact.witness)
			}
			return true
		})
	})
}
