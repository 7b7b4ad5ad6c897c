package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// DetSource guards the repository's determinism contract: reproduction
// output, store fingerprints, golden files and obs exports must be pure
// functions of their inputs, so nothing in the tree may read wall-clock
// time, the global math/rand source, or the environment — and nothing may
// let map-iteration order reach a value or a report, or fold fmt-rendered
// pointer identities into a value.
// The pass is interprocedural: a helper that reads time.Now taints every
// (module-internal) caller, a function that forwards a parameter into a
// %v/%+v verb is checked at each call site against the concrete argument
// type, and a //palint:ignore detsource -- <reason> at the source line
// sanctions the behaviour for all callers at once (the CLI drivers' wall
// clocks use exactly that escape).
var DetSource = &Analyzer{
	Name: "detsource",
	Doc:  "nondeterminism sources (wall clock, global rand, env, map order, pointer rendering) reaching deterministic code",
	Run:  runDetSource,
	Explain: `Reproduction output must be bit-identical run to run, so every value in
the tree must be a pure function of its inputs. detsource flags, including
through any chain of module-internal calls:
  - wall-clock reads: time.Now / Since / Until
  - the global math/rand source (rand.Int, rand.Float64, ...; an explicitly
    seeded *rand.Rand is fine) and crypto/rand
  - environment reads: os.Getenv / LookupEnv / Environ / Hostname
  - map iteration accumulated into an ordered value (append in the loop
    body) with no later sort in the same function
  - map iteration whose body feeds formatted output (any fmt call but
    Errorf, or a table row / strings.Builder / io writer method), which
    emits report rows in randomized order; range over sorted keys instead
  - a float +=, -= or *= inside map iteration: float arithmetic is not
    associative, so the result's last bits follow the randomized order;
    sum over sorted keys or an already sorted slice instead (integer sums
    are fine)
  - %v / %+v / %#v rendering of a type that transitively contains a
    pointer, func or chan (fmt prints their addresses, which differ every
    run — the store-fingerprint leak), checked through helpers that
    forward an interface parameter into the verb (obs.Fingerprint).
Suppressing the source line with //palint:ignore detsource -- <reason>
sanctions it for every caller.`,
	Example: `func stamp() string        { return time.Now().String() }    // flagged
func key(v any) string     { return fmt.Sprintf("%+v", v) }   // forwards param 0
type cfg struct{ log *Log }
func fingerprint(c cfg)    { _ = key(c) }                     // flagged: pointer reaches %+v
func order(m map[int]int) (out []int) {
	for k := range m {
		out = append(out, k) // flagged: no sort after the loop
	}
	return out
}
func report(w io.Writer, m map[string]float64) {
	for name, v := range m { // flagged: random row order
		fmt.Fprintf(w, "%s: %g\n", name, v)
	}
}
func total(m map[string]float64) (sum float64) {
	for _, v := range m {
		sum += v // flagged: last bits follow the iteration order
	}
	return sum
}`,
}

// taintKind names one class of nondeterminism source.
type taintKind string

const (
	taintWallClock taintKind = "wall-clock read"
	taintRand      taintKind = "global math/rand draw"
	taintEnv       taintKind = "environment read"
)

// nondetStdFuncs maps standard-library functions to the taint they
// introduce. Package-level math/rand and math/rand/v2 functions are handled
// separately (any of them draws from the unseeded global source).
var nondetStdFuncs = map[string]taintKind{
	"time.Now":         taintWallClock,
	"time.Since":       taintWallClock,
	"time.Until":       taintWallClock,
	"os.Getenv":        taintEnv,
	"os.LookupEnv":     taintEnv,
	"os.Environ":       taintEnv,
	"os.Hostname":      taintEnv,
	"crypto/rand.Read": taintRand,
	"crypto/rand.Int":  taintRand,
}

// directTaint classifies a resolved callee as a nondeterminism source.
func directTaint(callee *types.Func) (taintKind, string, bool) {
	key := stdFuncKey(callee)
	if kind, ok := nondetStdFuncs[key]; ok {
		return kind, key, true
	}
	if callee.Pkg() != nil {
		path := callee.Pkg().Path()
		if (path == "math/rand" || path == "math/rand/v2") && !isMethod(callee) {
			return taintRand, key, true
		}
	}
	return "", "", false
}

func isMethod(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// nondetFacts returns the taints reachable from f's body, keyed by kind,
// with a representative witness chain ("helper → time.Now"). Sources whose
// line carries a detsource suppression are sanctioned and do not propagate.
// Cycles in the call graph resolve to the facts discovered so far.
func (prog *Program) nondetFacts(f *types.Func) map[taintKind]string {
	return prog.nondet.get(f, nil, func() map[taintKind]string {
		info := prog.funcOf(f)
		if info == nil {
			return nil
		}
		facts := map[taintKind]string{}
		for _, cs := range info.calls {
			if prog.sanctioned("detsource", cs.call.Pos()) {
				continue
			}
			if kind, witness, ok := directTaint(cs.callee); ok {
				if _, have := facts[kind]; !have {
					facts[kind] = witness
				}
				continue
			}
			for kind, chain := range prog.nondetFacts(cs.callee) {
				if _, have := facts[kind]; !have {
					facts[kind] = shortFuncName(cs.callee) + " → " + chain
				}
			}
		}
		return facts
	})
}

// fmtVerbFuncs maps fmt functions that render values through verbs to the
// index of their format-string argument. fmt.Errorf is deliberately absent:
// error text is not an identity and flagging it would bury the fingerprint
// signal in noise.
var fmtVerbFuncs = map[string]int{
	"fmt.Sprintf": 0,
	"fmt.Fprintf": 1,
	"fmt.Printf":  0,
	"fmt.Appendf": 1,
}

// fmtForwardFacts returns the indices of f's interface-typed parameters
// whose values reach a %v/%+v/%#v verb, directly or by forwarding to
// another function with this fact. The concrete types behind those
// parameters are only known at call sites, which is where runDetSource
// checks them.
func (prog *Program) fmtForwardFacts(f *types.Func) map[int]bool {
	return prog.fmtParams.get(f, nil, func() map[int]bool {
		info := prog.funcOf(f)
		if info == nil {
			return nil
		}
		facts := map[int]bool{}
		record := func(arg ast.Expr) {
			if idx, ok := paramIndexOf(info, arg); ok {
				facts[idx] = true
			}
		}
		for _, cs := range info.calls {
			if prog.sanctioned("detsource", cs.call.Pos()) {
				continue
			}
			for _, arg := range verbArgs(info.Pkg, cs) {
				record(arg)
			}
			for idx := range prog.fmtForwardFacts(cs.callee) {
				if idx < len(cs.call.Args) {
					record(cs.call.Args[idx])
				}
			}
		}
		return facts
	})
}

// paramIndexOf reports which parameter of info's function the expression
// names, when it is a plain reference to one.
func paramIndexOf(info *FuncInfo, e ast.Expr) (int, bool) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return 0, false
	}
	obj := info.Pkg.Info.Uses[id]
	if obj == nil {
		return 0, false
	}
	sig, ok := info.Obj.Type().(*types.Signature)
	if !ok {
		return 0, false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == obj {
			return i, true
		}
	}
	return 0, false
}

// verbArgs returns the arguments of cs that a %v/%+v/%#v verb renders, when
// the callee is a fmt verb function with a constant format string.
func verbArgs(pkg *Package, cs callSite) []ast.Expr {
	fmtIdx, ok := fmtVerbFuncs[stdFuncKey(cs.callee)]
	if !ok || fmtIdx >= len(cs.call.Args) {
		return nil
	}
	format, ok := constantString(pkg, cs.call.Args[fmtIdx])
	if !ok {
		return nil
	}
	var out []ast.Expr
	argIdx := fmtIdx + 1
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		j := i + 1
		// Width/precision stars consume one argument each.
		for j < len(format) && strings.ContainsRune("+-# 0123456789.*", rune(format[j])) {
			if format[j] == '*' {
				argIdx++
			}
			j++
		}
		if j >= len(format) {
			break
		}
		verb := format[j]
		i = j
		if verb == '%' {
			continue
		}
		if verb == 'v' && argIdx < len(cs.call.Args) {
			out = append(out, cs.call.Args[argIdx])
		}
		argIdx++
	}
	return out
}

// constantString evaluates e as a constant string.
func constantString(pkg *Package, e ast.Expr) (string, bool) {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Value == nil {
		return "", false
	}
	s, err := strconv.Unquote(tv.Value.ExactString())
	if err != nil {
		return "", false
	}
	return s, true
}

// rendersNondet reports whether fmt's %v family renders t nondeterministic-
// ally: the type transitively contains a pointer, func or chan, whose
// addresses differ between runs. Types implementing fmt.Stringer or error
// control their own rendering and are trusted; interface-typed components
// are opaque (a documented soundness limit — the forwarding fact closes the
// common helper case).
func rendersNondet(t types.Type) (string, bool) {
	return rendersNondetSeen(t, map[types.Type]bool{})
}

func rendersNondetSeen(t types.Type, seen map[types.Type]bool) (string, bool) {
	if t == nil || seen[t] {
		return "", false
	}
	seen[t] = true
	if hasStringMethod(t) {
		return "", false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		return "pointer", true
	case *types.Signature:
		return "func value", true
	case *types.Chan:
		return "chan", true
	case *types.Slice:
		if what, bad := rendersNondetSeen(u.Elem(), seen); bad {
			return what, true
		}
	case *types.Array:
		if what, bad := rendersNondetSeen(u.Elem(), seen); bad {
			return what, true
		}
	case *types.Map:
		// fmt sorts map keys since Go 1.12, so iteration order is safe,
		// but pointer-bearing keys or values still render as addresses.
		if what, bad := rendersNondetSeen(u.Key(), seen); bad {
			return what, true
		}
		if what, bad := rendersNondetSeen(u.Elem(), seen); bad {
			return what, true
		}
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			fld := u.Field(i)
			if what, bad := rendersNondetSeen(fld.Type(), seen); bad {
				return fmt.Sprintf("field %s holds a %s", fld.Name(), what), true
			}
		}
	}
	return "", false
}

// hasStringMethod reports whether t (or *t) has a String() string method.
func hasStringMethod(t types.Type) bool {
	for _, typ := range []types.Type{t, types.NewPointer(t)} {
		obj, _, _ := types.LookupFieldOrMethod(typ, true, nil, "String")
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if ok && sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
			types.Identical(sig.Results().At(0).Type(), types.Typ[types.String]) {
			return true
		}
	}
	return false
}

func runDetSource(pass *Pass) {
	prog := pass.Prog
	eachReportedFunc(pass, func(info *FuncInfo) {
		for _, cs := range info.calls {
			// Direct sources report at the call; taints reached through a
			// function outside the reporting set report here too, because
			// the source line itself is not part of this run's output.
			if kind, witness, ok := directTaint(cs.callee); ok {
				pass.Reportf(cs.call.Pos(), "%s (%s) in deterministic code; derive the value from explicit inputs or suppress with a reason", kind, witness)
			} else if callee := prog.funcOf(cs.callee); callee != nil && !prog.inReport[callee.Pkg] {
				for kind, chain := range prog.nondetFacts(cs.callee) {
					pass.Reportf(cs.call.Pos(), "call to %s reaches a %s (%s → %s)",
						shortFuncName(cs.callee), kind, shortFuncName(cs.callee), chain)
				}
			}
			// Concrete arguments meeting a %v verb — directly or through a
			// forwarding helper like obs.Fingerprint — must render
			// deterministically.
			for _, arg := range verbArgs(info.Pkg, cs) {
				reportNondetRender(pass, info, arg, "")
			}
			for idx := range prog.fmtForwardFacts(cs.callee) {
				if idx < len(cs.call.Args) {
					reportNondetRender(pass, info, cs.call.Args[idx], shortFuncName(cs.callee))
				}
			}
		}
		checkMapRange(pass, info)
	})
}

// reportNondetRender flags arg when its concrete static type would render
// pointer/func/chan addresses through a %v verb. via names the forwarding
// helper, or "" for a direct fmt call.
func reportNondetRender(pass *Pass, info *FuncInfo, arg ast.Expr, via string) {
	t := info.Pkg.Info.Types[arg].Type
	if t == nil {
		return
	}
	if _, isIface := t.Underlying().(*types.Interface); isIface {
		return // opaque: checked at this call's own call sites instead
	}
	what, bad := rendersNondet(t)
	if !bad {
		return
	}
	if via != "" {
		pass.Reportf(arg.Pos(), "%s renders %s through a %%v verb, but %s: the rendering embeds a run-dependent address", via, t, what)
	} else {
		pass.Reportf(arg.Pos(), "%%v rendering of %s embeds a run-dependent address (%s)", t, what)
	}
}

// checkMapRange applies the map-order rule to info's map-range loops, whose
// iteration order Go randomizes. A loop whose body feeds formatted output
// reports at its for: the rows come out in a different order every run. A
// loop that appends into a slice reports at the append when no sort call
// follows in the same function: the element order is run-dependent. A
// float +=, -= or *= in the body reports at the assignment: float
// arithmetic is not associative, so the result's last bits depend on the
// order too. Integer sums and map-to-map copies are fine.
func checkMapRange(pass *Pass, info *FuncInfo) {
	type loopAppend struct {
		rng *ast.RangeStmt
		pos token.Pos
	}
	var appends []loopAppend
	var sortCalls []token.Pos
	// floatOps dedupes an assignment that nested map ranges both reach.
	floatOps := map[*ast.AssignStmt]bool{}
	ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if pkg := pkgQualifier(pass, x); pkg == "sort" || pkg == "slices" {
				sortCalls = append(sortCalls, x.Pos())
			}
		case *ast.RangeStmt:
			t := info.Pkg.Info.Types[x.X].Type
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if sink := findOutputSink(pass, x.Body); sink != nil {
				pass.Reportf(x.For,
					"map iteration feeds %s output; iterate sorted keys for a deterministic report",
					sinkLabel(pass, sink))
			}
			ast.Inspect(x.Body, func(m ast.Node) bool {
				if as, ok := m.(*ast.AssignStmt); ok && !floatOps[as] &&
					(as.Tok == token.ADD_ASSIGN || as.Tok == token.SUB_ASSIGN || as.Tok == token.MUL_ASSIGN) && pass.IsFloat(as.Lhs[0]) {
					floatOps[as] = true
					pass.Reportf(as.TokPos, "float %s inside map iteration: the result's last bits follow the randomized order; accumulate over sorted keys", as.Tok)
				}
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
					if _, isBuiltin := info.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
						appends = append(appends, loopAppend{rng: x, pos: call.Pos()})
						return false
					}
				}
				return true
			})
		}
		return true
	})
	for _, la := range appends {
		sorted := false
		for _, sp := range sortCalls {
			if sp > la.rng.Body.End() {
				sorted = true
				break
			}
		}
		if !sorted {
			pass.Reportf(la.pos, "append inside map iteration builds an order-dependent value; collect and sort, or sort the result before it escapes")
		}
	}
}

// sinkMethods is the output-writing method vocabulary: table.T row
// builders, strings.Builder / io writers, and print-like names.
var sinkMethods = map[string]bool{
	"AddRow":      true,
	"AddFloats":   true,
	"AddPercents": true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"Write":       true,
	"Printf":      true,
	"Print":       true,
	"Println":     true,
	"Fprintf":     true,
	"Fprint":      true,
	"Fprintln":    true,
	"Sprintf":     true,
	"Sprint":      true,
	"Sprintln":    true,
	"Appendf":     true,
}

// findOutputSink returns the first output-writing call inside body, or nil.
func findOutputSink(pass *Pass, body *ast.BlockStmt) *ast.CallExpr {
	var sink *ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		if sink != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		// fmt.Errorf constructs an error value, almost always followed by
		// `return`: the loop visits one nondeterministic key, it does not
		// emit a nondeterministic report. Flagging it would force sorted
		// iteration onto every map-validation loop for no report benefit.
		if pkgQualifier(pass, call) == "fmt" && name != "Errorf" {
			sink = call
			return false
		}
		if sinkMethods[name] {
			sink = call
			return false
		}
		return true
	})
	return sink
}

// sinkLabel names the sink for the diagnostic ("fmt.Fprintf", "AddRow").
func sinkLabel(pass *Pass, call *ast.CallExpr) string {
	name := calleeName(call)
	if pkg := pkgQualifier(pass, call); pkg != "" {
		return pkg + "." + name
	}
	return name
}
