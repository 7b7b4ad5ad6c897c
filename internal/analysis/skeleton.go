package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"pasp/internal/commspec"
)

// This file extracts the module's communication skeleton (commspec.Skeleton)
// from the same guarded operation trees the commcheck passes analyze. The
// skeleton OVER-approximates: every operation a kernel can perform at some
// (rank, N) must appear, with guards and phases downgraded to the wildcard
// "?" whenever the static side cannot pin them — conformance checking
// (cmd/paverify) rejects observed events with no predicted site, so a
// missing prediction would be a false alarm while a loose one merely
// weakens the check.

// BuildSkeleton extracts the communication skeleton of every kernel — a
// function among pkgs that launches an mpi job — in declaration order. root
// anchors the module-relative positions.
func BuildSkeleton(root string, pkgs []*Package) (*commspec.Skeleton, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	prog := newProgram(pkgs)
	sk := &commspec.Skeleton{}
	names := map[string]int{}
	for _, pkg := range pkgs {
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
				if info == nil || !prog.containsMPIRun(info) {
					continue
				}
				name := kernelName(obj)
				if n := names[name]; n > 0 {
					name = fmt.Sprintf("%s-%d", name, n+1)
				}
				names[kernelName(obj)]++
				k := extractKernel(absRoot, prog, info)
				k.Name = name
				sk.Kernels = append(sk.Kernels, *k)
			}
		}
	}
	if err := checkExprs(sk); err != nil {
		return nil, err
	}
	return sk, nil
}

// checkExprs compiles every non-empty guard, partner and tag of sk in the
// rank algebra. At check time a guard that does not compile passes as a
// wildcard and a partner or tag that does not evaluate skips its site, so
// an extraction that renders one would weaken conformance without a word.
func checkExprs(sk *commspec.Skeleton) error {
	for _, k := range sk.Kernels {
		check := func(pos string, srcs ...string) error {
			for _, src := range srcs {
				if src == "" { // an empty guard is unconditional
					continue
				}
				if _, err := commspec.Compile(src); err != nil {
					return fmt.Errorf("kernel %s site %s: expression %q does not compile: %w", k.Name, pos, src, err)
				}
			}
			return nil
		}
		for _, c := range k.Collectives {
			if err := check(c.Pos, c.Guard); err != nil {
				return err
			}
		}
		for _, p := range k.P2P {
			if err := check(p.Pos, p.Guard, p.Partner, p.Tag); err != nil {
				return err
			}
		}
	}
	return nil
}

// kernelName derives the replay name: the lowercased receiver type
// ("FT" → "ft"), or the lowercased function name for plain functions.
func kernelName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			return strings.ToLower(named.Obj().Name())
		}
	}
	return strings.ToLower(fn.Name())
}

// skelWalker accumulates one kernel's sites during tree traversal.
type skelWalker struct {
	prog    *Program
	root    string
	kernel  *commspec.Kernel
	phases  map[string]bool
	collSet map[string]bool
	p2pSet  map[string]bool
}

func extractKernel(root string, prog *Program, info *FuncInfo) *commspec.Kernel {
	w := &skelWalker{
		prog:    prog,
		root:    root,
		kernel:  &commspec.Kernel{Phases: []string{}},
		phases:  map[string]bool{},
		collSet: map[string]bool{},
		p2pSet:  map[string]bool{},
	}
	w.walk(prog.commTree(info), "main", "", 0, map[*types.Func]bool{})
	return w.kernel
}

func (w *skelWalker) pos(p token.Pos) string {
	position := w.prog.fset.Position(p)
	file := position.Filename
	if rel, err := filepath.Rel(w.root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	return fmt.Sprintf("%s:%d", file, position.Line)
}

func (w *skelWalker) addPhase(name string) {
	if !w.phases[name] {
		w.phases[name] = true
		w.kernel.Phases = append(w.kernel.Phases, name)
	}
}

func (w *skelWalker) addColl(c commspec.Collective) {
	key := c.Op + "\x00" + c.Phase + "\x00" + c.Guard + "\x00" + c.Pos
	if !w.collSet[key] {
		w.collSet[key] = true
		w.kernel.Collectives = append(w.kernel.Collectives, c)
	}
}

func (w *skelWalker) addP2P(p commspec.P2P) {
	key := p.Dir + "\x00" + p.Partner + "\x00" + p.Tag + "\x00" + p.Phase + "\x00" + p.Guard + "\x00" + p.Pos
	if !w.p2pSet[key] {
		w.p2pSet[key] = true
		w.kernel.P2P = append(w.kernel.P2P, p)
	}
}

// conj extends a guard conjunction; any unknown conjunct poisons the whole
// guard to the wildcard.
func conj(guard, cond string) string {
	if guard == commspec.Unknown || cond == commspec.Unknown {
		return commspec.Unknown
	}
	if guard == "" {
		return cond
	}
	return "(" + guard + "&&" + cond + ")"
}

// walk traverses one tree, returning the exit phase ("?" when ambiguous).
func (w *skelWalker) walk(nodes []*opNode, phase, guard string, depth int, busy map[*types.Func]bool) string {
	for _, n := range nodes {
		switch n.kind {
		case opPhase:
			if n.phaseConst {
				phase = n.phaseName
			} else {
				phase = commspec.Unknown
			}
			w.addPhase(phase)
		case opColl:
			w.addColl(commspec.Collective{Op: n.opName, Phase: phase, Guard: guard, Pos: w.pos(n.pos)})
		case opP2P:
			p := w.pos(n.pos)
			switch n.comm {
			case commSend:
				w.addP2P(commspec.P2P{Dir: "send", Partner: n.partner, Tag: n.tag, Phase: phase, Guard: guard, Pos: p})
			case commRecv:
				w.addP2P(commspec.P2P{Dir: "recv", Partner: n.partner, Tag: n.tag, Phase: phase, Guard: guard, Pos: p})
			case commSendRecv:
				w.addP2P(commspec.P2P{Dir: "send", Partner: n.partner, Tag: n.tag, Phase: phase, Guard: guard, Pos: p})
				w.addP2P(commspec.P2P{Dir: "recv", Partner: n.partner2, Tag: n.tag, Phase: phase, Guard: guard, Pos: p})
			}
		case opBranch:
			thenGuard := conj(guard, n.condStr)
			elsGuard := guard
			if n.condStr == commspec.Unknown {
				elsGuard = commspec.Unknown
			} else if n.els != nil {
				elsGuard = conj(guard, "(!"+n.condStr+")")
			}
			thenPhase := w.walk(n.then, phase, thenGuard, depth, busy)
			elsPhase := w.walk(n.els, phase, elsGuard, depth, busy)
			if thenPhase == elsPhase {
				phase = thenPhase
			} else {
				phase = commspec.Unknown
				w.addPhase(phase)
			}
		case opLoop:
			exit := w.walk(n.body, phase, guard, depth, busy)
			if exit != phase {
				phase = commspec.Unknown
				w.addPhase(phase)
			}
		case opClosure:
			// Def-site approximation: the closure runs under some caller-
			// determined phase and condition.
			w.walk(n.body, commspec.Unknown, commspec.Unknown, depth, busy)
		case opCall:
			phase = w.walkCallee(n.callee, phase, guard, depth, busy)
		case opReturn:
			return phase
		}
	}
	return phase
}

// walkCallee descends into a module-internal callee's tree; recursion or
// excessive depth degrades to wildcard predictions from the fact table so
// the skeleton stays an over-approximation.
func (w *skelWalker) walkCallee(fn *types.Func, phase, guard string, depth int, busy map[*types.Func]bool) string {
	info := w.prog.funcOf(fn)
	if info == nil || isMPIRuntimePkg(info.Pkg) {
		return phase
	}
	if depth > 8 || busy[fn] {
		fact := w.prog.commFactOf(fn)
		for _, c := range fact.colls {
			w.addColl(commspec.Collective{Op: c.name, Phase: commspec.Unknown, Guard: commspec.Unknown, Pos: w.pos(c.pos)})
		}
		if len(fact.phases) > 0 {
			w.addPhase(commspec.Unknown)
			phase = commspec.Unknown
		}
		if fact.hasP2P {
			pos := w.pos(info.Decl.Pos())
			w.addP2P(commspec.P2P{Dir: "send", Partner: commspec.Unknown, Tag: commspec.Unknown, Phase: commspec.Unknown, Guard: commspec.Unknown, Pos: pos})
			w.addP2P(commspec.P2P{Dir: "recv", Partner: commspec.Unknown, Tag: commspec.Unknown, Phase: commspec.Unknown, Guard: commspec.Unknown, Pos: pos})
		}
		return phase
	}
	busy[fn] = true
	defer delete(busy, fn)
	return w.walk(w.prog.commTree(info), phase, guard, depth+1, busy)
}
