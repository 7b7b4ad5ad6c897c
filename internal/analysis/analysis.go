// Package analysis is a self-contained, stdlib-only static-analysis
// framework specialized for this repository's failure modes. The model core
// (package core) is pure floating-point arithmetic over frequency ratios,
// DOP classes and overhead terms: its bugs are silent — an unguarded
// division producing ±Inf, a NaN propagating into a speedup table, a
// dropped error from Time/Speedup, a report whose row order depends on map
// iteration — rather than crashes. The analyzers here make those classes of
// bug mechanically unmergeable.
//
// The framework deliberately depends only on go/ast, go/parser and
// go/types (go.mod has zero dependencies and builds must work offline), so
// it reimplements the small slice of golang.org/x/tools/go/analysis it
// needs: a Pass carrying a type-checked package, analyzers that report
// position-tagged diagnostics, and inline //palint:ignore suppressions.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check.
type Analyzer struct {
	// Name is the identifier used in reports and suppression comments.
	Name string
	// Doc is a one-line description shown by `palint -list`.
	Doc string
	// Explain is the full rule statement shown by `palint -explain <name>`;
	// empty falls back to Doc.
	Explain string
	// Example is a representative violation, lifted from the analyzer's
	// seeded testdata, shown by `palint -explain <name>`.
	Example string
	// Run executes the check against one package, reporting through pass.
	Run func(pass *Pass)
}

// All returns every analyzer in the suite, in stable (alphabetical) order.
func All() []*Analyzer {
	return []*Analyzer{
		AtomicMix,
		CommShape,
		Deadlock,
		DetSource,
		DroppedErr,
		FloatDiv,
		FloatEq,
		HotAlloc,
		NakedGo,
		OwnFree,
		PhaseBal,
		UnitCheck,
	}
}

// ByName returns the named analyzers, or an error naming the first unknown.
func ByName(names []string) ([]*Analyzer, error) {
	index := map[string]*Analyzer{}
	for _, a := range All() {
		index[a.Name] = a
	}
	out := make([]*Analyzer, 0, len(names))
	for _, n := range names {
		a, ok := index[strings.TrimSpace(n)]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Analyzer is the reporting check's name.
	Analyzer string `json:"analyzer"`
	// File is the path of the offending file as loaded.
	File string `json:"file"`
	// Line and Col are 1-based.
	Line int `json:"line"`
	Col  int `json:"col"`
	// Message explains the finding.
	Message string `json:"message"`
	// Suppressed is true when an inline //palint:ignore comment covers the
	// finding; Reason carries the comment's justification.
	Suppressed bool   `json:"suppressed,omitempty"`
	Reason     string `json:"reason,omitempty"`
}

// Pos renders the canonical file:line:col prefix.
func (d Diagnostic) Pos() string {
	return fmt.Sprintf("%s:%d:%d", d.File, d.Line, d.Col)
}

// String renders the finding in grep-friendly form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos(), d.Analyzer, d.Message)
}

// Pass is the per-(analyzer, package) run context handed to Analyzer.Run.
type Pass struct {
	// Analyzer is the running check.
	Analyzer *Analyzer
	// Pkg is the loaded package under analysis.
	Pkg *Package
	// Prog is the whole-program view (call graph plus memoized
	// interprocedural facts) shared by every pass of one Run call.
	Prog *Program

	diags *[]Diagnostic
}

// Fset returns the file set positions resolve against.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// TypeOf returns the type of an expression, or nil when type information is
// unavailable (e.g. a file that failed to type-check).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Pkg.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Pkg.Info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// IsFloat reports whether the expression has floating-point type.
func (p *Pass) IsFloat(e ast.Expr) bool {
	t := p.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// NewProgram builds the whole-program context (call graph plus memoized
// interprocedural fact tables) once, for callers that run several analyzer
// sets — or the skeleton emitter — over one load.
func NewProgram(pkgs []*Package) *Program {
	return newProgram(pkgs)
}

// Run executes the analyzers over the packages and returns every diagnostic
// — suppressed ones included, flagged as such — sorted by file, line,
// column, analyzer. Callers filter on Suppressed for the exit status.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return RunWithProgram(NewProgram(pkgs), pkgs, analyzers)
}

// RunWithProgram is Run against an existing Program, so one load and one
// fact computation serve every pass and the -skeleton emitter alike.
func RunWithProgram(prog *Program, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, Prog: prog, diags: &diags}
			a.Run(pass)
		}
	}
	index := buildSuppressionIndex(pkgs)
	for i := range diags {
		markSuppressed(&diags[i], index)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// Active filters to the diagnostics not silenced by a suppression.
func Active(diags []Diagnostic) []Diagnostic {
	out := make([]Diagnostic, 0, len(diags))
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}
