package analysis

import (
	"flag"
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update regenerates the golden files from current analyzer output:
//
//	go test ./internal/analysis -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

// repoRoot locates the module root from this package's directory.
func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Dir(filepath.Dir(wd)) // internal/analysis → module root
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("no go.mod at %s: %v", root, err)
	}
	return root
}

// runOn loads the testdata package named after an analyzer and runs the
// analyzer over it.
func runOn(t *testing.T, a *Analyzer) []Diagnostic {
	t.Helper()
	return runOnPkg(t, a, a.Name)
}

// runOnPkg loads testdata/src/<pkg> and runs one analyzer over it.
func runOnPkg(t *testing.T, a *Analyzer, pkg string) []Diagnostic {
	t.Helper()
	root := repoRoot(t)
	rel := "internal/analysis/testdata/src/" + pkg
	pkgs, err := Load(root, []string{rel})
	if err != nil {
		t.Fatalf("Load(%s): %v", rel, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("Load(%s) = %d packages, want 1", rel, len(pkgs))
	}
	for _, e := range pkgs[0].TypeErrors {
		t.Errorf("testdata type error: %v", e)
	}
	return Run(pkgs, []*Analyzer{a})
}

// formatDiags renders diagnostics with basenames so goldens are
// location-independent.
func formatDiags(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		line := fmt.Sprintf("%s:%d:%d: %s: %s", filepath.Base(d.File), d.Line, d.Col, d.Analyzer, d.Message)
		if d.Suppressed {
			line += fmt.Sprintf(" [suppressed: %s]", d.Reason)
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// fixture is one seeded testdata package and the analyzer run over it.
type fixture struct {
	pkg string // testdata/src/<pkg>, testdata/<pkg>.golden and the subtest name
	a   *Analyzer
}

// fixtures lists each analyzer's own package, plus maporder, which seeds
// detsource's map-iteration-output rule (a pass of its own before it was
// folded into detsource), and ownfreempi, which seeds ownfree's rules on
// the mpi stub's producers.
func fixtures() []fixture {
	var fs []fixture
	for _, a := range All() {
		fs = append(fs, fixture{a.Name, a})
	}
	return append(fs, fixture{"maporder", DetSource}, fixture{"ownfreempi", OwnFree})
}

// TestGolden proves each analyzer detects its seeded violations (≥ 2 per
// fixture by construction — the goldens hold 3 or more each) and stays
// quiet on the adjacent non-violations.
func TestGolden(t *testing.T) {
	for _, f := range fixtures() {
		t.Run(f.pkg, func(t *testing.T) {
			got := formatDiags(runOnPkg(t, f.a, f.pkg))
			golden := filepath.Join(repoRoot(t), "internal/analysis/testdata", f.pkg+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantBytes, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if want := string(wantBytes); got != want {
				t.Errorf("diagnostics differ from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// TestSeededViolationCounts is the acceptance criterion in machine-checkable
// form: every analyzer fires at least twice on each of its seeded packages.
func TestSeededViolationCounts(t *testing.T) {
	for _, f := range fixtures() {
		t.Run(f.pkg, func(t *testing.T) {
			active := Active(runOnPkg(t, f.a, f.pkg))
			if len(active) < 2 {
				t.Errorf("%s on %s: %d active findings on seeded testdata, want ≥ 2:\n%s",
					f.a.Name, f.pkg, len(active), formatDiags(active))
			}
		})
	}
}

// TestSuppression checks the inline directive: the floateq testdata has one
// suppressed comparison that must be reported as suppressed, not active.
func TestSuppression(t *testing.T) {
	diags := runOn(t, FloatEq)
	var suppressed []Diagnostic
	for _, d := range diags {
		if d.Suppressed {
			suppressed = append(suppressed, d)
		}
	}
	if len(suppressed) != 1 {
		t.Fatalf("want exactly 1 suppressed finding, got %d:\n%s", len(suppressed), formatDiags(diags))
	}
	if want := "operands are bit-copied sentinels, not arithmetic results"; suppressed[0].Reason != want {
		t.Errorf("suppression reason = %q, want %q", suppressed[0].Reason, want)
	}
}

func TestParseSuppression(t *testing.T) {
	cases := []struct {
		text   string
		ok     bool
		reason string
		hits   []string
		misses []string
	}{
		{"palint:ignore floateq -- exact sentinel compare", true, "exact sentinel compare", []string{"floateq"}, []string{"floatdiv"}},
		{"palint:ignore floateq,floatdiv -- shared invariant", true, "shared invariant", []string{"floateq", "floatdiv"}, []string{"unitcheck"}},
		{"palint:ignore all -- legacy file", true, "legacy file", []string{"floateq", "nakedgo"}, nil},
		{"palint:ignore floateq", false, "", nil, nil},                        // reason is mandatory
		{"palint:ignore floateq --", false, "", nil, nil},                     // separator without reason
		{"palint:ignore floateq exact sentinel compare", false, "", nil, nil}, // pre-v3 format: no -- separator
		{"just a comment", false, "", nil, nil},
		{"palint:ignore", false, "", nil, nil},
	}
	for _, c := range cases {
		s, ok := parseSuppression(c.text)
		if ok != c.ok {
			t.Errorf("parseSuppression(%q) ok = %v, want %v", c.text, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if s.reason != c.reason {
			t.Errorf("parseSuppression(%q) reason = %q, want %q", c.text, s.reason, c.reason)
		}
		for _, name := range c.hits {
			if !s.matches(name) {
				t.Errorf("parseSuppression(%q) should match %s", c.text, name)
			}
		}
		for _, name := range c.misses {
			if s.matches(name) {
				t.Errorf("parseSuppression(%q) should not match %s", c.text, name)
			}
		}
	}
}

func TestByName(t *testing.T) {
	got, err := ByName([]string{"floatdiv", "nakedgo"})
	if err != nil || len(got) != 2 || got[0].Name != "floatdiv" || got[1].Name != "nakedgo" {
		t.Errorf("ByName = %v, %v", got, err)
	}
	if _, err := ByName([]string{"nosuch"}); err == nil {
		t.Error("ByName(nosuch) should fail")
	}
}

// TestRunOrdering pins Run's determinism contract across packages and
// analyzers: diagnostics come back sorted by file, then line, then column,
// then analyzer name, regardless of package load order or analyzer
// interleaving. Report stability is what makes palint output diffable.
func TestRunOrdering(t *testing.T) {
	root := repoRoot(t)
	pkgs, err := Load(root, []string{
		"internal/analysis/testdata/src/unitcheck",
		"internal/analysis/testdata/src/floateq",
		"internal/analysis/testdata/src/floatdiv",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 3 {
		t.Fatalf("loaded %d packages, want 3", len(pkgs))
	}
	diags := Run(pkgs, []*Analyzer{UnitCheck, FloatEq, FloatDiv})
	files := map[string]bool{}
	for _, d := range diags {
		files[filepath.Base(d.File)] = true
	}
	if len(files) < 2 {
		t.Fatalf("want findings from several files to exercise ordering, got %v", files)
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		after := a.File > b.File ||
			(a.File == b.File && a.Line > b.Line) ||
			(a.File == b.File && a.Line == b.Line && a.Col > b.Col) ||
			(a.File == b.File && a.Line == b.Line && a.Col == b.Col && a.Analyzer > b.Analyzer)
		if after {
			t.Errorf("diagnostics out of order at %d:\n  %s\n  %s", i, a, b)
		}
	}
}

// TestRepoClean runs the full suite over the repository itself: the tree
// must stay lint-clean (the same property `make lint` enforces).
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide type-check is slow; run without -short")
	}
	root := repoRoot(t)
	pkgs, err := Load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		for _, e := range p.TypeErrors {
			t.Errorf("%s: type error: %v", p.Path, e)
		}
	}
	active := Active(Run(pkgs, All()))
	for _, d := range active {
		t.Errorf("%s", d)
	}
}

// TestMPIVocabularyMatchesRuntime: palint names mpi calls by method name,
// so every name ownfree's producerMethods classifies, and every method of
// the testdata stub the ownfreempi fixture calls through, must be a method
// of the real runtime's *mpi.Ctx. An entry that outlives the call it names
// fails here.
func TestMPIVocabularyMatchesRuntime(t *testing.T) {
	const runtimePath, stubPath = "pasp/internal/mpi", "pasp/internal/analysis/testdata/src/mpistub"
	pkgs, err := Load(repoRoot(t), []string{"internal/mpi", "internal/analysis/testdata/src/mpistub"})
	if err != nil {
		t.Fatal(err)
	}
	methods := map[string]map[string]bool{}
	for _, p := range pkgs {
		for _, e := range p.TypeErrors {
			t.Errorf("%s: type error: %v", p.Path, e)
		}
		ctx, ok := p.Types.Scope().Lookup("Ctx").(*types.TypeName)
		if !ok {
			t.Fatalf("%s declares no Ctx type", p.Path)
		}
		names := map[string]bool{}
		ms := types.NewMethodSet(types.NewPointer(ctx.Type()))
		for i := 0; i < ms.Len(); i++ {
			if m := ms.At(i).Obj(); m.Exported() {
				names[m.Name()] = true
			}
		}
		methods[p.Path] = names
	}
	runtime, stub := methods[runtimePath], methods[stubPath]
	if len(runtime) == 0 || len(stub) == 0 {
		t.Fatalf("no exported Ctx methods loaded for %s or %s", runtimePath, stubPath)
	}
	for name := range producerMethods {
		if !runtime[name] {
			t.Errorf("producerMethods names %s, which *mpi.Ctx does not have", name)
		}
	}
	for name := range stub {
		if !runtime[name] {
			t.Errorf("the mpistub Ctx has %s, which *mpi.Ctx does not have", name)
		}
	}
}

// BenchmarkPalintTree measures the full suite over the repository, the
// configuration `make lint` runs. Loading is excluded: the benchmark
// isolates analysis cost.
func BenchmarkPalintTree(b *testing.B) {
	wd, err := Load("../..", []string{"./..."})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if diags := Run(wd, All()); len(Active(diags)) != 0 {
			b.Fatalf("tree not clean: %d active findings", len(Active(diags)))
		}
	}
}
