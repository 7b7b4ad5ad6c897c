package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"pasp/internal/analysis"
)

// palintBin is the binary TestMain builds once for every driver test.
var palintBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "palint-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	palintBin = filepath.Join(dir, "palint")
	cmd := exec.Command("go", "build", "-o", palintBin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runPalint executes the binary from the module root and returns combined
// stdout, stderr and the exit code.
func runPalint(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(palintBin, args...)
	cmd.Dir = filepath.Join("..", "..") // cmd/palint → module root
	var out, errb strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err := cmd.Run()
	code = 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("run palint %v: %v", args, err)
	}
	return out.String(), errb.String(), code
}

// seeded is a testdata package guaranteed to carry active findings.
const seeded = "internal/analysis/testdata/src/floateq"

func TestExitZeroOnCleanPackage(t *testing.T) {
	stdout, stderr, code := runPalint(t, "./internal/units")
	if code != 0 {
		t.Fatalf("exit %d on clean package, want 0\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if strings.TrimSpace(stdout) != "" {
		t.Errorf("clean run printed findings:\n%s", stdout)
	}
}

func TestExitOneOnFindings(t *testing.T) {
	stdout, stderr, code := runPalint(t, seeded)
	if code != 1 {
		t.Fatalf("exit %d on seeded violations, want 1\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "floateq") {
		t.Errorf("findings output missing analyzer name:\n%s", stdout)
	}
	if !strings.Contains(stderr, "finding(s)") {
		t.Errorf("stderr missing findings summary: %s", stderr)
	}
}

func TestExitTwoOnUsageErrors(t *testing.T) {
	if _, stderr, code := runPalint(t, "-only", "nosuch", "./internal/units"); code != 2 {
		t.Errorf("unknown analyzer: exit %d, want 2 (stderr: %s)", code, stderr)
	}
	if _, stderr, code := runPalint(t, "./no/such/dir"); code != 2 {
		t.Errorf("bad package pattern: exit %d, want 2 (stderr: %s)", code, stderr)
	}
	// Inline //palint:ignore comments are the only suppression: there is no
	// path-exclude or baseline flag. The baseline file exists and is valid,
	// so only the flag itself can be the usage error.
	base := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(base, []byte(`{"findings":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-exclude", "testdata", seeded},
		{"-baseline", base, seeded},
		{"-write-baseline", base, seeded},
	} {
		if _, stderr, code := runPalint(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", args, code, stderr)
		}
	}
}

func TestOnlyRestrictsAnalyzers(t *testing.T) {
	// The floatdiv testdata package seeds floatdiv violations; restricted
	// to floateq, the same package must come back clean.
	div := "internal/analysis/testdata/src/floatdiv"
	if _, _, code := runPalint(t, div); code != 1 {
		t.Fatalf("unrestricted run on %s: exit %d, want 1", div, code)
	}
	stdout, stderr, code := runPalint(t, "-only", "floateq", div)
	if code != 0 {
		t.Errorf("-only floateq on floatdiv seeds: exit %d, want 0\nstdout: %s\nstderr: %s",
			code, stdout, stderr)
	}
}

func TestListNamesEveryAnalyzer(t *testing.T) {
	stdout, _, code := runPalint(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit %d, want 0", code)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if want := len(analysis.All()); len(lines) != want {
		t.Errorf("-list printed %d analyzers, want %d:\n%s", len(lines), want, stdout)
	}
	for _, a := range analysis.All() {
		if !strings.Contains(stdout, a.Name) {
			t.Errorf("-list missing %s:\n%s", a.Name, stdout)
		}
	}
}

func TestJSONOutputShape(t *testing.T) {
	stdout, stderr, code := runPalint(t, "-json", seeded)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, stderr)
	}
	var diags []analysis.Diagnostic
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatalf("output is not a JSON diagnostic array: %v\n%s", err, stdout)
	}
	if len(diags) == 0 {
		t.Fatal("JSON output empty on seeded violations")
	}
	for _, d := range diags {
		if d.Analyzer == "" || d.File == "" || d.Line <= 0 || d.Col <= 0 || d.Message == "" {
			t.Errorf("incomplete diagnostic: %+v", d)
		}
		if d.Suppressed {
			t.Errorf("non-verbose JSON should omit suppressed findings: %+v", d)
		}
	}
}

func TestJSONEmptyArrayOnCleanRun(t *testing.T) {
	stdout, stderr, code := runPalint(t, "-json", "./internal/units")
	if code != 0 {
		t.Fatalf("exit %d, want 0 (stderr: %s)", code, stderr)
	}
	var diags []analysis.Diagnostic
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatalf("clean -json run must still emit a JSON array: %v\n%s", err, stdout)
	}
	if len(diags) != 0 {
		t.Errorf("clean run returned %d diagnostics", len(diags))
	}
}

// TestTreeClean is the acceptance gate for the interprocedural passes: the
// repository itself must carry zero active findings from the v3 passes
// (detsource, ownfree, atomicmix, hotalloc) and the communication passes
// (commshape, phasebal, deadlock) — every remaining hit is suppressed with
// a reason.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide type-check is slow; run without -short")
	}
	stdout, stderr, code := runPalint(t,
		"-only", "detsource,ownfree,atomicmix,hotalloc,commshape,phasebal,deadlock", "./...")
	if code != 0 {
		t.Errorf("interprocedural passes over ./...: exit %d, want 0\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
}

// TestExplainPrintsRuleAndExample pins the -explain UX: rule text plus a
// representative violation for every analyzer, and exit 2 on unknown names.
func TestExplainPrintsRuleAndExample(t *testing.T) {
	for _, a := range analysis.All() {
		stdout, stderr, code := runPalint(t, "-explain", a.Name)
		if code != 0 {
			t.Fatalf("-explain %s: exit %d (stderr: %s)", a.Name, code, stderr)
		}
		if !strings.Contains(stdout, a.Name) || !strings.Contains(stdout, a.Doc) {
			t.Errorf("-explain %s missing name or doc line:\n%s", a.Name, stdout)
		}
		if a.Example != "" && !strings.Contains(stdout, "Example:") {
			t.Errorf("-explain %s missing example block:\n%s", a.Name, stdout)
		}
	}
	if _, _, code := runPalint(t, "-explain", "nosuch"); code != 2 {
		t.Errorf("-explain nosuch: exit %d, want 2", code)
	}
}

// TestArtifactWritesFullSet checks -artifact records every diagnostic —
// suppressed ones included, with their reasons — regardless of the
// human-facing output mode.
func TestArtifactWritesFullSet(t *testing.T) {
	file := filepath.Join(t.TempDir(), "palint.json")
	stdout, stderr, code := runPalint(t, "-artifact", file, seeded)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("artifact not written: %v", err)
	}
	var diags []analysis.Diagnostic
	if err := json.Unmarshal(data, &diags); err != nil {
		t.Fatalf("artifact is not a JSON diagnostic array: %v\n%s", err, data)
	}
	suppressed := 0
	for _, d := range diags {
		if d.Suppressed {
			suppressed++
			if d.Reason == "" {
				t.Errorf("suppressed diagnostic without reason: %+v", d)
			}
		}
	}
	if suppressed == 0 {
		t.Errorf("artifact should include the seeded suppressed finding:\n%s", data)
	}
}

// TestSkeletonFlag pins the -skeleton mode: canonical JSON that re-parses,
// byte-identical across runs.
func TestSkeletonFlag(t *testing.T) {
	file := filepath.Join(t.TempDir(), "skeleton.json")
	stdout, stderr, code := runPalint(t, "-skeleton", file, "internal/analysis/testdata/src/skel")
	if code != 0 {
		t.Fatalf("-skeleton: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("skeleton not written: %v", err)
	}
	if !strings.Contains(string(data), "\"ft\"") {
		t.Errorf("skeleton missing the seeded kernel:\n%s", data)
	}
	stdoutDash, _, code := runPalint(t, "-skeleton", "-", "internal/analysis/testdata/src/skel")
	if code != 0 {
		t.Fatalf("-skeleton -: exit %d", code)
	}
	if stdoutDash != string(data) {
		t.Errorf("-skeleton output differs between file and stdout modes")
	}
}

// TestArtifactByteIdentical pins the artifact determinism the CI upload
// relies on: two runs over the same tree write identical bytes.
func TestArtifactByteIdentical(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	runPalint(t, "-artifact", a, seeded)
	runPalint(t, "-artifact", b, seeded)
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(da) != string(db) {
		t.Errorf("artifact bytes differ across runs:\n--- a ---\n%s--- b ---\n%s", da, db)
	}
}

// TestOutputDeterministicAcrossGOMAXPROCS pins the ordering contract at
// the binary level: byte-identical output whether the runtime uses one
// thread or many.
func TestOutputDeterministicAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the binary repeatedly; skip under -short")
	}
	run := func(procs string) string {
		cmd := exec.Command(palintBin, "-only", "detsource,ownfree,atomicmix,hotalloc,commshape,phasebal,deadlock",
			"internal/analysis/testdata/src/detsource",
			"internal/analysis/testdata/src/ownfree",
			"internal/analysis/testdata/src/atomicmix",
			"internal/analysis/testdata/src/hotalloc",
			"internal/analysis/testdata/src/commshape",
			"internal/analysis/testdata/src/phasebal",
			"internal/analysis/testdata/src/deadlock")
		cmd.Dir = filepath.Join("..", "..")
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+procs)
		var out strings.Builder
		cmd.Stdout = &out
		_ = cmd.Run() // seeded violations: exit 1 by design
		return out.String()
	}
	base := run("1")
	if strings.TrimSpace(base) == "" {
		t.Fatal("seeded packages produced no output")
	}
	for _, procs := range []string{"2", "8"} {
		if got := run(procs); got != base {
			t.Errorf("output differs between GOMAXPROCS=1 and GOMAXPROCS=%s:\n--- 1 ---\n%s--- %s ---\n%s",
				procs, base, procs, got)
		}
	}
}
