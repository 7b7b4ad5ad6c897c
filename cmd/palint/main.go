// Command palint runs the repository's domain-aware static-analysis suite
// (package analysis): silent-failure checks for the power-aware speedup
// model's arithmetic (unguarded float division, exact float equality,
// dropped model-API errors), report determinism (map-ordered output), a
// cheap static race heuristic for goroutine literals, dimensional
// analysis over the typed units layer (cross-dimension conversions,
// unlike-dimension arithmetic, bare scale literals), and the v3
// interprocedural passes: nondeterminism-source tainting (detsource),
// freelist payload ownership (ownfree), mixed synchronization disciplines
// (atomicmix) and hot-path allocation budgets (hotalloc).
//
// Usage:
//
//	palint [-json] [-v] [-artifact file] [-only a,b] [-skeleton file]
//	       [-list] [-explain analyzer] [packages...]
//
// Packages follow the go tool's pattern shape ("./...", "./internal/core").
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
//
// -skeleton extracts the static communication skeleton (phases, collective
// sites, point-to-point endpoints in the rank algebra of internal/commspec)
// of the loaded packages instead of linting, writing canonical JSON for
// cmd/paverify to replay recorded traces against.
//
// Findings are silenced only inline, with
//
//	//palint:ignore <analyzer>[,<analyzer>] -- <reason>
//
// on the flagged line or the line above — the reason is mandatory.
// testdata and _test.go files are always excluded by the loader.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"pasp/internal/analysis"
)

func main() {
	var (
		jsonOut  = flag.Bool("json", false, "emit diagnostics as a JSON array")
		artifact = flag.String("artifact", "", "also write the full diagnostic set (suppressed included) as JSON to this file")
		only     = flag.String("only", "", "comma-separated analyzer subset to run")
		list     = flag.Bool("list", false, "list analyzers and exit")
		explain  = flag.String("explain", "", "print one analyzer's full rule and a representative example, then exit")
		verbose  = flag.Bool("v", false, "also show suppressed findings and their reasons")

		skeleton = flag.String("skeleton", "", "write the static communication skeleton as JSON to this file (\"-\" for stdout) and exit")
	)
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *explain != "" {
		if err := explainAnalyzer(*explain); err != nil {
			fmt.Fprintf(os.Stderr, "palint: %v\n", err)
			os.Exit(2)
		}
		return
	}

	analyzers := analysis.All()
	if *only != "" {
		var err error
		analyzers, err = analysis.ByName(strings.Split(*only, ","))
		if err != nil {
			fmt.Fprintf(os.Stderr, "palint: %v\n", err)
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "palint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := analysis.Load(root, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "palint: %v\n", err)
		os.Exit(2)
	}
	typeErrs := 0
	for _, p := range pkgs {
		for _, e := range p.TypeErrors {
			fmt.Fprintf(os.Stderr, "palint: type error: %v\n", e)
			typeErrs++
		}
	}
	if typeErrs > 0 {
		os.Exit(2)
	}

	if *skeleton != "" {
		if err := writeSkeleton(*skeleton, root, pkgs); err != nil {
			fmt.Fprintf(os.Stderr, "palint: %v\n", err)
			os.Exit(2)
		}
		return
	}

	diags := analysis.Run(pkgs, analyzers)
	active := analysis.Active(diags)

	if *artifact != "" {
		if err := writeArtifact(*artifact, diags); err != nil {
			fmt.Fprintf(os.Stderr, "palint: %v\n", err)
			os.Exit(2)
		}
	}

	if *jsonOut {
		shown := active
		if *verbose {
			shown = diags
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if shown == nil {
			shown = []analysis.Diagnostic{}
		}
		if err := enc.Encode(shown); err != nil {
			fmt.Fprintf(os.Stderr, "palint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			switch {
			case !d.Suppressed:
				fmt.Println(rel(root, d))
			case *verbose:
				fmt.Printf("%s [suppressed: %s]\n", rel(root, d), d.Reason)
			}
		}
	}
	if len(active) > 0 {
		fmt.Fprintf(os.Stderr, "palint: %d finding(s)\n", len(active))
		os.Exit(1)
	}
}

// explainAnalyzer prints the named analyzer's full rule statement and its
// representative example (lifted from the seeded testdata).
func explainAnalyzer(name string) error {
	analyzers, err := analysis.ByName([]string{name})
	if err != nil {
		return err
	}
	a := analyzers[0]
	fmt.Printf("%s — %s\n", a.Name, a.Doc)
	text := a.Explain
	if text == "" {
		text = a.Doc
	}
	fmt.Printf("\n%s\n", strings.TrimSpace(text))
	if a.Example != "" {
		fmt.Printf("\nExample:\n\n")
		for _, line := range strings.Split(strings.TrimRight(a.Example, "\n"), "\n") {
			fmt.Printf("\t%s\n", line)
		}
	}
	return nil
}

// writeArtifact writes the full diagnostic set — suppressed findings
// included, so the artifact records what was silenced and why — as
// indented JSON. CI uploads it per run.
func writeArtifact(file string, diags []analysis.Diagnostic) error {
	if diags == nil {
		diags = []analysis.Diagnostic{}
	}
	data, err := json.MarshalIndent(diags, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(file, append(data, '\n'), 0o644)
}

// writeSkeleton extracts the loaded packages' communication skeleton and
// writes its canonical JSON.
func writeSkeleton(file, root string, pkgs []*analysis.Package) error {
	module, err := analysis.ModulePath(root)
	if err != nil {
		return err
	}
	sk, err := analysis.BuildSkeleton(root, module, pkgs, analysis.NewProgram(pkgs))
	if err != nil {
		return err
	}
	data, err := sk.JSON()
	if err != nil {
		return err
	}
	if file == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(file, data, 0o644)
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// rel shortens the diagnostic's file to a module-relative path for display.
func rel(root string, d analysis.Diagnostic) string {
	if r, err := filepath.Rel(root, d.File); err == nil {
		d.File = r
	}
	return d.String()
}
