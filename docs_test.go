package pasp

import (
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citingDocs are the documents whose citations of tests and files must
// resolve. ROADMAP.md is left out: it names tests not yet written.
var citingDocs = []string{
	"DESIGN.md",
	"README.md",
	"EXPERIMENTS.md",
	"perfbench/README.md",
	".claude/skills/verify/SKILL.md",
}

var (
	codeSpan    = regexp.MustCompile("(?s)```.*?```|`[^`]+`")
	wrappedName = regexp.MustCompile(`(\w)\n\s*([A-Z0-9_])`)
	citedName   = regexp.MustCompile(`\b(Test|Benchmark|Fuzz|Example)[A-Z0-9_]\w*`)
	citedPath   = regexp.MustCompile(`[\w./*-]+\.(go|golden)\b`)
	testFunc    = regexp.MustCompile(`(?m)^func ((Test|Benchmark|Fuzz|Example)\w*)\(`)
	inventory   = regexp.MustCompile("(?m)^\\| `([^`]+)` \\|")
)

// TestDocsCiteExistingCode: every test, benchmark, fuzz target and example
// a document names in backticks exists, and so does every .go and .golden
// path it cites. A name wrapped across a line inside one code span is
// joined first; a benchmark name may be a prefix, as a -bench pattern is.
func TestDocsCiteExistingCode(t *testing.T) {
	var files []string
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		p = filepath.ToSlash(p)
		files = append(files, p)
		if strings.HasSuffix(p, "_test.go") && !strings.Contains(p, "testdata/") {
			src, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			for _, m := range testFunc.FindAllSubmatch(src, -1) {
				funcs[string(m[1])] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range citingDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpan.FindAllString(string(src), -1) {
			span = wrappedName.ReplaceAllString(span, "$1$2")
			for _, name := range citedName.FindAllString(span, -1) {
				if !funcs[name] && !(strings.HasPrefix(name, "Benchmark") && hasPrefixed(funcs, name)) {
					t.Errorf("%s cites %s, which no test file declares", doc, name)
				}
			}
			for _, p := range citedPath.FindAllString(span, -1) {
				if base := path.Base(p); strings.HasPrefix(base, "_") || strings.HasPrefix(base, ".") {
					continue // a suffix convention such as _test.go, not a file
				}
				if !anyFileMatches(files, p) {
					t.Errorf("%s cites %s, which matches no file in the tree", doc, p)
				}
			}
		}
	}
}

// TestInventoryNamesEveryPackage: DESIGN §3's inventory has a row for
// every directory under internal/, cmd/ and examples/, and every row names
// one that exists.
func TestInventoryNamesEveryPackage(t *testing.T) {
	src, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(src), "\n## 3. System inventory\n")
	if !ok {
		t.Fatal("DESIGN.md has no section 3. System inventory")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := map[string]bool{}
	for _, m := range inventory.FindAllStringSubmatch(section, -1) {
		rows[m[1]] = true
		if info, err := os.Stat(m[1]); err != nil || !info.IsDir() {
			t.Errorf("DESIGN §3 has a row for %s, which is not a directory", m[1])
		}
	}
	for _, parent := range []string{"internal", "cmd", "examples"} {
		entries, err := os.ReadDir(parent)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if dir := parent + "/" + e.Name(); e.IsDir() && !rows[dir] {
				t.Errorf("DESIGN §3 has no row for %s", dir)
			}
		}
	}
}

// hasPrefixed reports whether some declared name extends prefix.
func hasPrefixed(funcs map[string]bool, prefix string) bool {
	for name := range funcs {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// anyFileMatches reports whether some file's trailing path segments match
// the cited path, which may hold glob metacharacters.
func anyFileMatches(files []string, cited string) bool {
	k := strings.Count(cited, "/") + 1
	for _, f := range files {
		segs := strings.Split(f, "/")
		if len(segs) < k {
			continue
		}
		if ok, _ := path.Match(cited, strings.Join(segs[len(segs)-k:], "/")); ok {
			return true
		}
	}
	return false
}
