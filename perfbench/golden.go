package main

import (
	"bufio"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// The golden files hold every output the benchmark checks, recorded at a
// commit whose outputs are known good: one "key<TAB>value" line per
// output. The simulator is deterministic, so any difference is a wrong
// output, and the operation that produced it counts as failed.
//
//go:embed golden/*.tsv
var goldenFS embed.FS

// recordDir, when set (-record), makes the checks record what they see
// into <recordDir>/<workload>.tsv instead of comparing.
var recordDir string

// goldenSet is one workload's recorded outputs.
type goldenSet struct {
	name string
	mu   sync.Mutex
	want map[string]string
	seen map[string]string
}

func loadGolden(workload string) (*goldenSet, error) {
	g := &goldenSet{name: workload, want: map[string]string{}, seen: map[string]string{}}
	if recordDir != "" {
		return g, nil
	}
	f, err := goldenFS.Open("golden/" + workload + ".tsv")
	if err != nil {
		return nil, fmt.Errorf("no recorded outputs for %s: %w", workload, err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			return nil, fmt.Errorf("golden/%s.tsv: malformed line %q", workload, sc.Text())
		}
		g.want[key] = val
	}
	return g, sc.Err()
}

// check compares one output with its recorded value.
func (g *goldenSet) check(key, got string) error {
	if recordDir != "" {
		g.mu.Lock()
		g.seen[key] = got
		g.mu.Unlock()
		return nil
	}
	want, ok := g.want[key]
	if !ok {
		return fmt.Errorf("%s: no recorded output", key)
	}
	if got != want {
		return fmt.Errorf("%s: output %s differs from the recorded %s", key, got, want)
	}
	return nil
}

// checkBytes compares the SHA-256 digest of an output.
func (g *goldenSet) checkBytes(key string, data []byte) error {
	return g.check(key, digest(data))
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// save writes the recorded outputs in -record mode.
func (g *goldenSet) save() error {
	if recordDir == "" {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	keys := make([]string, 0, len(g.seen))
	for k := range g.seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s\t%s\n", k, g.seen[k])
	}
	return os.WriteFile(filepath.Join(recordDir, g.name+".tsv"), []byte(b.String()), 0o644)
}
