package experiments

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"pasp/internal/cluster"
)

// digest is the SHA-256 of an artifact's text, in hex.
func digest(text string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(text)))
}

// artifactLines renders every artifact on s as one line: its name, the
// digest of its text and every metric at full precision, or why it was
// skipped.
func artifactLines(t *testing.T, s Suite) []string {
	t.Helper()
	var lines []string
	for _, a := range Artifacts() {
		if why := a.Skip(s); why != "" {
			lines = append(lines, a.Name+" skipped: "+why)
			continue
		}
		r, err := a.Render(context.Background(), s)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		line := a.Name + " " + digest(r.Text)
		for _, m := range r.Metrics {
			line += fmt.Sprintf(" %s=%v", m.Unit, m.Value)
		}
		lines = append(lines, line)
	}
	return lines
}

// TestArtifactsGolden pins every artifact of the quick suite, its text and
// its metrics, against testdata/artifacts.golden, at one CPU and then two.
// The second pass reuses the campaigns the first one stored; the ablations,
// the DVFS comparisons and isoefficiency run again. The file was checked
// against the texts and metrics the reproduction benchmarks rendered by
// hand before they rendered from the list. It is rewritten under -update.
func TestArtifactsGolden(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			runtime.GOMAXPROCS(procs)
			checkGoldenLines(t, "artifacts.golden", artifactLines(t, Quick()), procs == 1,
				"# Quick-suite artifacts: <name> <sha256 of the text> <unit>=<metric>..., or <name> skipped: <why>.\n"+
					"# Regenerate: go test ./internal/experiments -run TestArtifactsGolden -update\n")
		})
	}
}

// TestArtifactsMatchReproPaperGolden renders the list at paper scale and
// requires each artifact that the repository benchmark's repro-paper
// golden records to match its digest, so the benchmark can render from the
// list without changing a byte. Table 2 and the sweet spot are not in that
// file.
func TestArtifactsMatchReproPaperGolden(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("paper-scale campaigns; skipped under -short and in race builds")
	}
	raw, err := os.ReadFile("../../perfbench/golden/repro-paper.tsv")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, l := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, d, _ := strings.Cut(l, "\t")
		want[name] = d
	}
	s := Paper()
	for _, a := range Artifacts() {
		d, ok := want[a.Name]
		if !ok {
			continue
		}
		delete(want, a.Name)
		r, err := a.Render(context.Background(), s)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if got := digest(r.Text); got != d {
			t.Errorf("%s renders digest %s, repro-paper.tsv records %s:\n%s", a.Name, got, d, r.Text)
		}
	}
	for name := range want {
		t.Errorf("repro-paper.tsv records %s, which the list lacks", name)
	}
}

// TestContentionAblationMechanism shows on the quick FT class what the
// quick grid's `ablation-contention` line cannot: at N = 4 the fabric's
// flow-concurrency limit does not bind, so the contended and ideal-switch
// speedups are equal, while at N = 16 FT's alltoall crosses it and the
// limit cuts the speedup (about 2.19 against 3.39 at 600 MHz).
func TestContentionAblationMechanism(t *testing.T) {
	s := Quick()
	ideal := s.Platform
	ideal.Net.FlowConcurrency = 0
	// speedups is FT's speedup from N = 1 to n at 600 MHz, contended and on
	// the ideal switch.
	speedups := func(n int) (limited, unlimited float64) {
		t.Helper()
		var v [2]float64
		for i, p := range []cluster.Platform{s.Platform, ideal} {
			cells, err := cluster.Sweep(context.Background(), p, cluster.Grid{Ns: []int{1, n}, MHz: []float64{600}}, s.RunFT)
			if err != nil {
				t.Fatal(err)
			}
			v[i] = cells[0].Res.Seconds / cells[1].Res.Seconds
		}
		return v[0], v[1]
	}
	limited, unlimited := speedups(4)
	//palint:ignore floateq -- the limit not binding means the two runs are the same simulation
	if limited != unlimited {
		t.Errorf("N=4: contended speedup %.17g differs from ideal %.17g, but the flow limit should not bind", limited, unlimited)
	}
	limited, unlimited = speedups(16)
	t.Logf("N=16: speedup %.4f contended, %.4f on an ideal switch", limited, unlimited)
	if limited > 0.8*unlimited {
		t.Errorf("N=16: contended speedup %.4f is not well below the ideal switch's %.4f", limited, unlimited)
	}
}
