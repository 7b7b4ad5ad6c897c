package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"pasp/internal/mpi"
)

// isoefficiencyText renders the quick suite's CG isoefficiency study at
// N = 2, 4, 8 (two bisections) as its String text plus every figure at
// full precision, then the error of the N = 2, 4, 16 study, which CG
// refuses at N = 16.
func isoefficiencyText(t *testing.T) string {
	t.Helper()
	s := Quick()
	res, err := s.IsoefficiencyCG([]int{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	out := res.String() + fmt.Sprintf("target %.17g\n", res.Target)
	for i, n := range res.Ns {
		out += fmt.Sprintf("N=%d multiplier %.17g\n", n, res.Multiplier[i])
	}
	if _, err := s.IsoefficiencyCG([]int{2, 4, 16}); err == nil {
		t.Fatal("IsoefficiencyCG(2, 4, 16) succeeded on the quick suite")
	} else {
		out += "ns=2,4,16 error: " + err.Error() + "\n"
	}
	return out
}

// TestIsoefficiencyGolden pins the isoefficiency study's text and its error
// against testdata/isoefficiency.golden at one, two and eight CPUs. The file
// was written while every search still ran one CG cell at a time, so it is
// an oracle independent of how the searches are scheduled. It is rewritten
// under -update.
func TestIsoefficiencyGolden(t *testing.T) {
	path := filepath.Join("testdata", "isoefficiency.golden")
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			runtime.GOMAXPROCS(procs)
			got := isoefficiencyText(t)
			if *update && procs == 1 {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if got != string(want) {
				t.Errorf("isoefficiency drifted from %s:\n got\n%s want\n%s", path, got, want)
			}
		})
	}
}

// TestIsoefficiencyRunsEachCellOnce counts the CG runs of a study whose
// searches overlap: however many searches ask for one multiplier's
// sequential reference at once, it runs once, and no (multiplier, N) cell
// runs twice.
func TestIsoefficiencyRunsEachCellOnce(t *testing.T) {
	s := Quick()
	type cell struct {
		mult float64
		n    int
	}
	var mu sync.Mutex
	runs := map[cell]int{}
	_, err := s.Isoefficiency("CG", []int{2, 4, 8}, func(mult float64) func(mpi.World) (*mpi.Result, error) {
		cg := s.CG
		cg.Scale *= mult
		return func(w mpi.World) (*mpi.Result, error) {
			mu.Lock()
			runs[cell{mult, w.N}]++
			mu.Unlock()
			_, r, err := cg.Run(w)
			return r, err
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	seq := 0
	for c, k := range runs {
		if k != 1 {
			t.Errorf("multiplier %g at N=%d ran %d times, want 1", c.mult, c.n, k)
		}
		if c.n == 1 {
			seq++
		}
	}
	if seq < 3 || len(runs) <= seq {
		t.Errorf("%d cells, %d sequential: the searches did not run", len(runs), seq)
	}
}
