package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"pasp/internal/cluster"
	"pasp/internal/experiments"
	"pasp/internal/obs"
)

// updateGolden regenerates testdata/contract when PASP_UPDATE_GOLDEN is
// set: go test ./internal/serve -run TestPredictContractGolden -count=1
// with PASP_UPDATE_GOLDEN=1 in the environment.
var updateGolden = os.Getenv("PASP_UPDATE_GOLDEN") != ""

// contractNs are the processor counts the contract covers; kernels whose
// grid stops earlier (LU ends at 8) simply contribute fewer rows.
var contractNs = []int{2, 4, 8, 16}

// contractGears are the two frequency gears of the contract.
var contractGears = []float64{600, 1400}

// TestPredictContractGolden pins the full response contract: for every
// kernel, every contract (N, f) on its grid, the POST /predict body must
// be byte-identical to the committed golden.
func TestPredictContractGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale campaigns skipped in -short mode")
	}
	// The subtest is named for the event engine, the rank runtime that
	// computes every response.
	t.Run("event", func(t *testing.T) {
		s := experiments.Paper()
		srv := New(Config{Suite: s, SuiteName: "paper", MaxInFlight: 2, Registry: obs.NewRegistry()})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		for _, name := range s.KernelNames() {
			k, err := s.Kernel(name)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			for _, n := range contractNs {
				for _, f := range contractGears {
					if !k.Grid.Has(n, f) {
						continue
					}
					body := fmt.Sprintf(`{"kernel":%q,"n":%d,"f":%g}`, name, n, f)
					resp, err := http.Post(ts.URL+"/predict", "application/json", strings.NewReader(body))
					if err != nil {
						t.Fatal(err)
					}
					data := make([]byte, 0, 512)
					data, rerr := appendBody(data, resp)
					if rerr != nil {
						t.Fatal(rerr)
					}
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("%s n=%d f=%g: status %d (%s)", name, n, f, resp.StatusCode, data)
					}
					fmt.Fprintf(&buf, "predict %s n=%d f=%g\n", name, n, f)
					buf.Write(data)
				}
			}
			golden := filepath.Join("testdata", "contract", name+".golden")
			if updateGolden {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (regenerate with PASP_UPDATE_GOLDEN=1): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s contract drifted from %s\ngot:\n%swant:\n%s", name, golden, buf.Bytes(), want)
			}
		}
	})
}

// appendBody drains resp into dst and closes it.
func appendBody(dst []byte, resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	buf := bytes.NewBuffer(dst)
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// TestPredictBytesStableAcrossGOMAXPROCS sweeps the same campaign at
// GOMAXPROCS 1, 2 and 8 — exercising one, some and many sweep workers —
// and requires the rendered prediction bytes to be identical, then checks
// the served HTTP body (whose campaign the store measured at whatever
// parallelism the process had) says exactly the same thing. This is the
// end-to-end form of the sweep-determinism guarantee: worker scheduling
// must never reach the response.
func TestPredictBytesStableAcrossGOMAXPROCS(t *testing.T) {
	s := experiments.Quick()
	srv := New(Config{Suite: s, Registry: obs.NewRegistry()})
	k, err := s.Kernel("ft")
	if err != nil {
		t.Fatal(err)
	}

	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	var want []byte
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		cells, err := cluster.Sweep(context.Background(), s.Platform, k.Grid, k.Run)
		if err != nil {
			t.Fatal(err)
		}
		camp := experiments.NewCampaign(cells)
		row, err := srv.predictRow(k, camp, 4, 1400)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = data
		} else if !bytes.Equal(data, want) {
			t.Fatalf("GOMAXPROCS=%d renders\n%s\nbut GOMAXPROCS=1 rendered\n%s", procs, data, want)
		}
	}
	runtime.GOMAXPROCS(old)

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/predict", "application/json",
		strings.NewReader(`{"kernel":"ft","n":4,"f":1400}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err := appendBody(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("served predict: %d (%s)", resp.StatusCode, body)
	}
	if got := string(body); got != string(want)+"\n" {
		t.Fatalf("served body\n%sdiffers from the directly computed row\n%s", got, want)
	}
}
