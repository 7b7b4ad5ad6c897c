package mpptest

import (
	"testing"

	"pasp/internal/machine"
	"pasp/internal/mpi"
	"pasp/internal/power"
	"pasp/internal/simnet"
	"pasp/internal/stats"
	"pasp/internal/units"
)

func world(n int, mhz float64) mpi.World {
	prof := power.PentiumM()
	st, err := prof.StateAt(units.MHz(mhz))
	if err != nil {
		panic(err)
	}
	return mpi.World{N: n, Net: simnet.FastEthernet(), Mach: machine.PentiumM(), Prof: prof, State: st}
}

func TestPingPongMatchesModel(t *testing.T) {
	w := world(2, 1000)
	got, err := PingPong(w, 1240, 50)
	if err != nil {
		t.Fatal(err)
	}
	want := w.Net.PointToPoint(1240, w.State.Freq, w.State.Freq)
	if !stats.AlmostEqual(float64(got), want, 0.02) {
		t.Errorf("ping-pong %g s, model point-to-point %g s", float64(got), want)
	}
}

func TestPingPongFrequencyShape(t *testing.T) {
	// Table 6's communication rows: larger messages pick up a visible
	// penalty at the lowest gear; small ones are latency-bound.
	small600, err := PingPong(world(2, 600), 155*8, 20)
	if err != nil {
		t.Fatal(err)
	}
	small1400, err := PingPong(world(2, 1400), 155*8, 20)
	if err != nil {
		t.Fatal(err)
	}
	large600, err := PingPong(world(2, 600), 310*8, 20)
	if err != nil {
		t.Fatal(err)
	}
	large1400, err := PingPong(world(2, 1400), 310*8, 20)
	if err != nil {
		t.Fatal(err)
	}
	if d1, d2 := small600-small1400, large600-large1400; d2 <= d1 {
		t.Errorf("frequency penalty should grow with size: %g vs %g", d1, d2)
	}
}

func TestPingPongValidation(t *testing.T) {
	if _, err := PingPong(world(4, 600), 100, 10); err == nil {
		t.Error("4-rank ping-pong accepted")
	}
	if _, err := PingPong(world(2, 600), 0, 10); err == nil {
		t.Error("zero-size message accepted")
	}
	if _, err := PingPong(world(2, 600), 8, 0); err == nil {
		t.Error("zero reps accepted")
	}
}

// TestSweepMonotone pings a doubling size schedule from 64 B to 64 KiB:
// the one-way time grows with every step.
func TestSweepMonotone(t *testing.T) {
	w := world(2, 800)
	var prev units.Seconds
	for b := 64; b <= 64<<10; b *= 2 {
		sec, err := PingPong(w, b, 5)
		if err != nil {
			t.Fatal(err)
		}
		if sec <= prev {
			t.Errorf("time not increasing at %d bytes", b)
		}
		prev = sec
	}
}

// The measured latency/bandwidth recovered by a linear fit should agree
// with the configured network model.
func TestLinearFitRecoversNetworkParameters(t *testing.T) {
	w := world(2, 1400)
	var rows [][]float64
	var ys []float64
	for b := 1 << 10; b <= 32<<10; b *= 2 {
		sec, err := PingPong(w, b, 10)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, []float64{1, float64(b)})
		ys = append(ys, float64(sec))
	}
	beta, err := stats.LeastSquares(rows, ys)
	if err != nil {
		t.Fatal(err)
	}
	intercept, slope := beta[0], beta[1]
	// Slope ≈ 1/BW + 2·per-byte-CPU/f.
	wantSlope := 1/w.Net.BandwidthBps + 2*w.Net.ByteCPUIns/float64(w.State.Freq)
	if !stats.AlmostEqual(slope, wantSlope, 0.05) {
		t.Errorf("slope %g, want ≈ %g", slope, wantSlope)
	}
	if intercept < w.Net.LatencySec {
		t.Errorf("intercept %g below wire latency %g", intercept, w.Net.LatencySec)
	}
}
