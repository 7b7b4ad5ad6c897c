package npb

import (
	"math"
	"testing"

	"pasp/internal/mpi"
	"pasp/internal/stats"
	"pasp/internal/trace"
)

func TestSPValidate(t *testing.T) {
	if err := (SP{N: 16, Steps: 2}).Validate(4); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []struct {
		name string
		s    SP
		n    int
	}{
		{"tiny grid", SP{N: 2, Steps: 1}, 1},
		{"zero steps", SP{N: 16}, 1},
		{"negative sigma", SP{N: 16, Steps: 1, Sigma: -1}, 1},
		{"too many chunks", SP{N: 4, Steps: 1, Chunks: 100}, 1},
		{"too many ranks", SP{N: 8, Steps: 1}, 16},
		{"bad ncomp", SP{N: 16, Steps: 1, Ncomp: -1}, 1},
	}
	for _, tc := range bad {
		if err := tc.s.Validate(tc.n); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// Implicit heat steps with zero Dirichlet boundaries dissipate heat
// monotonically: the positivity-preserving tridiagonal solves shrink the
// field sum every step.
func TestSPHeatDecays(t *testing.T) {
	res, _, err := SP{N: 16, Steps: 5}.Run(npbWorld(1, 600))
	if err != nil {
		t.Fatal(err)
	}
	if res.Heat0 <= 0 {
		t.Fatal("non-positive initial heat")
	}
	if res.Heat >= res.Heat0 {
		t.Errorf("heat did not decay: %g → %g", res.Heat0, res.Heat)
	}
	if res.Heat <= 0 {
		t.Errorf("heat went non-positive: %g", res.Heat)
	}
}

// The distributed pipelined Thomas must produce exactly the serial
// arithmetic: forward/backward recurrences cross rank boundaries in the
// same order, so results are rank invariant to rounding.
func TestSPRankInvariance(t *testing.T) {
	sp := SP{N: 16, Steps: 3}
	ref, _, err := sp.Run(npbWorld(1, 600))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 4, 8} {
		got, _, err := sp.Run(npbWorld(n, 600))
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if !stats.AlmostEqual(got.Heat, ref.Heat, 1e-9) {
			t.Errorf("N=%d: heat %.12g ≠ %.12g", n, got.Heat, ref.Heat)
		}
		if !stats.AlmostEqual(got.Checksum, ref.Checksum, 1e-9) {
			t.Errorf("N=%d: checksum %.12g ≠ %.12g", n, got.Checksum, ref.Checksum)
		}
	}
}

// Smoothness sanity: after many steps the field approaches the zero steady
// state of the homogeneous Dirichlet problem.
func TestSPApproachesSteadyState(t *testing.T) {
	short, _, err := SP{N: 12, Steps: 2}.Run(npbWorld(2, 600))
	if err != nil {
		t.Fatal(err)
	}
	long, _, err := SP{N: 12, Steps: 40}.Run(npbWorld(2, 600))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(long.Heat) >= math.Abs(short.Heat) {
		t.Errorf("heat after 40 steps (%g) not below 2 steps (%g)", long.Heat, short.Heat)
	}
}

func TestSPPipelinePhasesTraced(t *testing.T) {
	_, r, err := SP{N: 16, Steps: 2}.Run(npbWorld(4, 600))
	if err != nil {
		t.Fatal(err)
	}
	by := r.Trace.ByPhase()
	for _, phase := range []string{"sp-solve-x", "sp-solve-y", "sp-solve-z", "sp-z-forward", "sp-z-back"} {
		if by[phase] <= 0 {
			t.Errorf("phase %q missing from trace: %v", phase, by)
		}
	}
	// Each rank (except the edges) sends 2 messages per chunk per step.
	if r.PerRank[1].Msgs < 2*2 {
		t.Errorf("rank 1 sent %d messages", r.PerRank[1].Msgs)
	}
}

func TestSPChunkingInvariant(t *testing.T) {
	// The chunk count changes pipelining, not arithmetic.
	a := SP{N: 16, Steps: 2, Chunks: 1}
	b := SP{N: 16, Steps: 2, Chunks: 32}
	ra, _, err := a.Run(npbWorld(4, 600))
	if err != nil {
		t.Fatal(err)
	}
	rb, _, err := b.Run(npbWorld(4, 600))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.AlmostEqual(ra.Checksum, rb.Checksum, 1e-12) {
		t.Errorf("checksum depends on chunking: %g vs %g", ra.Checksum, rb.Checksum)
	}
	// Finer chunks pipeline better: more messages, at most equal makespan...
	// the tradeoff depends on latency; just require both to complete and
	// differ in message count.
	if ra.Checksum == 0 {
		t.Error("degenerate checksum")
	}
}

func TestSPChunksAffectPipelining(t *testing.T) {
	// With one chunk the z solve fully serializes rank by rank; finer
	// chunks overlap the ranks and cut the makespan substantially (measured
	// ~4.6× from 1 to 16 chunks at this configuration).
	_, one, err := SP{N: 24, Steps: 2, Chunks: 1}.Run(npbWorld(8, 600))
	if err != nil {
		t.Fatal(err)
	}
	_, many, err := SP{N: 24, Steps: 2, Chunks: 16}.Run(npbWorld(8, 600))
	if err != nil {
		t.Fatal(err)
	}
	if many.Seconds >= one.Seconds/2 {
		t.Errorf("16-chunk pipeline %.4f s not well below 1-chunk %.4f s", many.Seconds, one.Seconds)
	}
	// The finer pipeline pays in message count.
	if many.PerRank[1].Msgs <= one.PerRank[1].Msgs {
		t.Error("finer chunks did not increase message count")
	}
}

func TestSPDeterministic(t *testing.T) {
	sp := SP{N: 16, Steps: 2}
	_, a, err := sp.Run(npbWorld(4, 1000))
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := sp.Run(npbWorld(4, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if a.Seconds != b.Seconds || a.Joules != b.Joules {
		t.Error("SP timing not deterministic")
	}
}

// TestSPPhaseSequenceUniform pins that SetPhase transitions in the z-sweep
// are unconditional, so every rank walks the identical phase sequence —
// the invariant the per-(rank, phase) energy attribution assumes. A
// recording's comm log sees the transitions themselves (unlike the energy
// trace, whose phase events only materialize where a rank spends time).
func TestSPPhaseSequenceUniform(t *testing.T) {
	tape := mpi.NewRecording()
	w := npbWorld(4, 600)
	w.Record = tape
	if _, _, err := (SP{N: 16, Steps: 2}).Run(w); err != nil {
		t.Fatal(err)
	}
	perRank := tape.CommLog()
	seqs := make([][]string, len(perRank))
	for i, evs := range perRank {
		for _, ev := range evs {
			if ev.Kind == trace.CommPhase {
				seqs[i] = append(seqs[i], ev.Name)
			}
		}
	}
	if len(seqs[0]) == 0 {
		t.Fatal("rank 0 recorded no phase transitions")
	}
	for rank := 1; rank < len(seqs); rank++ {
		if len(seqs[rank]) != len(seqs[0]) {
			t.Fatalf("rank %d phase sequence length %d != rank 0's %d:\n%v\nvs\n%v",
				rank, len(seqs[rank]), len(seqs[0]), seqs[rank], seqs[0])
		}
		for i := range seqs[0] {
			if seqs[rank][i] != seqs[0][i] {
				t.Fatalf("rank %d diverges at step %d: %q vs %q", rank, i, seqs[rank][i], seqs[0][i])
			}
		}
	}
}
