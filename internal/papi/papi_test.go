package papi

import (
	"testing"
	"testing/quick"

	"pasp/internal/machine"
	"pasp/internal/stats"
)

func TestEventNames(t *testing.T) {
	want := map[Event]string{
		TotIns: "PAPI_TOT_INS",
		L1DCA:  "PAPI_L1_DCA",
		L1DCM:  "PAPI_L1_DCM",
		L2TCA:  "PAPI_L2_TCA",
		L2TCM:  "PAPI_L2_TCM",
	}
	for e, s := range want {
		if e.String() != s {
			t.Errorf("%d.String() = %q, want %q", e, e.String(), s)
		}
	}
}

func TestAddWorkIdentities(t *testing.T) {
	var c Counters
	c.AddWork(machine.W(10, 20, 5, 2))
	cases := []struct {
		e    Event
		want float64
	}{
		{TotIns, 37},
		{L1DCA, 27},
		{L1DCM, 7},
		{L2TCA, 7},
		{L2TCM, 2},
	}
	for _, tc := range cases {
		if got := c.Get(tc.e); got != tc.want {
			t.Errorf("%v = %g, want %g", tc.e, got, tc.want)
		}
	}
}

func TestDecomposeRoundTrip(t *testing.T) {
	w := machine.W(145e9, 175e9, 4.71e9, 3.97e9) // Table 5's LU counts
	var c Counters
	c.AddWork(w)
	got, err := c.Decompose()
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	for l := machine.Reg; l < machine.NumLevels; l++ {
		if !stats.AlmostEqual(got.Ops[l], w.Ops[l], 1e-12) {
			t.Errorf("level %v: got %g, want %g", l, got.Ops[l], w.Ops[l])
		}
	}
}

func TestDecomposeRejectsInconsistent(t *testing.T) {
	var c Counters
	// L1_DCA exceeding TOT_INS is impossible on real hardware.
	c.v[TotIns] = 5
	c.v[L1DCA] = 10
	if _, err := c.Decompose(); err == nil {
		t.Error("inconsistent counters decomposed without error")
	}
}

func TestAddAndReset(t *testing.T) {
	var a, b Counters
	a.AddWork(machine.W(1, 1, 1, 1))
	b.AddWork(machine.W(2, 2, 2, 2))
	a.Add(b)
	if got := a.Get(TotIns); got != 12 {
		t.Errorf("after Add, TOT_INS = %g, want 12", got)
	}
}

func TestDerivationsCoverAllLevels(t *testing.T) {
	d := Derivations()
	for l := machine.Reg; l < machine.NumLevels; l++ {
		if d[l] == "" {
			t.Errorf("missing derivation for %v", l)
		}
	}
}

// Property: AddWork → Decompose is the identity on any non-negative mix.
func TestRoundTripProperty(t *testing.T) {
	f := func(reg, l1, l2, mem uint32) bool {
		w := machine.W(float64(reg), float64(l1), float64(l2), float64(mem))
		var c Counters
		c.AddWork(w)
		got, err := c.Decompose()
		if err != nil {
			return false
		}
		return got == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: counters are additive — accounting two mixes separately equals
// accounting their sum.
func TestAdditiveProperty(t *testing.T) {
	f := func(a, b [4]uint32) bool {
		wa := machine.W(float64(a[0]), float64(a[1]), float64(a[2]), float64(a[3]))
		wb := machine.W(float64(b[0]), float64(b[1]), float64(b[2]), float64(b[3]))
		sum := machine.W(float64(a[0])+float64(b[0]), float64(a[1])+float64(b[1]),
			float64(a[2])+float64(b[2]), float64(a[3])+float64(b[3]))
		var c1, c2 Counters
		c1.AddWork(wa)
		c1.AddWork(wb)
		c2.AddWork(sum)
		return c1 == c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
