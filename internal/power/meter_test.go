package power

import (
	"math"
	"testing"
	"testing/quick"

	"pasp/internal/units"
)

func TestMeterAccumulate(t *testing.T) {
	p := PentiumM()
	m := NewMeter(p)
	s := p.BaseState()
	if err := m.Accumulate(s, 1, 10); err != nil {
		t.Fatalf("Accumulate: %v", err)
	}
	want := p.NodePower(s, 1).Energy(10)
	if math.Abs(float64(m.Joules()-want)) > 1e-9 {
		t.Errorf("Joules = %g, want %g", m.Joules(), want)
	}
}

func TestMeterRejectsNegativeInterval(t *testing.T) {
	m := NewMeter(PentiumM())
	if err := m.Accumulate(PentiumM().BaseState(), 1, -1); err == nil {
		t.Error("Accumulate(-1s) succeeded, want error")
	}
}

// TestMeterUtilizationWeighted: each interval is priced at its own
// utilization, so 1 s busy plus 3 s idle costs one busy second and three
// idle ones.
func TestMeterUtilizationWeighted(t *testing.T) {
	p := PentiumM()
	m := NewMeter(p)
	s := p.TopState()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(m.Accumulate(s, 1.0, 1))
	must(m.Accumulate(s, 0.0, 3))
	want := p.NodePower(s, 1).Energy(1) + p.NodePower(s, 0).Energy(3)
	if got := m.Joules(); math.Abs(float64(got-want)) > 1e-9 {
		t.Errorf("Joules = %g, want %g", got, want)
	}
}

func TestMeterEmptyUtilization(t *testing.T) {
	if got := NewMeter(PentiumM()).Joules(); got != 0 {
		t.Errorf("empty meter Joules = %g, want 0", got)
	}
}

// Property: energy grows monotonically as intervals accumulate, and total
// energy is at least Base power × time.
func TestMeterMonotoneProperty(t *testing.T) {
	p := PentiumM()
	f := func(samples []struct {
		State uint8
		Util  uint8
		Dt    uint16
	}) bool {
		m := NewMeter(p)
		prev := units.Joules(0)
		var total units.Seconds
		for _, s := range samples {
			st := p.States[int(s.State)%len(p.States)]
			dt := units.Seconds(s.Dt) / 1000
			if err := m.Accumulate(st, float64(s.Util)/255, dt); err != nil {
				return false
			}
			if m.Joules() < prev {
				return false
			}
			prev = m.Joules()
			total += dt
		}
		return float64(m.Joules()) >= p.Base*float64(total)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
