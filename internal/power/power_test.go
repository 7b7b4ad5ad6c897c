package power

import (
	"math"
	"testing"
	"testing/quick"

	"pasp/internal/units"
)

func TestPentiumMTable2(t *testing.T) {
	p := PentiumM()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// The five operating points of Table 2.
	want := []PState{
		{units.MHz(600), 0.956},
		{units.MHz(800), 1.180},
		{units.MHz(1000), 1.308},
		{units.MHz(1200), 1.436},
		{units.MHz(1400), 1.484},
	}
	if len(p.States) != len(want) {
		t.Fatalf("got %d states, want %d", len(p.States), len(want))
	}
	for i, w := range want {
		if p.States[i] != w {
			t.Errorf("state %d = %v, want %v", i, p.States[i], w)
		}
	}
	if p.BaseState().Freq != units.MHz(600) {
		t.Errorf("BaseState = %v, want 600 MHz", p.BaseState())
	}
	if p.TopState().Freq != units.MHz(1400) {
		t.Errorf("TopState = %v, want 1400 MHz", p.TopState())
	}
}

func TestStateAt(t *testing.T) {
	p := PentiumM()
	s, err := p.StateAt(units.MHz(800))
	if err != nil {
		t.Fatalf("StateAt(800MHz): %v", err)
	}
	if s.Voltage != 1.180 {
		t.Errorf("voltage = %g, want 1.180", s.Voltage)
	}
	if _, err := p.StateAt(units.MHz(700)); err == nil {
		t.Error("StateAt(700MHz) succeeded, want error")
	}
	// Frequencies within 0.5% resolve to the same state.
	if _, err := p.StateAt(units.MHz(801)); err != nil {
		t.Errorf("StateAt(801MHz): %v", err)
	}
}

func TestDynamicPowerMonotone(t *testing.T) {
	p := PentiumM()
	prev := units.Watts(0)
	for _, s := range p.States {
		d := p.Dynamic(s)
		if d <= prev {
			t.Errorf("dynamic power not increasing at %v: %g ≤ %g", s, d, prev)
		}
		prev = d
	}
	// Top state should land near the Pentium M's ~21 W TDP.
	top := p.Dynamic(p.TopState())
	if top < 15 || top > 27 {
		t.Errorf("top-state dynamic power %g W outside plausible 15–27 W", top)
	}
	// Base state should be a small fraction of the top state: cubic-ish law.
	base := p.Dynamic(p.BaseState())
	if ratio := top / base; ratio < 3 {
		t.Errorf("top/base dynamic power ratio %g, want ≥ 3 (V²f scaling)", ratio)
	}
}

func TestCPUPowerUtilization(t *testing.T) {
	p := PentiumM()
	s := p.TopState()
	idle := p.CPUPower(s, 0)
	busy := p.CPUPower(s, 1)
	half := p.CPUPower(s, 0.5)
	if !(idle < half && half < busy) {
		t.Errorf("power not monotone in utilization: idle=%g half=%g busy=%g", idle, half, busy)
	}
	// Clamping outside [0,1].
	if got := p.CPUPower(s, -1); got != idle {
		t.Errorf("util=-1 power %g, want idle %g", got, idle)
	}
	if got := p.CPUPower(s, 2); got != busy {
		t.Errorf("util=2 power %g, want busy %g", got, busy)
	}
}

func TestNodePowerIncludesBase(t *testing.T) {
	p := PentiumM()
	s := p.BaseState()
	if diff := p.NodePower(s, 1) - p.CPUPower(s, 1); math.Abs(float64(diff)-p.Base) > 1e-12 {
		t.Errorf("node−cpu power = %g, want Base %g", diff, p.Base)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	good := PentiumM()
	cases := map[string]func(*Profile){
		"no states":        func(p *Profile) { p.States = nil },
		"zero frequency":   func(p *Profile) { p.States[0].Freq = 0 },
		"zero voltage":     func(p *Profile) { p.States[2].Voltage = 0 },
		"unsorted":         func(p *Profile) { p.States[1].Freq = units.MHz(500) },
		"voltage inverted": func(p *Profile) { p.States[1].Voltage = 0.5 },
		"zero ceff":        func(p *Profile) { p.CEff = 0 },
		"negative static":  func(p *Profile) { p.Static = -1 },
		"idle factor >1":   func(p *Profile) { p.IdleFactor = 1.5 },
	}
	for name, mutate := range cases {
		p := good
		p.States = append([]PState(nil), good.States...)
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate succeeded, want error", name)
		}
	}
}

func TestEDPMetrics(t *testing.T) {
	if got := EDP(10, 2); got != 20 {
		t.Errorf("EDP(10,2) = %g, want 20", got)
	}
	if got := ED2P(10, 2); got != 40 {
		t.Errorf("ED2P(10,2) = %g, want 40", got)
	}
}

// Property: for any utilization in [0,1] and any P-state, node power is
// between the idle floor and the busy ceiling, and never below Base.
func TestNodePowerBoundsProperty(t *testing.T) {
	p := PentiumM()
	f := func(stateIdx uint8, utilRaw uint16) bool {
		s := p.States[int(stateIdx)%len(p.States)]
		util := float64(utilRaw) / 65535
		w := p.NodePower(s, util)
		return w >= p.NodePower(s, 0) && w <= p.NodePower(s, 1) && float64(w) > p.Base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: higher P-states dominate lower ones in busy power.
func TestBusyPowerMonotoneInStateProperty(t *testing.T) {
	p := PentiumM()
	f := func(a, b uint8) bool {
		i, j := int(a)%len(p.States), int(b)%len(p.States)
		if i > j {
			i, j = j, i
		}
		return p.CPUPower(p.States[i], 1) <= p.CPUPower(p.States[j], 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
