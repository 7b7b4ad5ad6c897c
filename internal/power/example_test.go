package power_test

import (
	"fmt"

	"pasp/internal/power"
)

// The Pentium M's five operating points (the paper's Table 2) and the CMOS
// power law: dropping from the top gear to the bottom one costs 2.33× in
// peak throughput but saves far more in processor power.
func ExampleProfile_Dynamic() {
	p := power.PentiumM()
	top, base := p.TopState(), p.BaseState()
	fmt.Printf("top:  %v  %.1f W dynamic\n", top, p.Dynamic(top))
	fmt.Printf("base: %v   %.1f W dynamic\n", base, p.Dynamic(base))
	fmt.Printf("throughput ratio %.2f, power ratio %.2f\n",
		top.Freq/base.Freq, p.Dynamic(top)/p.Dynamic(base))
	// Output:
	// top:  1400MHz@1.484V  21.0 W dynamic
	// base: 600MHz@0.956V   3.7 W dynamic
	// throughput ratio 2.33, power ratio 5.62
}

// An energy meter integrates node power over a run's intervals.
func ExampleMeter() {
	p := power.PentiumM()
	m := power.NewMeter(p)
	_ = m.Accumulate(p.TopState(), 1.0, 10) // 10 s computing flat out
	_ = m.Accumulate(p.BaseState(), 0.2, 5) // 5 s mostly waiting at low gear
	fmt.Printf("%.0f J over 15 s\n", m.Joules())
	// Output:
	// 517 J over 15 s
}
