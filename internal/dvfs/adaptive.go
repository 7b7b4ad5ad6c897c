package dvfs

import (
	"fmt"
	"sync"

	"pasp/internal/mpi"
	"pasp/internal/power"
	"pasp/internal/units"
)

// Adaptive is an online per-phase gear tuner: with no offline model or
// hand-written phase list, each rank explores the available operating
// points on each phase it encounters, estimates the phase's energy-delay
// product from its measured durations and the power law, and locks in the
// best gear. This is the runtime-governor approach the paper's authors
// later pursued (CPU MISER): purely reactive, profile-free, paying an
// exploration cost up front.
//
// Each rank tunes independently from its own virtual-time history, so the
// schedule remains deterministic; the measured durations are still coupled
// through communication (a rank's wait depends on its peers' gears), which
// is the genuine noise online tuning has to live with.
type Adaptive struct {
	// Prof supplies the operating points and the power law.
	Prof power.Profile
	// SwitchSec is the gear-transition stall.
	SwitchSec units.Seconds
	// Explore is how many visits each gear gets per phase before the tuner
	// commits; 0 selects 2.
	Explore int

	mu    sync.Mutex
	ranks map[int]*tuner
}

// tuner is one rank's state.
type tuner struct {
	lastPhase string
	lastGear  int
	lastTime  float64
	started   bool
	phases    map[string]*phaseStats
}

// phaseStats tracks one phase's per-gear observations on one rank.
type phaseStats struct {
	visits []int
	total  []float64
	chosen int // gear index, or −1 while exploring
}

// Validate reports an error for unusable parameters.
func (a *Adaptive) Validate() error {
	if err := a.Prof.Validate(); err != nil {
		return err
	}
	if a.SwitchSec < 0 {
		return fmt.Errorf("dvfs: negative switch time")
	}
	if a.Explore < 0 {
		return fmt.Errorf("dvfs: negative exploration count")
	}
	return nil
}

func (a *Adaptive) explore() int {
	if a.Explore == 0 {
		return 2
	}
	return a.Explore
}

func (a *Adaptive) tunerFor(rank int) *tuner {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.ranks == nil {
		a.ranks = map[int]*tuner{}
	}
	t, ok := a.ranks[rank]
	if !ok {
		t = &tuner{phases: map[string]*phaseStats{}}
		a.ranks[rank] = t
	}
	return t
}

// pick selects the gear for a phase: round-robin exploration until every
// gear has Explore visits, then the EDP-argmin (node power × mean duration
// squared) forever after.
func (a *Adaptive) pick(ps *phaseStats) int {
	if ps.chosen >= 0 {
		return ps.chosen
	}
	for g := range a.Prof.States {
		if ps.visits[g] < a.explore() {
			return g
		}
	}
	best, bestEDP := len(a.Prof.States)-1, -1.0
	for g, st := range a.Prof.States {
		mean := units.Seconds(ps.total[g] / float64(ps.visits[g]))
		edp := power.EDP(a.Prof.NodePower(st, 1).Energy(mean), mean)
		if bestEDP < 0 || edp < bestEDP {
			bestEDP, best = edp, g
		}
	}
	ps.chosen = best
	return best
}

// Hook returns the runtime phase hook implementing the tuner.
func (a *Adaptive) Hook() func(c *mpi.Ctx, phase string) {
	return func(c *mpi.Ctx, phase string) {
		t := a.tunerFor(c.Rank())
		now := c.Now()
		if t.started {
			// Attribute the interval since the previous boundary to the
			// previous phase at the gear it ran at.
			prev := t.phases[t.lastPhase]
			prev.visits[t.lastGear]++
			prev.total[t.lastGear] += now - t.lastTime
		}
		ps, ok := t.phases[phase]
		if !ok {
			n := len(a.Prof.States)
			ps = &phaseStats{visits: make([]int, n), total: make([]float64, n), chosen: -1}
			t.phases[phase] = ps
		}
		gear := a.pick(ps)
		c.SetPState(a.Prof.States[gear])
		t.lastPhase, t.lastGear, t.started = phase, gear, true
		t.lastTime = c.Now() // after any switch stall
	}
}

// Apply installs the tuner on the world, starting every rank at the top
// gear.
func (a *Adaptive) Apply(w mpi.World) (mpi.World, error) {
	if err := a.Validate(); err != nil {
		return mpi.World{}, err
	}
	w.State = a.Prof.TopState()
	w.OnPhase = a.Hook()
	w.GearSwitchSec = a.SwitchSec
	return w, nil
}

// Chosen reports the gear each phase converged to on the given rank
// (phases still exploring are omitted). Valid after a run completes.
func (a *Adaptive) Chosen(rank int) map[string]power.PState {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := map[string]power.PState{}
	t, ok := a.ranks[rank]
	if !ok {
		return out
	}
	for phase, ps := range t.phases {
		if ps.chosen >= 0 {
			out[phase] = a.Prof.States[ps.chosen]
		}
	}
	return out
}

// CompareAdaptive runs the kernel pinned at the top gear and then under a
// fresh adaptive tuner, reporting the tradeoff and the gears rank 0
// converged to.
func CompareAdaptive(w mpi.World, a *Adaptive, run func(w mpi.World) (*mpi.Result, error)) (Comparison, map[string]power.PState, error) {
	cmp, err := compare(w, a.Apply, run)
	if err != nil {
		return Comparison{}, nil, err
	}
	return cmp, a.Chosen(0), nil
}
