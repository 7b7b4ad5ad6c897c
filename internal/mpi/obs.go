package mpi

import (
	"pasp/internal/machine"
	"pasp/internal/obs"
	"pasp/internal/trace"
)

// beginObserve opens the recorder's run span with the platform attributes
// the observability layer promises (N, f, CPI terms, interconnect) and
// allocates the per-rank phase-span logs. Called once per Run, before the
// rank goroutines start, so every Ctx can pick up its RankLog in newCtx.
func beginObserve(w World) {
	w.Obs.BeginRun(w.N, 0,
		obs.F("n", float64(w.N)),
		obs.F("mhz", w.State.Freq.MHz()),
		obs.F("pollutil", pollUtil),
		obs.A("net", w.Net.String()),
		obs.F("cpi_reg", w.Mach.Cycles[machine.Reg]),
		obs.F("cpi_l1", w.Mach.Cycles[machine.L1]),
		obs.F("cpi_l2", w.Mach.Cycles[machine.L2]),
		obs.F("mem_ns_fast", float64(w.Mach.MemNanosFast)),
	)
}

// observeRun seals the recorder after aggregate: it closes each rank's
// phase log at the rank's final clock, ends the run span at the makespan,
// and fills the recorder's registry from the aggregated result. Metrics are
// derived off the hot path — only the message-size histogram and the phase
// spans record during simulation — so enabling observability perturbs no
// virtual timing.
func observeRun(w World, ctxs []*Ctx, res *Result) {
	rec := w.Obs
	for _, c := range ctxs {
		rec.Rank(c.rank).Finish(c.clock)
	}
	rec.EndRun(res.Seconds)
	rec.AddRunAttrs(obs.F("joules", res.Joules))

	reg := rec.Metrics()
	reg.Counter("mpi.runs").Inc()
	gears := 0
	for _, c := range ctxs {
		gears += c.gearSwitches
	}
	reg.Counter("mpi.gear_switches").Add(float64(gears))
	msgs, msgBytes, retries := 0, 0, 0
	for _, s := range res.PerRank {
		msgs += s.Msgs
		msgBytes += s.MsgBytes
		retries += s.Retries
	}
	reg.Counter("mpi.msgs").Add(float64(msgs))
	reg.Counter("mpi.wire_bytes").Add(float64(msgBytes))
	reg.Counter("mpi.retries").Add(float64(retries))
	byKind := res.Trace.TotalByKind()
	for k := trace.Kind(0); k < trace.NumKinds; k++ {
		reg.Counter("mpi.virtual_seconds." + k.String()).Add(byKind[k])
	}
	reg.Gauge("mpi.makespan_seconds").Set(res.Seconds)
	reg.Gauge("mpi.joules").Set(res.Joules)
	reg.Gauge("mpi.avg_watts").Set(res.AvgWatts())
	rankSec := reg.Histogram("mpi.rank_seconds", obs.SecondsBuckets)
	for _, c := range ctxs {
		rankSec.Observe(c.clock)
	}
}
