package mpi

import (
	"pasp/internal/obs"
	"pasp/internal/trace"
)

// observeRun fills the world's metrics registry from the aggregated
// result. Metrics are derived off the hot path — only the message-size
// histogram records during simulation — so enabling observability perturbs
// no virtual timing.
func observeRun(w World, ctxs []*Ctx, res *Result) {
	reg := w.Metrics
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
