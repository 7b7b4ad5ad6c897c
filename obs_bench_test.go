package pasp

import (
	"testing"

	"pasp/internal/experiments"
	"pasp/internal/obs"
)

// BenchmarkObsDisabled and BenchmarkObsEnabled bracket the observability
// layer's cost on the same FT configuration: the disabled row is the
// nil-injector baseline every reproduction run pays (its allocs/op and
// ns/op must stay indistinguishable from the pre-observability harness),
// and the enabled row is the full recording path patrace uses. `make bench`
// prints the pair side by side so the overhead delta reads off one run;
// DESIGN.md §10 documents the <1% disabled-overhead budget these rows
// police.
func BenchmarkObsDisabled(b *testing.B) {
	s := benchSuite(b)
	n, f := obsProbe(s)
	for i := 0; i < b.N; i++ {
		res, err := s.RunKernelOnce("ft", n, f)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Seconds, "vsec")
	}
}

// obsProbe is the pair's FT configuration: N = 4, capped to the grid, at
// the top gear.
func obsProbe(s experiments.Suite) (int, float64) {
	return min(4, s.Grid.Ns[len(s.Grid.Ns)-1]), s.Grid.MHz[len(s.Grid.MHz)-1]
}

// BenchmarkObsEnabled additionally reports the run's metric snapshot as
// benchmark metrics: message count and wire bytes come from the run's
// registry, trace events from the exporter's input. A fresh registry per
// iteration keeps each iteration's counts its own (runs sharing a registry
// add to the same counters).
func BenchmarkObsEnabled(b *testing.B) {
	s := benchSuite(b)
	n, f := obsProbe(s)
	for i := 0; i < b.N; i++ {
		reg := obs.NewRegistry()
		res, err := s.RunKernelTraced("ft", n, f, reg, nil)
		if err != nil {
			b.Fatal(err)
		}
		snap := reg.Snapshot()
		b.ReportMetric(res.Seconds, "vsec")
		b.ReportMetric(snap.Counter("mpi.msgs"), "msgs")
		b.ReportMetric(snap.Counter("mpi.wire_bytes"), "wirebytes")
		b.ReportMetric(float64(len(res.Trace.Events())), "events")
	}
}
