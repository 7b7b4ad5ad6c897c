package pasp

import (
	"testing"

	"pasp/internal/obs"
)

// BenchmarkObsDisabled and BenchmarkObsEnabled bracket the observability
// layer's cost on the same FT configuration: the disabled row is the
// nil-injector baseline every reproduction run pays (its allocs/op and
// ns/op must stay indistinguishable from the pre-observability harness),
// and the enabled row is the full recording path patrace uses. The pair
// flows through pabench into the benchmark JSON so the overhead delta is
// tracked per commit; DESIGN.md §10 documents the <1% disabled-overhead
// budget these rows police.
func BenchmarkObsDisabled(b *testing.B) {
	s := benchSuite(b)
	n, f := capN(s, 4), topF(s)
	for i := 0; i < b.N; i++ {
		res, err := s.RunKernelOnce("ft", n, f)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Seconds, "vsec")
	}
}

// BenchmarkObsEnabled additionally reports the run's metric-snapshot deltas
// as pabench rows: message count, wire bytes and gear switches come from
// the recorder's registry, trace events from the exporter's input. A fresh
// recorder per iteration keeps iterations independent (a Recorder observes
// exactly one run).
func BenchmarkObsEnabled(b *testing.B) {
	s := benchSuite(b)
	n, f := capN(s, 4), topF(s)
	for i := 0; i < b.N; i++ {
		rec := obs.NewRecorder()
		res, err := s.RunKernelTraced("ft", n, f, rec, nil)
		if err != nil {
			b.Fatal(err)
		}
		snap := rec.Metrics().Snapshot()
		b.ReportMetric(res.Seconds, "vsec")
		b.ReportMetric(snap.Counter("mpi.msgs"), "msgs")
		b.ReportMetric(snap.Counter("mpi.wire_bytes"), "wirebytes")
		b.ReportMetric(float64(len(res.Trace.Events())), "events")
	}
}
