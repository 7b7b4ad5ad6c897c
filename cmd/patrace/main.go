// Command patrace runs one NAS kernel on the simulated cluster with the
// observability layer attached and exports the run: a Chrome trace-event
// JSON file viewable in Perfetto (ui.perfetto.dev) or chrome://tracing, a
// per-phase energy attribution report, a deterministic metric snapshot, and
// a reproducibility manifest.
//
// Usage:
//
//	patrace -kernel ft -n 16 -f 1.4ghz [-suite paper|quick|scale] [-chaos spec]
//	        [-out run.trace.json] [-manifest run.json] [-metrics] [-commlog comm.json]
//
// With -commlog the run also records each rank's operation stream (the tape
// mpi.Replay re-times) and writes its communication-protocol projection —
// phase transitions, message endpoints, collective entries — as a
// deterministic rank-major JSON log; cmd/paverify replays that log against
// the skeleton palint -skeleton extracts.
//
// The -f flag accepts "1.4ghz", "1400mhz" or a plain megahertz count
// (serve.ParseGear, the grammar paload and paserve share). The
// exported trace is validated against the trace-event schema before it is
// written, and the energy attribution is checked to sum to the run's total
// energy within 1e-9 — so a zero exit status certifies a well-formed,
// self-consistent export.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"pasp/internal/experiments"
	"pasp/internal/faults"
	"pasp/internal/mpi"
	"pasp/internal/obs"
	"pasp/internal/serve"
	"pasp/internal/units"
)

// run executes the driver against args, writing human output to stdout.
// Returned errors carry exit status 1; flag errors surface as status 2 via
// the FlagSet's own handling.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("patrace", flag.ContinueOnError)
	kernel := fs.String("kernel", "ft", "kernel: ep, ft, lu, cg, mg, is or sp")
	n := fs.Int("n", 4, "number of processors")
	freq := fs.String("f", "1400mhz", "operating frequency: 1.4ghz, 1400mhz or plain MHz")
	suite := fs.String("suite", "paper", "kernel class scale: paper, quick or scale")
	chaos := fs.String("chaos", "", "fault-injection spec, e.g. seed=1,jitter=0.5 (see faults.ParseSpec)")
	out := fs.String("out", "run.trace.json", "write the Chrome trace-event JSON here")
	manifest := fs.String("manifest", "", "write the run manifest JSON here")
	metrics := fs.Bool("metrics", false, "print the metric snapshot")
	commlog := fs.String("commlog", "", "record communication-protocol events and write them here (for cmd/paverify)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	mhz, err := serve.ParseGear(*freq)
	if err != nil {
		return err
	}
	s, err := experiments.SuiteByName(*suite)
	if err != nil {
		return err
	}
	cfg, err := faults.ParseSpec(*chaos)
	if err != nil {
		return err
	}
	s.Platform.Faults = cfg

	reg := obs.NewRegistry()
	var tape *mpi.Recording
	if *commlog != "" {
		tape = mpi.NewRecording()
	}
	res, err := s.RunKernelTraced(*kernel, *n, mhz, reg, tape)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "%s on %d node(s) at %.0f MHz: %.3f s, %.1f J, %.1f W avg\n",
		*kernel, *n, mhz, res.Seconds, res.Joules, res.AvgWatts())

	// Per-phase energy attribution, self-checked against the run total.
	rankEnds := make([]float64, len(res.PerRank))
	for i, r := range res.PerRank {
		rankEnds[i] = r.Seconds
	}
	st, err := s.Platform.Prof.StateAt(units.MHz(mhz))
	if err != nil {
		return err
	}
	rep := obs.AttributeEnergy(res.Trace, s.Platform.Prof, st, res.Seconds, rankEnds)
	// An overflowed run has no total to check against; otherwise the test
	// is written so that a NaN difference fails.
	if math.IsInf(res.Joules, 0) || math.IsNaN(res.Joules) {
		return fmt.Errorf("energy attribution: run total is %.15g J, not finite", res.Joules)
	}
	if !(math.Abs(rep.TotalJoules-res.Joules) <= 1e-9*res.Joules) {
		return fmt.Errorf("energy attribution sums to %.15g J but the run total is %.15g J",
			rep.TotalJoules, res.Joules)
	}
	fmt.Fprintf(stdout, "\nper-phase energy attribution (sums to run total within 1e-9):\n%s", rep.Text())

	if *metrics {
		fmt.Fprintf(stdout, "\nmetrics:\n%s", reg.Snapshot().Text())
	}

	data := obs.ChromeTrace(res.Trace, "patrace "+*kernel)
	nEvents, err := obs.ValidateChromeTrace(data)
	if err != nil {
		return fmt.Errorf("refusing to write invalid trace: %w", err)
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\ntrace OK (%d events) written to %s\n", nEvents, *out)

	if tape != nil {
		log := tape.CommLog()
		cdata, err := log.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*commlog, cdata, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "comm log (%d events over %d ranks) written to %s\n",
			len(log.Events), log.N, *commlog)
	}

	if *manifest != "" {
		m := obs.NewManifest("patrace")
		m.Kernel, m.Suite, m.N, m.MHz = *kernel, *suite, *n, mhz
		m.ChaosSpec, m.Seed = *chaos, cfg.Seed
		m.PlatformFingerprint = obs.Fingerprint(s.Platform)
		m.Seconds, m.Joules, m.AvgWatts = res.Seconds, res.Joules, res.AvgWatts()
		m.EDP = res.EDP()
		m.TraceEvents = nEvents
		m.Metrics = reg.Snapshot()
		mdata, err := m.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*manifest, mdata, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "manifest written to %s\n", *manifest)
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err == flag.ErrHelp {
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "patrace: %v\n", err)
		os.Exit(1)
	}
}
