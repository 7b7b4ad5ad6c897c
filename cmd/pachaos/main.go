// Command pachaos runs the model-robustness campaign: it fits the paper's SP
// and FP models on a kernel's clean (fault-free) measurement campaign, then
// re-measures the kernel on a cluster perturbed by the deterministic chaos
// harness at a sweep of magnitudes, reporting how fast the prediction error
// grows as the platform departs from the paper's assumptions.
//
// Usage:
//
//	pachaos [-bench ft|lu|...] [-suite paper|quick] [-np 4,8,16] [-mags 0,0.25,0.5,1]
//	        [-chaos spec] [-seed 1] [-csv out.csv] [-trace out.trace.json] [-metrics]
//
// -trace exports the campaign's span tree (one span per measured campaign,
// sized in virtual seconds) as Chrome trace-event JSON; -metrics prints the
// campaign-store hit/miss counters and campaign span accounting after the
// sweep, which shows how much measurement the memoization avoided.
//
// Without -chaos the sweep perturbs latency jitter only (the headline axis,
// monotone in magnitude by construction); -chaos takes a key=value spec (see
// faults.ParseSpec) describing the knobs at magnitude 1, e.g.
//
//	pachaos -bench ft -np 4,8,16 -mags 0,0.5,1 -chaos "seed=1,jitter=1,drop=0.01"
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"pasp/internal/experiments"
	"pasp/internal/faults"
	"pasp/internal/obs"
)

// parseInts parses a comma-separated list of integers.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q in %q", f, s)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseFloats parses a comma-separated list of floats.
func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q in %q", f, s)
		}
		out = append(out, v)
	}
	return out, nil
}

// buildSpec assembles the sweep specification from the parsed flags.
func buildSpec(bench, ns, mags, chaos string, seed uint64) (experiments.RobustnessSpec, error) {
	nsList, err := parseInts(ns)
	if err != nil {
		return experiments.RobustnessSpec{}, err
	}
	magList, err := parseFloats(mags)
	if err != nil {
		return experiments.RobustnessSpec{}, err
	}
	cfg := experiments.JitterOnlyFaults(seed)
	if chaos != "" {
		if cfg, err = faults.ParseSpec(chaos); err != nil {
			return experiments.RobustnessSpec{}, err
		}
	}
	spec := experiments.RobustnessSpec{
		Kernel:     bench,
		Ns:         nsList,
		Magnitudes: magList,
		Faults:     cfg,
	}
	return spec, spec.Validate()
}

func main() {
	bench := flag.String("bench", "ft", "kernel: ep, ft, lu, cg, mg, is or sp")
	suite := flag.String("suite", "paper", "kernel class scale: paper or quick")
	ns := flag.String("np", "4,8,16", "processor counts, ascending, comma-separated (must lie on the kernel's campaign grid)")
	mags := flag.String("mags", "0,0.25,0.5,1", "perturbation magnitudes, ascending, comma-separated")
	chaos := flag.String("chaos", "", "fault knobs at magnitude 1 (see faults.ParseSpec); default: latency jitter only")
	seed := flag.Uint64("seed", 1, "PRNG seed for the default jitter-only config (ignored with -chaos)")
	csv := flag.String("csv", "", "also write the sweep as CSV to this file")
	traceOut := flag.String("trace", "", "write the campaign span tree as Chrome trace-event JSON to this file")
	metrics := flag.Bool("metrics", false, "print campaign-store metrics after the sweep")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	s, err := experiments.SuiteByName(*suite)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pachaos: %v\n", err)
		os.Exit(2)
	}
	spec, err := buildSpec(*bench, *ns, *mags, *chaos, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pachaos: %v\n", err)
		os.Exit(2)
	}
	var rec *obs.Recorder
	if *traceOut != "" || *metrics {
		// The campaign store reports spans to the installed global
		// observer; the recorder never changes a measured number.
		rec = obs.NewRecorder()
		defer obs.SetGlobal(obs.SetGlobal(rec))
	}
	res, err := s.Robustness(ctx, spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pachaos: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(res.String())
	if *csv != "" {
		if err := os.WriteFile(*csv, []byte(res.CSV()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "pachaos: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nCSV written to %s\n", *csv)
	}
	if *metrics {
		fmt.Printf("\ncampaign metrics:\n%s", rec.Metrics().Snapshot().Text())
		fmt.Printf("\nprocess store counters:\n%s", obs.Default().Snapshot().Text())
	}
	if *traceOut != "" {
		data := obs.SpansChromeTrace(rec.Spans(), "pachaos "+*bench)
		n, err := obs.ValidateChromeTrace(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pachaos: refusing to write invalid trace: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*traceOut, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "pachaos: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("campaign trace (%d events) written to %s\n", n, *traceOut)
	}
}
