// Command pasim runs one NAS kernel at one cluster configuration on the
// simulated power-aware cluster and reports execution time, energy,
// counter-derived workload decomposition and the per-phase time breakdown.
//
// Usage:
//
//	pasim [-bench ep|ft|lu|cg|mg|is|sp] [-np 4] [-mhz 600] [-suite paper|quick|scale] [-v]
//	      [-timeline out.csv] [-chaos spec]
//
// The -chaos flag perturbs the run through the deterministic fault-injection
// harness (package faults); its argument is a comma-separated key=value spec,
// e.g. -chaos "seed=1,jitter=0.5,drop=0.01". See faults.ParseSpec for keys.
//
// To export the run as a Perfetto trace with its metric snapshot, energy
// attribution and manifest, use the dedicated patrace command.
package main

import (
	"flag"
	"fmt"
	"os"

	"pasp/internal/experiments"
	"pasp/internal/faults"
	"pasp/internal/units"
)

func main() {
	bench := flag.String("bench", "ft", "kernel: ep, ft, lu, cg, mg, is or sp")
	np := flag.Int("np", 4, "number of processors")
	mhz := flag.Float64("mhz", 600, "operating frequency in MHz")
	suite := flag.String("suite", "paper", "kernel class scale: paper, quick or scale")
	verbose := flag.Bool("v", false, "print the per-phase breakdown")
	timeline := flag.String("timeline", "", "write the per-rank trace timeline CSV to this file")
	chaos := flag.String("chaos", "", "fault-injection spec, e.g. seed=1,jitter=0.5,drop=0.01 (see faults.ParseSpec)")
	flag.Parse()

	s, err := experiments.SuiteByName(*suite)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pasim: %v\n", err)
		os.Exit(2)
	}
	cfg, err := faults.ParseSpec(*chaos)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pasim: %v\n", err)
		os.Exit(2)
	}
	s.Platform.Faults = cfg
	res, err := s.RunKernelOnce(*bench, *np, *mhz)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pasim: %v\n", err)
		os.Exit(1)
	}

	st, err := s.Platform.Prof.StateAt(units.MHz(*mhz))
	if err != nil {
		fmt.Fprintf(os.Stderr, "pasim: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s on %d node(s) at %.0f MHz (%.3f V)\n", *bench, *np, *mhz, st.Voltage)
	fmt.Printf("  execution time : %10.3f s\n", res.Seconds)
	fmt.Printf("  cluster energy : %10.1f J\n", res.Joules)
	fmt.Printf("  average power  : %10.1f W\n", res.AvgWatts())
	fmt.Printf("  energy-delay   : %10.1f J·s\n", res.EDP())
	if work, err := res.Counters.Decompose(); err == nil && work.Total() > 0 {
		fmt.Printf("  workload       : %.1f%% ON-chip, %.1f%% OFF-chip (%.2e instructions)\n",
			work.OnChip()/work.Total()*100, work.OffChip()/work.Total()*100, work.Total())
	}
	fmt.Printf("  compute/comm   : %10.3f s / %.3f s (summed over ranks)\n",
		res.ComputeSec(), res.CommSec())
	if cfg.Enabled() {
		fmt.Printf("  injected chaos : %10.3f s across ranks, %d retransmissions\n",
			res.FaultSec(), res.Retries())
	}
	if *verbose {
		fmt.Println("\nper-phase time (summed over ranks):")
		fmt.Print(res.Trace.Summary())
		phase, share := res.Trace.CriticalPhase()
		fmt.Printf("dominant phase: %s (%.1f%% of recorded time)\n", phase, share*100)
	}
	if *timeline != "" {
		if err := os.WriteFile(*timeline, []byte(res.Trace.TimelineCSV()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "pasim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("timeline written to %s\n", *timeline)
	}
}
