// Command pasweep runs a NAS kernel over the full (processor count,
// frequency) grid and prints the execution-time and power-aware-speedup
// surfaces — the data behind the paper's Figures 1 and 2, extended to the
// rest of the implemented suite.
//
// Usage:
//
//	pasweep [-bench ep|ft|lu|cg|mg|is|sp] [-suite paper|quick|scale] [-csv]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"pasp/internal/experiments"
)

func main() {
	bench := flag.String("bench", "ft", "kernel: ep, ft, lu, cg, mg, is or sp")
	suite := flag.String("suite", "paper", "experiment scale: paper, quick or scale")
	csv := flag.Bool("csv", false, "emit CSV instead of tables")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	s, err := experiments.SuiteByName(*suite)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pasweep: %v\n", err)
		os.Exit(2)
	}
	k, err := s.Kernel(*bench)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pasweep: %v\n", err)
		os.Exit(2)
	}
	camp, err := k.Measure(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pasweep: %v\n", err)
		os.Exit(1)
	}
	fig, err := s.FigureFrom(strings.ToUpper(*bench), camp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pasweep: %v\n", err)
		os.Exit(1)
	}
	if *csv {
		fmt.Print(fig.Time.CSV())
		fmt.Println()
		fmt.Print(fig.Speedup.CSV())
		return
	}
	fmt.Println(fig)
}
