// Command paverify replays a recorded communication log against the
// statically extracted communication skeleton and reports every divergence:
// an observed phase transition, collective entry or message endpoint that no
// predicted site admits.
//
// Usage:
//
//	paverify -skeleton skeleton.json -commlog comm.json -kernel ft
//
// The skeleton comes from `palint -skeleton skeleton.json ./...`; the log
// comes from `patrace -commlog comm.json -kernel ft -n 4`. Replay walks each
// rank's events in program order, tracking the current phase (the implicit
// initial phase is "main"), and checks every event against the kernel's
// predicted sites with the observed (rank, N) bound into the guard and
// partner expressions. The skeleton over-approximates, so a pass does not
// prove the protocol correct — but any divergence is a real disagreement
// between the code's static communication shape and what the run did.
//
// Exit status: 0 when every event is predicted, 1 when divergences were
// found, 2 on usage or input errors (unreadable files, unknown kernel).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pasp/internal/commspec"
	"pasp/internal/trace"
)

// verify replays the log against the kernel, printing each divergence to
// out (capped at max lines; 0 means unlimited) and returning the total
// divergence count.
func verify(k *commspec.Kernel, log *trace.CommLog, out io.Writer, max int) int {
	count := 0
	report := func(rank, idx int, err error) {
		count++
		if max == 0 || count <= max {
			fmt.Fprintf(out, "divergence: rank %d event %d: %v\n", rank, idx, err)
		}
	}
	for rank, evs := range log.PerRank() {
		phase := "main"
		for i, ev := range evs {
			// Cross-check the log's own recorded phase against the replayed
			// one: a mismatch means the log is internally inconsistent.
			if ev.Kind != trace.CommPhase && ev.Phase != phase {
				report(rank, i, fmt.Errorf("log records phase %q but replay tracks %q", ev.Phase, phase))
				phase = ev.Phase
			}
			switch ev.Kind {
			case trace.CommPhase:
				if ev.Name != "main" { // the implicit initial phase is always legal
					if err := k.CheckPhase(ev.Name); err != nil {
						report(rank, i, err)
					}
				}
				phase = ev.Name
			case trace.CommSend, trace.CommRecv:
				if err := k.CheckP2P(ev.Kind, rank, ev.Peer, ev.Tag, phase, log.N); err != nil {
					report(rank, i, err)
				}
			case trace.CommColl:
				if err := k.CheckCollective(ev.Name, phase, rank, log.N); err != nil {
					report(rank, i, err)
				}
			}
		}
	}
	if count > max && max != 0 {
		fmt.Fprintf(out, "... and %d more divergence(s)\n", count-max)
	}
	return count
}

// run parses flags and inputs and replays the log. The returned count is
// the number of divergences; a non-nil error is a usage or input problem
// (exit status 2).
func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("paverify", flag.ContinueOnError)
	skelFile := fs.String("skeleton", "skeleton.json", "skeleton JSON written by palint -skeleton")
	logFile := fs.String("commlog", "comm.json", "communication log written by patrace -commlog")
	kernel := fs.String("kernel", "", "kernel name to verify (as named in the skeleton; required)")
	max := fs.Int("max-report", 20, "print at most this many divergences (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if *kernel == "" {
		return 0, fmt.Errorf("-kernel is required")
	}
	if *max < 0 {
		return 0, fmt.Errorf("-max-report must be ≥ 0, got %d", *max)
	}

	sdata, err := os.ReadFile(*skelFile)
	if err != nil {
		return 0, err
	}
	sk, err := commspec.ParseSkeleton(sdata)
	if err != nil {
		return 0, err
	}
	k := sk.Kernel(*kernel)
	if k == nil {
		names := make([]string, 0, len(sk.Kernels))
		for _, ker := range sk.Kernels {
			names = append(names, ker.Name)
		}
		return 0, fmt.Errorf("kernel %q not in skeleton (have %v)", *kernel, names)
	}

	ldata, err := os.ReadFile(*logFile)
	if err != nil {
		return 0, err
	}
	log, err := trace.ParseCommLog(ldata)
	if err != nil {
		return 0, err
	}

	n := verify(k, log, stdout, *max)
	if n == 0 {
		fmt.Fprintf(stdout, "conformance OK: kernel %s, %d event(s) over %d rank(s), all predicted by %s\n",
			k.Name, len(log.Events), log.N, *skelFile)
	} else {
		fmt.Fprintf(stdout, "conformance FAILED: kernel %s, %d divergence(s) over %d rank(s)\n",
			k.Name, n, log.N)
	}
	return n, nil
}

func main() {
	n, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintf(os.Stderr, "paverify: %v\n", err)
		}
		os.Exit(2)
	}
	if n > 0 {
		os.Exit(1)
	}
}
