// Command paverify checks recorded NAS kernel runs against the module's
// statically extracted communication skeleton and reports every divergence:
// an observed phase transition, collective entry or message endpoint that
// no predicted site admits.
//
// Usage:
//
//	go run ./cmd/paverify
//
// It takes no flags. It loads the module it runs in and extracts the
// skeleton (analysis.BuildSkeleton): per kernel, the phases it can enter
// and every collective and point-to-point site with its phase, guard and
// partner/tag expressions over rank and N. It then records a fixed matrix
// of runs: every quick-suite kernel at N ∈ {2, 4, 8} (MG at {2, 4}: its
// quick class needs two planes per rank) and FT at N = 64 on the scale
// suite. Each run's comm log (mpi.Recording.CommLog) is walked rank by rank
// in program order, tracking the current phase (the implicit initial phase
// is "main"), and every event is checked against the kernel's predicted
// sites with the observed (rank, N) bound into the guard and partner
// expressions. The skeleton over-approximates, so a pass does not prove the
// protocol correct — but any divergence is a real disagreement between the
// code's static communication shape and what the run did.
//
// It prints one verdict line per run, after at most 20 of the run's
// divergences. Exit status: 0 when every event is predicted, 1 when
// divergences were found, 2 when the module does not load or type-check or
// a run fails.
package main

import (
	"fmt"
	"io"
	"os"

	"pasp/internal/analysis"
	"pasp/internal/commspec"
	"pasp/internal/experiments"
	"pasp/internal/mpi"
	"pasp/internal/trace"
)

// maxReport caps the divergences printed per run; the count stays exact.
const maxReport = 20

// matrixRun is one recorded run of the matrix.
type matrixRun struct {
	suite  string // "quick" or "scale"
	kernel string
	n      int
}

// matrix lists the runs paverify records: every quick-suite kernel at
// N ∈ {2, 4, 8} (MG at {2, 4}) and FT at N = 64 on the scale suite, the
// protocol past the paper's grid.
func matrix() []matrixRun {
	var runs []matrixRun
	for _, name := range experiments.Quick().KernelNames() {
		ns := []int{2, 4, 8}
		if name == "mg" {
			ns = ns[:2]
		}
		for _, n := range ns {
			runs = append(runs, matrixRun{"quick", name, n})
		}
	}
	return append(runs, matrixRun{"scale", "ft", 64})
}

// skeleton extracts the communication skeleton of the module paverify runs
// in, refusing a tree with type errors.
func skeleton() (*commspec.Skeleton, error) {
	root, pkgs, err := analysis.LoadModule([]string{"./..."})
	if err != nil {
		return nil, err
	}
	return analysis.BuildSkeleton(root, pkgs)
}

// run records every run of the matrix at its suite's lowest gear and checks
// its comm log against sk, returning the total divergence count. A non-nil
// error is a kernel missing from the skeleton or a failed run.
func run(sk *commspec.Skeleton, out io.Writer) (int, error) {
	total := 0
	for _, m := range matrix() {
		k := sk.Kernel(m.kernel)
		if k == nil {
			return total, fmt.Errorf("kernel %s missing from the skeleton", m.kernel)
		}
		s, err := experiments.SuiteByName(m.suite)
		if err != nil {
			return total, err
		}
		tape := mpi.NewRecording()
		if _, err := s.RunKernelTraced(m.kernel, m.n, s.Grid.MHz[0], nil, tape); err != nil {
			return total, fmt.Errorf("%s at N=%d on the %s suite: %w", m.kernel, m.n, m.suite, err)
		}
		total += verify(k, m.suite, tape.CommLog(), out)
	}
	return total, nil
}

// verify checks one run's comm log — each rank's events in program order —
// against kernel k, prints each divergence (at most maxReport) and a verdict
// line, and returns the divergence count.
func verify(k *commspec.Kernel, suite string, log [][]trace.CommEvent, out io.Writer) int {
	n, count, events := len(log), 0, 0
	report := func(rank, idx int, err error) {
		count++
		if count <= maxReport {
			fmt.Fprintf(out, "divergence: rank %d event %d: %v\n", rank, idx, err)
		}
	}
	for rank, evs := range log {
		events += len(evs)
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
				if err := k.CheckP2P(ev.Kind, rank, ev.Peer, ev.Tag, phase, n); err != nil {
					report(rank, i, err)
				}
			case trace.CommColl:
				if err := k.CheckCollective(ev.Name, phase, rank, n); err != nil {
					report(rank, i, err)
				}
			}
		}
	}
	if count > maxReport {
		fmt.Fprintf(out, "... and %d more divergence(s)\n", count-maxReport)
	}
	if count == 0 {
		fmt.Fprintf(out, "conformance OK: %s at N=%d on the %s suite, %d event(s), all predicted by the skeleton\n",
			k.Name, n, suite, events)
	} else {
		fmt.Fprintf(out, "conformance FAILED: %s at N=%d on the %s suite, %d divergence(s)\n",
			k.Name, n, suite, count)
	}
	return count
}

func main() {
	if len(os.Args) > 1 {
		fmt.Fprintln(os.Stderr, "usage: paverify (it takes no arguments)")
		os.Exit(2)
	}
	sk, err := skeleton()
	if err != nil {
		fmt.Fprintf(os.Stderr, "paverify: %v\n", err)
		os.Exit(2)
	}
	n, err := run(sk, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paverify: %v\n", err)
		os.Exit(2)
	}
	if n > 0 {
		os.Exit(1)
	}
}
