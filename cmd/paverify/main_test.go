package main

import (
	"strings"
	"testing"

	"pasp/internal/commspec"
	"pasp/internal/trace"
)

// ftKernel mirrors the pipeline-shift kernel the extractor tests use: two
// phases, a guarded shift and one collective.
func ftKernel() *commspec.Kernel {
	return &commspec.Kernel{
		Name:   "ft",
		Phases: []string{"ft-setup", "ft-exchange"},
		Collectives: []commspec.Collective{
			{Op: "Allreduce", Phase: "ft-exchange", Pos: "skel.go:34"},
		},
		P2P: []commspec.P2P{
			{Dir: "recv", Partner: "(rank-1)", Tag: "1", Phase: "ft-exchange", Guard: "(rank>0)", Pos: "skel.go:23"},
			{Dir: "send", Partner: "(rank+1)", Tag: "1", Phase: "ft-exchange", Guard: "(rank<(N-1))", Pos: "skel.go:30"},
		},
	}
}

// ftLog builds the comm log a conformant n-rank run of the kernel would
// record.
func ftLog(n int) [][]trace.CommEvent {
	log := make([][]trace.CommEvent, n)
	for r := range log {
		log[r] = []trace.CommEvent{
			{Kind: trace.CommPhase, Name: "ft-setup"},
			{Kind: trace.CommPhase, Name: "ft-exchange"},
		}
		if r > 0 {
			log[r] = append(log[r], trace.CommEvent{Kind: trace.CommRecv, Peer: r - 1, Tag: 1, Phase: "ft-exchange"})
		}
		if r < n-1 {
			log[r] = append(log[r], trace.CommEvent{Kind: trace.CommSend, Peer: r + 1, Tag: 1, Phase: "ft-exchange"})
		}
		log[r] = append(log[r], trace.CommEvent{Kind: trace.CommColl, Name: "Allreduce", Phase: "ft-exchange"})
	}
	return log
}

// retagSends gives every send in the log tag 99, one divergence per sending
// rank.
func retagSends(log [][]trace.CommEvent) {
	for _, evs := range log {
		for i := range evs {
			if evs[i].Kind == trace.CommSend {
				evs[i].Tag = 99
			}
		}
	}
}

func TestConformantRun(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		var out strings.Builder
		if count := verify(ftKernel(), "quick", ftLog(n), &out); count != 0 {
			t.Errorf("N=%d: %d divergences on a conformant log:\n%s", n, count, out.String())
		}
		if !strings.Contains(out.String(), "conformance OK") {
			t.Errorf("N=%d: missing OK banner:\n%s", n, out.String())
		}
	}
}

func TestDivergencesDetected(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(log [][]trace.CommEvent)
		want   string
	}{
		{
			name:   "wrong tag",
			mutate: retagSends,
			want:   "tag 99",
		},
		{
			name: "unpredicted phase",
			mutate: func(log [][]trace.CommEvent) {
				log[0] = append(log[0], trace.CommEvent{Kind: trace.CommPhase, Name: "cooldown"})
			},
			want: `phase "cooldown" not predicted`,
		},
		{
			name: "unpredicted collective",
			mutate: func(log [][]trace.CommEvent) {
				log[0] = append(log[0], trace.CommEvent{Kind: trace.CommColl, Name: "Barrier", Phase: "ft-exchange"})
			},
			want: "collective Barrier",
		},
		{
			name: "guard violated",
			mutate: func(log [][]trace.CommEvent) {
				// The last rank sends although its guard rank<N-1 is false.
				log[3] = append(log[3], trace.CommEvent{Kind: trace.CommSend, Peer: 0, Tag: 1, Phase: "ft-exchange"})
			},
			want: "send rank 3",
		},
		{
			name: "inconsistent recorded phase",
			mutate: func(log [][]trace.CommEvent) {
				log[0] = append(log[0], trace.CommEvent{Kind: trace.CommColl, Name: "Allreduce", Phase: "ft-setup"})
			},
			want: "log records phase",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log := ftLog(4)
			tc.mutate(log)
			var out strings.Builder
			if count := verify(ftKernel(), "quick", log, &out); count == 0 {
				t.Fatalf("seeded divergence not detected:\n%s", out.String())
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Errorf("report missing %q:\n%s", tc.want, out.String())
			}
			if !strings.Contains(out.String(), "conformance FAILED") {
				t.Errorf("missing FAILED banner:\n%s", out.String())
			}
		})
	}
}

func TestMaxReportCapsOutput(t *testing.T) {
	const n = maxReport + 4
	log := ftLog(n)
	retagSends(log)
	var out strings.Builder
	if count := verify(ftKernel(), "quick", log, &out); count != n-1 {
		t.Fatalf("count = %d, want %d (one per sending rank)", count, n-1)
	}
	if got := strings.Count(out.String(), "divergence: "); got != maxReport {
		t.Errorf("printed %d divergence lines, want %d:\n%s", got, maxReport, out.String())
	}
	if !strings.Contains(out.String(), "and 3 more") {
		t.Errorf("missing overflow note:\n%s", out.String())
	}
}

// TestKernelsConform runs paverify's whole matrix against the module's own
// skeleton, as `go run ./cmd/paverify` does: 21 runs, each of which must
// conform. First, every expression the extraction renders must compile in
// the rank algebra: at check time a guard that does not compile passes as
// a wildcard, which would weaken the check without a word.
func TestKernelsConform(t *testing.T) {
	sk, err := skeleton()
	if err != nil {
		t.Fatal(err)
	}
	exprs := 0
	compiles := func(k, pos string, srcs ...string) {
		for _, src := range srcs {
			if src == "" { // an empty guard is unconditional
				continue
			}
			exprs++
			if _, err := commspec.Compile(src); err != nil {
				t.Errorf("kernel %s site %s: expression %q does not compile: %v", k, pos, src, err)
			}
		}
	}
	for _, k := range sk.Kernels {
		for _, c := range k.Collectives {
			compiles(k.Name, c.Pos, c.Guard)
		}
		for _, p := range k.P2P {
			compiles(k.Name, p.Pos, p.Partner, p.Tag, p.Guard)
		}
	}
	if exprs == 0 {
		t.Fatal("the skeleton renders no expression")
	}
	if t.Failed() {
		return
	}

	var out strings.Builder
	count, err := run(sk, &out)
	if err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Errorf("%d divergence(s):\n%s", count, out.String())
	}
	if got := strings.Count(out.String(), "conformance OK"); got != 21 {
		t.Errorf("%d conformance OK line(s), want 21:\n%s", got, out.String())
	}
}
