package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pasp/internal/analysis"
	"pasp/internal/commspec"
	"pasp/internal/experiments"
	"pasp/internal/mpi"
	"pasp/internal/trace"
)

// ftSkeleton mirrors the pipeline-shift kernel the extractor tests use:
// two phases, a guarded shift and one collective.
func ftSkeleton() *commspec.Skeleton {
	return &commspec.Skeleton{
		Module: "pasp",
		Kernels: []commspec.Kernel{{
			Name:   "ft",
			Func:   "skel.(FT).Run",
			Phases: []string{"ft-setup", "ft-exchange"},
			Collectives: []commspec.Collective{
				{Op: "Allreduce", Phase: "ft-exchange", Pos: "skel.go:34"},
			},
			P2P: []commspec.P2P{
				{Dir: "recv", Partner: "(rank-1)", Tag: "1", Phase: "ft-exchange", Guard: "(rank>0)", Pos: "skel.go:23"},
				{Dir: "send", Partner: "(rank+1)", Tag: "1", Phase: "ft-exchange", Guard: "(rank<(N-1))", Pos: "skel.go:30"},
			},
		}},
	}
}

// ftLog builds the rank-major log a conformant n-rank run of the kernel
// would record.
func ftLog(n int) *trace.CommLog {
	l := &trace.CommLog{N: n}
	for r := 0; r < n; r++ {
		l.Events = append(l.Events,
			trace.CommEvent{Rank: r, Kind: trace.CommPhase, Name: "ft-setup"},
			trace.CommEvent{Rank: r, Kind: trace.CommPhase, Name: "ft-exchange"},
		)
		if r > 0 {
			l.Events = append(l.Events, trace.CommEvent{Rank: r, Kind: trace.CommRecv, Peer: r - 1, Tag: 1, Phase: "ft-exchange"})
		}
		if r < n-1 {
			l.Events = append(l.Events, trace.CommEvent{Rank: r, Kind: trace.CommSend, Peer: r + 1, Tag: 1, Phase: "ft-exchange"})
		}
		l.Events = append(l.Events, trace.CommEvent{Rank: r, Kind: trace.CommColl, Name: "Allreduce", Phase: "ft-exchange"})
	}
	return l
}

// write writes the skeleton and log fixtures into dir and returns their
// paths.
func write(t *testing.T, dir string, sk *commspec.Skeleton, log *trace.CommLog) (string, string) {
	t.Helper()
	sdata, err := sk.JSON()
	if err != nil {
		t.Fatal(err)
	}
	ldata, err := json.Marshal(log)
	if err != nil {
		t.Fatal(err)
	}
	sfile := filepath.Join(dir, "skeleton.json")
	lfile := filepath.Join(dir, "comm.json")
	if err := os.WriteFile(sfile, sdata, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(lfile, ldata, 0o644); err != nil {
		t.Fatal(err)
	}
	return sfile, lfile
}

func TestConformantRun(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		sfile, lfile := write(t, t.TempDir(), ftSkeleton(), ftLog(n))
		var out strings.Builder
		count, err := run([]string{"-skeleton", sfile, "-commlog", lfile, "-kernel", "ft"}, &out)
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if count != 0 {
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
		mutate func(l *trace.CommLog)
		want   string
	}{
		{
			name: "wrong tag",
			mutate: func(l *trace.CommLog) {
				for i := range l.Events {
					if l.Events[i].Kind == trace.CommSend {
						l.Events[i].Tag = 99
					}
				}
			},
			want: "tag 99",
		},
		{
			name: "unpredicted phase",
			mutate: func(l *trace.CommLog) {
				l.Events = append(l.Events, trace.CommEvent{Rank: 0, Kind: trace.CommPhase, Name: "cooldown"})
			},
			want: `phase "cooldown" not predicted`,
		},
		{
			name: "unpredicted collective",
			mutate: func(l *trace.CommLog) {
				l.Events = append(l.Events, trace.CommEvent{Rank: 0, Kind: trace.CommColl, Name: "Barrier", Phase: "ft-exchange"})
			},
			want: "collective Barrier",
		},
		{
			name: "guard violated",
			mutate: func(l *trace.CommLog) {
				// The last rank sends although its guard rank<N-1 is false.
				l.Events = append(l.Events, trace.CommEvent{Rank: 3, Kind: trace.CommSend, Peer: 0, Tag: 1, Phase: "ft-exchange"})
			},
			want: "send rank 3",
		},
		{
			name: "inconsistent recorded phase",
			mutate: func(l *trace.CommLog) {
				l.Events = append(l.Events, trace.CommEvent{Rank: 0, Kind: trace.CommColl, Name: "Allreduce", Phase: "ft-setup"})
			},
			want: "log records phase",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := ftLog(4)
			tc.mutate(l)
			sfile, lfile := write(t, t.TempDir(), ftSkeleton(), l)
			var out strings.Builder
			count, err := run([]string{"-skeleton", sfile, "-commlog", lfile, "-kernel", "ft"}, &out)
			if err != nil {
				t.Fatal(err)
			}
			if count == 0 {
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
	l := ftLog(4)
	for i := range l.Events {
		if l.Events[i].Kind == trace.CommSend {
			l.Events[i].Tag = 99
		}
	}
	sfile, lfile := write(t, t.TempDir(), ftSkeleton(), l)
	var out strings.Builder
	count, err := run([]string{"-skeleton", sfile, "-commlog", lfile, "-kernel", "ft", "-max-report", "1"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3 (one per sending rank)", count)
	}
	if got := strings.Count(out.String(), "divergence: "); got != 1 {
		t.Errorf("printed %d divergence lines, want 1:\n%s", got, out.String())
	}
	if !strings.Contains(out.String(), "and 2 more") {
		t.Errorf("missing overflow note:\n%s", out.String())
	}
}

func TestUsageErrors(t *testing.T) {
	sfile, lfile := write(t, t.TempDir(), ftSkeleton(), ftLog(2))
	cases := []struct {
		name string
		args []string
	}{
		{"missing kernel flag", []string{"-skeleton", sfile, "-commlog", lfile}},
		{"unknown kernel", []string{"-skeleton", sfile, "-commlog", lfile, "-kernel", "nope"}},
		{"missing skeleton file", []string{"-skeleton", sfile + ".gone", "-commlog", lfile, "-kernel", "ft"}},
		{"missing commlog file", []string{"-skeleton", sfile, "-commlog", lfile + ".gone", "-kernel", "ft"}},
		{"negative max-report", []string{"-skeleton", sfile, "-commlog", lfile, "-kernel", "ft", "-max-report", "-1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if _, err := run(tc.args, &out); err == nil {
				t.Errorf("run(%v) succeeded, want usage error", tc.args)
			}
		})
	}
}

func TestMalformedInputsAreUsageErrors(t *testing.T) {
	dir := t.TempDir()
	sfile, lfile := write(t, dir, ftSkeleton(), ftLog(2))
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if _, err := run([]string{"-skeleton", bad, "-commlog", lfile, "-kernel", "ft"}, &out); err == nil {
		t.Error("malformed skeleton accepted")
	}
	if _, err := run([]string{"-skeleton", sfile, "-commlog", bad, "-kernel", "ft"}, &out); err == nil {
		t.Error("malformed comm log accepted")
	}
}

// TestKernelsConform checks every NAS kernel's real runs against the real
// skeleton: it extracts the module's communication skeleton in-process, as
// `palint -skeleton` does, records each quick-suite kernel at N ∈ {2, 4, 8}
// (MG at {2, 4}: its quick class needs two planes per rank) and requires
// every event of the recording's comm log to be predicted.
func TestKernelsConform(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	module, err := analysis.ModulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := analysis.BuildSkeleton(root, module, pkgs, analysis.NewProgram(pkgs))
	if err != nil {
		t.Fatal(err)
	}
	s := experiments.Quick()
	for _, name := range s.KernelNames() {
		k := sk.Kernel(name)
		if k == nil {
			t.Fatalf("kernel %s missing from the skeleton", name)
		}
		ns := []int{2, 4, 8}
		if name == "mg" {
			ns = ns[:2]
		}
		for _, n := range ns {
			tape := mpi.NewRecording()
			if _, err := s.RunKernelTraced(name, n, s.Grid.MHz[0], nil, tape); err != nil {
				t.Fatalf("%s at N=%d: %v", name, n, err)
			}
			var out strings.Builder
			if count := verify(k, tape.CommLog(), &out, 0); count != 0 {
				t.Errorf("%s at N=%d: %d divergence(s):\n%s", name, n, count, out.String())
			}
		}
	}
}
