package mpi

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	stdruntime "runtime"
	"strings"
	"testing"

	"pasp/internal/faults"
	"pasp/internal/machine"
	"pasp/internal/papi"
	"pasp/internal/power"
	"pasp/internal/trace"
	"pasp/internal/units"
)

// checkDigestGolden compares digest lines of the form "<case> <component>
// <value>" line by line against the named testdata file, so a mismatch
// names the case and component that drifted. Lines starting with # are
// comments. The file is rewritten under -update.
func checkDigestGolden(t *testing.T, name, header string, got []string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(header+strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	var want []string
	for _, l := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if !strings.HasPrefix(l, "#") {
			want = append(want, l)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d digest lines, %s has %d", len(got), name, len(want))
	}
	for i, w := range want {
		if got[i] != w {
			f := strings.SplitN(w, " ", 3)
			t.Errorf("%s %s drifted from %s:\n got  %s\n want %s", f[0], f[1], name, got[i], w)
		}
	}
}

// resultDigest renders a result as digest lines: the timeline's SHA-256,
// makespan and energy at full precision, the summed PAPI counters and
// every rank's stats.
func resultDigest(label string, res *Result) []string {
	lines := []string{
		fmt.Sprintf("%s timeline %x", label, sha256.Sum256([]byte(res.Trace.TimelineCSV()))),
		fmt.Sprintf("%s seconds %.17g", label, res.Seconds),
		fmt.Sprintf("%s joules %.17g", label, res.Joules),
	}
	ctr := label + " counters"
	for e := papi.Event(0); e < papi.NumEvents; e++ {
		ctr += fmt.Sprintf(" %s=%.17g", e, res.Counters.Get(e))
	}
	lines = append(lines, ctr)
	for r, s := range res.PerRank {
		lines = append(lines, fmt.Sprintf("%s rank%d seconds=%.17g compute=%.17g comm=%.17g joules=%.17g msgs=%d msgbytes=%d fault=%.17g retries=%d",
			label, r, s.Seconds, s.ComputeSec, s.CommSec, s.Joules, s.Msgs, s.MsgBytes, s.FaultSec, s.Retries))
	}
	return lines
}

// TestEngineDifferential is the engine differential at the mpi level: the
// chaos program (compute, eager, rendezvous, exchange and collective paths)
// at N ∈ {2, 3, 4, 8}, clean and under a fixed chaos seed, against the
// frozen output of the retired goroutine engine. That engine was a second
// runtime sharing only the timing code, and testdata/chaos_program.golden
// holds its digests, so the file is an oracle independent of how the
// remaining engine blocks and wakes ranks.
func TestEngineDifferential(t *testing.T) {
	var got []string
	for _, n := range []int{2, 3, 4, 8} {
		for _, mode := range []struct {
			label string
			w     World
		}{{"clean", testWorld(n, 1400)}, {"chaos", chaosWorld(n, chaosCfg)}} {
			res, err := Run(mode.w, chaosProgram)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, mode.label, err)
			}
			if mode.w.Faults.Enabled() && (res.FaultSec() == 0 || res.Retries() == 0) {
				t.Errorf("n=%d: chaos run injected nothing", n)
			}
			got = append(got, resultDigest(fmt.Sprintf("n%d/%s", n, mode.label), res)...)
		}
	}
	checkDigestGolden(t, "chaos_program.golden",
		"# chaosProgram digests: <case> <component> <value>.\n# Regenerate: go test ./internal/mpi -run TestEngineDifferential -update\n", got)
}

// TestEventEngineGOMAXPROCS1 pins scheduler independence: the engine must
// produce the same bytes with the Go scheduler reduced to one P, where any
// accidental reliance on parallel wake-up order would surface.
func TestEventEngineGOMAXPROCS1(t *testing.T) {
	w := chaosWorld(4, chaosCfg)
	base, err := Run(w, chaosProgram)
	if err != nil {
		t.Fatal(err)
	}
	prev := stdruntime.GOMAXPROCS(1)
	single, err := Run(w, chaosProgram)
	stdruntime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	if base.Trace.TimelineCSV() != single.Trace.TimelineCSV() {
		t.Error("timeline changed under GOMAXPROCS=1")
	}
}

// TestEventDeadlockDetected: a program where every rank receives first can
// never progress. The engine, which sees the global blocked set, must
// detect the empty run heap and fail every rank with ErrDeadlock.
func TestEventDeadlockDetected(t *testing.T) {
	_, err := Run(testWorld(2, 600), func(c *Ctx) error {
		got, err := c.Recv(1-c.Rank(), 1)
		if err != nil {
			return err
		}
		c.Free(got)
		return c.Send(1-c.Rank(), 1, []float64{1}, 0)
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("deadlocked program returned %v, want ErrDeadlock", err)
	}
}

// TestEventEngineErrorPropagates: a failing rank must wake the ranks the
// engine has parked in a collective, and Run must prefer the root-cause
// error over the aborts it induced.
func TestEventEngineErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(testWorld(4, 600), func(c *Ctx) error {
		if c.Rank() == 2 {
			return boom
		}
		return c.Barrier()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the rank 2 root cause", err)
	}
}

// TestEventEngineTagMismatchAborts: a rendezvous-sized message parks its
// sender until the receiver reports completion. When the receiver finds the
// wrong tag instead, the parked sender must be woken and the job must fail
// with the mismatch, not with the abort it induced.
func TestEventEngineTagMismatchAborts(t *testing.T) {
	w := testWorld(2, 600)
	_, err := Run(w, func(c *Ctx) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, []float64{1}, w.Net.EagerBytes+1)
		}
		_, err := c.Recv(0, 8)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "expected tag 8") {
		t.Fatalf("tag mismatch returned %v, want the mismatch error", err)
	}
}

// TestEventEngineBackpressure: a sender streaming more than mailboxDepth
// eager messages before the receiver drains any must park on the full
// queue and resume correctly — same FIFO contents, no loss, no reordering.
func TestEventEngineBackpressure(t *testing.T) {
	const msgs = mailboxDepth + 16
	res, err := Run(testWorld(2, 600), func(c *Ctx) error {
		data := []float64{1}
		if c.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				if err := c.Send(1, i, data, 64); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			got, err := c.Recv(0, i)
			if err != nil {
				return err
			}
			c.Free(got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PerRank[0].Msgs; got != msgs {
		t.Errorf("sender delivered %d messages, want %d", got, msgs)
	}
}

// requireIdentical asserts that two results agree bit for bit: timeline,
// makespan and energy, counters and every rank's stats.
func requireIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Trace.TimelineCSV() != b.Trace.TimelineCSV() {
		t.Errorf("%s: timelines differ", label)
	}
	if a.Seconds != b.Seconds || a.Joules != b.Joules {
		t.Errorf("%s: outcome differs: %.17g s %.17g J vs %.17g s %.17g J",
			label, a.Seconds, a.Joules, b.Seconds, b.Joules)
	}
	if a.Counters != b.Counters {
		t.Errorf("%s: PAPI counters differ: %+v vs %+v", label, a.Counters, b.Counters)
	}
	for r := range a.PerRank {
		if a.PerRank[r] != b.PerRank[r] {
			t.Errorf("%s: rank %d stats differ: %+v vs %+v", label, r, a.PerRank[r], b.PerRank[r])
		}
	}
}

// recordChaos captures the chaos program at mhz into a fresh Recording.
func recordChaos(t *testing.T, n int, mhz float64, cfg faults.Config) *Recording {
	t.Helper()
	w := testWorld(n, mhz)
	w.Faults = cfg
	rec := NewRecording()
	w.Record = rec
	if _, err := Run(w, chaosProgram); err != nil {
		t.Fatal(err)
	}
	if !rec.Complete() {
		t.Fatal("recording not complete after a successful run")
	}
	return rec
}

// checkReplay records the chaos program at recMHz and replays the tape
// into a 1400 MHz world, which must be bit-identical to running the
// program directly there, clean and under chaos.
func checkReplay(t *testing.T, recMHz float64) {
	t.Helper()
	for _, cfg := range []faults.Config{{}, chaosCfg} {
		label := "clean"
		if cfg.Enabled() {
			label = "chaos"
		}
		rec := recordChaos(t, 4, recMHz, cfg)
		target := chaosWorld(4, cfg)
		direct, err := Run(target, chaosProgram)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := Replay(target, rec)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, label, direct, replayed)
	}
}

// TestReplayMatchesDirect is the record/replay contract: replaying a tape
// in a world identical to the one it was captured in reproduces the direct
// run bit for bit.
func TestReplayMatchesDirect(t *testing.T) {
	checkReplay(t, 1400)
}

// TestReplayAtOtherFrequency replays a 600 MHz tape at 1400 MHz and checks
// it against a direct 1400 MHz run — the cross-frequency property
// cluster.Sweep's replay fast path rests on.
func TestReplayAtOtherFrequency(t *testing.T) {
	checkReplay(t, 600)
}

// TestReplayReissuesNoOpSetPState: a SetPState that changes nothing at the
// recording gear still reaches the tape, because at another gear the same
// call switches. A program that pins 800 MHz, recorded at 800 MHz and
// replayed at 1400 MHz, must match the direct 1400 MHz run.
func TestReplayReissuesNoOpSetPState(t *testing.T) {
	pin := testState(800)
	prog := func(c *Ctx) error {
		c.SetPState(pin)
		if err := c.Compute(machine.W(1e6, 2e5, 1e4, 5e3)); err != nil {
			return err
		}
		return c.Barrier()
	}
	w := testWorld(2, 800)
	w.GearSwitchSec = units.Seconds(50e-6)
	rec := NewRecording()
	w.Record = rec
	if _, err := Run(w, prog); err != nil {
		t.Fatal(err)
	}
	target := testWorld(2, 1400)
	target.GearSwitchSec = w.GearSwitchSec
	direct, err := Run(target, prog)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := Replay(target, rec)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "pinned gear", direct, replayed)
}

// everyOpProgram issues all ten recorded operation kinds, in shapes that
// neither the kernels nor chaosProgram reach: Max reductions, Alltoall and
// Allgather with uneven lengths, gear switches and vbytes overrides. It
// never branches on the frequency, and each SetPState switches the gear
// whether the run started at 600 or 1400 MHz. The second Alltoall's part
// lengths follow the first's on the tape and set its timed block size, so a
// replay that misreads where they start times it differently.
func everyOpProgram(c *Ctx) error {
	n, r := c.Size(), c.Rank()
	buf := make([]float64, 8)
	parts := func(length func(d int) int) [][]float64 {
		p := make([][]float64, n)
		for d := range p {
			p[d] = buf[:length(d)]
		}
		return p
	}
	c.SetPhase("setup")
	c.SetPState(testState(1000))
	if err := c.Compute(machine.W(2e5, 1e5, 5e3, 2e3)); err != nil {
		return err
	}
	if err := c.Barrier(); err != nil {
		return err
	}
	if n > 1 {
		c.SetPhase("p2p")
		next, prev := (r+1)%n, (r+n-1)%n
		if _, err := c.SendRecv(next, prev, 3, buf[:1+r%3], 0); err != nil {
			return err
		}
		if err := c.Send(next, 4, buf[:2+r%2], 512*(r%2)); err != nil {
			return err
		}
		if _, err := c.Recv(prev, 4); err != nil {
			return err
		}
	}
	c.SetPhase("coll")
	c.SetPState(testState(800))
	steps := []func() error{
		func() error { _, err := c.Allreduce(buf[:4], Max, 0); return err },
		func() error { _, err := c.Allreduce(buf[:2], Sum, 4096); return err },
		func() error { _, err := c.Allgather(buf[:1+r%4], 0); return err },
		func() error { _, err := c.Alltoall(parts(func(d int) int { return (r + d) % 3 }), 256); return err },
		func() error { _, err := c.Alltoall(parts(func(d int) int { return 1 + (r+2*d)%5 }), 0); return err },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	c.SetPhase("setup")
	c.SetPState(testState(1200))
	return c.Compute(machine.W(1e5, 5e4, 2e3, 1e3))
}

// TestReplayEveryOpKind extends the record/replay contract to every
// recorded operation kind: everyOpProgram, recorded at 600 and at
// 1400 MHz with a gear-switch stall, clean and under chaos, replays
// bit-identically to direct runs at both gears, at N ∈ {1, 3, 4}.
func TestReplayEveryOpKind(t *testing.T) {
	world := func(n int, mhz float64, cfg faults.Config) World {
		w := testWorld(n, mhz)
		w.GearSwitchSec = units.Seconds(50e-6)
		w.Faults = cfg
		return w
	}
	for _, n := range []int{1, 3, 4} {
		for _, cfg := range []faults.Config{{}, chaosCfg} {
			direct := map[float64]*Result{}
			for _, mhz := range []float64{600, 1400} {
				res, err := Run(world(n, mhz, cfg), everyOpProgram)
				if err != nil {
					t.Fatalf("n=%d direct at %g MHz: %v", n, mhz, err)
				}
				direct[mhz] = res
			}
			for _, recMHz := range []float64{600, 1400} {
				w := world(n, recMHz, cfg)
				rec := NewRecording()
				w.Record = rec
				if _, err := Run(w, everyOpProgram); err != nil {
					t.Fatalf("n=%d record at %g MHz: %v", n, recMHz, err)
				}
				if n > 1 {
					var seen [opAllgather + 1]bool
					for _, tape := range rec.tapes {
						for _, o := range tape.ops {
							seen[o.kind] = true
						}
					}
					for k, ok := range seen {
						if !ok {
							t.Errorf("n=%d: the tape holds no operation of kind %d", n, k)
						}
					}
				}
				for _, mhz := range []float64{600, 1400} {
					replayed, err := Replay(world(n, mhz, cfg), rec)
					if err != nil {
						t.Fatalf("n=%d replay at %g MHz: %v", n, mhz, err)
					}
					requireIdentical(t, fmt.Sprintf("n=%d chaos=%t recorded at %g, replayed at %g MHz", n, cfg.Enabled(), recMHz, mhz), direct[mhz], replayed)
				}
			}
		}
	}
}

// TestRecordingSingleUse: a Recording attaches to exactly one run, rejects
// replay before completion, rejects rank-count mismatches, and recording
// refuses an OnPhase hook.
func TestRecordingSingleUse(t *testing.T) {
	rec := recordChaos(t, 2, 600, faults.Config{})

	w := testWorld(2, 600)
	w.Record = rec
	if _, err := Run(w, chaosProgram); err == nil {
		t.Error("reattaching a used Recording succeeded")
	}

	fresh := NewRecording()
	if _, err := Replay(testWorld(2, 600), fresh); err == nil {
		t.Error("replaying an empty Recording succeeded")
	}
	if _, err := Replay(testWorld(4, 600), rec); err == nil {
		t.Error("replaying at the wrong rank count succeeded")
	}

	hooked := testWorld(2, 600)
	hooked.Record = NewRecording()
	hooked.OnPhase = func(c *Ctx, phase string) {}
	if _, err := Run(hooked, chaosProgram); err == nil {
		t.Error("recording with an OnPhase hook succeeded")
	}
}

// TestRecordingCommLog pins the tape's protocol projection: phases start
// from "main", compute and P-state operations drop out, a SendRecv becomes
// a send to its destination then a receive from its source, every
// collective is named after its Ctx method, and the log is rank-major.
func TestRecordingCommLog(t *testing.T) {
	const n = 3
	fast, err := power.PentiumM().StateAt(units.MHz(1400))
	if err != nil {
		t.Fatal(err)
	}
	prog := func(c *Ctx) error {
		r := c.Rank()
		buf := make([]float64, 4)
		parts := [][]float64{buf, buf, buf}
		if err := c.Barrier(); err != nil {
			return err
		}
		c.SetPhase("ring")
		if err := c.Compute(machine.W(1e4, 1e3, 0, 0)); err != nil {
			return err
		}
		c.SetPState(fast)
		got, err := c.SendRecv((r+1)%n, (r+n-1)%n, 5, buf, 0)
		if err != nil {
			return err
		}
		c.Free(got)
		switch r {
		case 0:
			err = c.Send(1, 6, buf, 0)
		case 1:
			_, err = c.Recv(0, 6)
		}
		if err != nil {
			return err
		}
		c.SetPhase("coll")
		for _, call := range []func() error{
			func() error { _, err := c.Allreduce(buf, Sum, 0); return err },
			func() error { _, err := c.Alltoall(parts, 0); return err },
			func() error { _, err := c.Allgather(buf, 0); return err },
		} {
			if err := call(); err != nil {
				return err
			}
		}
		return nil
	}
	w := testWorld(n, 600)
	tape := NewRecording()
	w.Record = tape
	if _, err := Run(w, prog); err != nil {
		t.Fatal(err)
	}

	var want []trace.CommEvent
	for r := 0; r < n; r++ {
		want = append(want,
			trace.CommEvent{Rank: r, Kind: trace.CommColl, Name: "Barrier", Phase: "main"},
			trace.CommEvent{Rank: r, Kind: trace.CommPhase, Name: "ring"},
			trace.CommEvent{Rank: r, Kind: trace.CommSend, Peer: (r + 1) % n, Tag: 5, Phase: "ring"},
			trace.CommEvent{Rank: r, Kind: trace.CommRecv, Peer: (r + n - 1) % n, Tag: 5, Phase: "ring"})
		switch r {
		case 0:
			want = append(want, trace.CommEvent{Rank: r, Kind: trace.CommSend, Peer: 1, Tag: 6, Phase: "ring"})
		case 1:
			want = append(want, trace.CommEvent{Rank: r, Kind: trace.CommRecv, Peer: 0, Tag: 6, Phase: "ring"})
		}
		want = append(want, trace.CommEvent{Rank: r, Kind: trace.CommPhase, Name: "coll"})
		for _, op := range []string{"Allreduce", "Alltoall", "Allgather"} {
			want = append(want, trace.CommEvent{Rank: r, Kind: trace.CommColl, Name: op, Phase: "coll"})
		}
	}
	log := tape.CommLog()
	if log.N != n || len(log.Events) != len(want) {
		t.Fatalf("log has N = %d and %d events, want %d and %d:\n%+v", log.N, len(log.Events), n, len(want), log.Events)
	}
	for i := range want {
		if log.Events[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, log.Events[i], want[i])
		}
	}
}
