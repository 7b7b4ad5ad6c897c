package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"pasp/internal/cluster"
	"pasp/internal/core"
	"pasp/internal/experiments"
	"pasp/internal/mpi"
	"pasp/internal/obs"
	"pasp/internal/serve"
	"pasp/internal/trace"
)

// The probes call each layer directly, where a workload's call structure
// hides the layer's boundary from outside. They run in a cold process of
// their own, the same calls whatever the workload, so that every workload
// reports every per-layer metric and the campaigns they time start cold.

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// perCallNs times n calls of f and returns the mean nanoseconds of one.
func perCallNs(n int, f func()) float64 {
	begin := now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(now().Sub(begin).Nanoseconds()) / float64(n)
}

// runProbes measures every kernel's campaign cold on the paper suite, then
// times the layers on it and sweeps one 1024-rank unit of the scale suite.
func runProbes(cfg runConfig, res *childResult) error {
	s := experiments.Paper()
	for _, k := range kernelNames {
		d, err := cfg.tr.timed(-1, "experiments:campaign:"+k, func() error {
			_, err := s.MeasureKernel(context.Background(), k)
			return err
		})
		if err != nil {
			return err
		}
		res.Metrics["experiments.campaign_ms."+k] = ms(d)
	}
	if err := paperProbes(cfg.tr, s, res.Metrics); err != nil {
		return err
	}
	if err := recordReplayProbe(cfg.tr, s, res.Metrics); err != nil {
		return err
	}
	res.Metrics["obs.event_record_ns"] = eventRecordProbe(cfg.tr)
	if err := serveProbe(cfg, s, res); err != nil {
		return err
	}
	return scaleProbe(cfg.tr, res)
}

// paperProbes times the paper suite's per-call layers: Kernel.Peek on a
// measured campaign, one direct run of each kernel at N = 4 and the base
// gear, and the SP/FP fits and one SP prediction on FT's campaign.
func paperProbes(tr *tracer, s experiments.Suite, out map[string]float64) error {
	k, err := s.Kernel("ft")
	if err != nil {
		return err
	}
	camp, ok := k.Peek()
	if !ok {
		return fmt.Errorf("probes: FT campaign not measured")
	}
	sp := tr.start(-1, "experiments:peek", -1)
	out["experiments.peek_us"] = perCallNs(2000, func() { k.Peek() }) / 1e3
	sp.end()
	for _, name := range kernelNames {
		d, err := tr.timed(-1, "npb:run:"+name, func() error {
			_, err := s.RunKernelOnce(name, 4, s.Grid.MHz[0])
			return err
		})
		if err != nil {
			return err
		}
		out["npb.run_ms."+name] = ms(d)
	}
	var fit *core.SP
	d, err := tr.timed(-1, "core:fit_sp", func() error {
		var err error
		fit, err = core.FitSP(camp.Meas)
		return err
	})
	if err != nil {
		return err
	}
	out["core.fit_sp_us"] = d.Seconds() * 1e6
	d, err = tr.timed(-1, "core:fit_fp", func() error {
		_, err := s.FitFP(camp, k.Grid)
		return err
	})
	if err != nil {
		return err
	}
	out["core.fit_fp_ms"] = ms(d)
	n, f := k.Grid.Ns[len(k.Grid.Ns)-1], k.Grid.MHz[0]
	sp = tr.start(-1, "core:predict", -1)
	var perr error
	out["core.predict_ns"] = perCallNs(100000, func() { predictSink, perr = fit.PredictTime(n, f) })
	sp.end()
	return perr
}

// recordReplayProbe records FT, LU and CG at N = 16 on the base gear and
// replays each tape at the top gear: the frequency axis of every sweep.
func recordReplayProbe(tr *tracer, s experiments.Suite, out map[string]float64) error {
	lo, hi := s.Grid.MHz[0], s.Grid.MHz[len(s.Grid.MHz)-1]
	var replayNs float64
	ops := 0
	for _, name := range recordKernels {
		k, err := s.Kernel(name)
		if err != nil {
			return err
		}
		rec := mpi.NewRecording()
		w, err := s.Platform.World(16, lo)
		if err != nil {
			return err
		}
		w.Record = rec
		d, err := tr.timed(-1, "mpi:record:"+name, func() error {
			_, err := k.Run(w)
			return err
		})
		if err != nil {
			return err
		}
		out["mpi.record_ms."+name] = ms(d)
		w2, err := s.Platform.World(16, hi)
		if err != nil {
			return err
		}
		d, err = tr.timed(-1, "mpi:replay:"+name, func() error {
			_, err := mpi.Replay(w2, rec)
			return err
		})
		if err != nil {
			return err
		}
		out["mpi.replay_ms."+name] = ms(d)
		replayNs += float64(d.Nanoseconds())
		for r := 0; r < rec.N(); r++ {
			ops += rec.Ops(r)
		}
	}
	out["mpi.replay_ns_per_op"] = replayNs / float64(ops)
	return nil
}

// predictSink keeps the timed prediction from being optimized away.
var predictSink float64

// eventRecordProbe times EventLog.Record on a ring-only log.
func eventRecordProbe(tr *tracer) float64 {
	l := obs.NewEventLog(nil, obs.DefaultEventRing)
	ev := obs.Event{ID: "0123456789abcdef", Target: "predict", Kernel: "ft", N: 4, MHz: 1400, Status: 200,
		Cache: "hit", DecodeS: 1e-6, PeekS: 2e-6, FitS: 3e-6, EncodeS: 4e-6, TotalS: 1e-5}
	sp := tr.start(-1, "obs:event_record", -1)
	ns := perCallNs(200000, func() { l.Record(ev) })
	sp.end()
	return ns
}

// probeHits is how many hits of the serve workload's mix each probe
// server answers.
const probeHits = 5000

// serveProbe sends the serve workload's requests to two servers over the
// probe's measured suite, in process and from one caller. To one with
// telemetry off it sends probeHits hits, for the allocations per hit; to
// one with a ring-only wide-event log it sends as many again, then the
// /robustness requests of the busy list, which always simulate, for the
// lap-accounted stages of hits and misses. A /sweep of every kernel
// checks each cold campaign against its recorded body.
func serveProbe(cfg runConfig, s experiments.Suite, res *childResult) error {
	events := obs.NewEventLog(nil, 2*probeHits)
	logged := serve.New(serve.Config{Suite: s, SuiteName: "paper", Events: events}).Handler()
	st, err := newServeState(s, serve.New(serve.Config{Suite: s, SuiteName: "paper"}).Handler(), cfg.seed, probeHits)
	if err != nil {
		return err
	}
	for _, err := range st.verifyErr {
		res.record("probe", err)
	}
	c := newClient(logged, cfg.tr, 0)
	for _, r := range st.busy {
		if r.path == "/sweep" {
			code, body, _ := c.do(r)
			res.record("probe", st.chk.check(r, code, body))
		}
	}

	var next atomic.Uint64
	var log phaseLog
	p0 := readProc()
	st.hitLoop(newClient(st.h, nil, 0), &next, probeHits, nil, &log)
	d := p0.to(readProc())
	res.Metrics["serve.allocs_per_hit"] = float64(d.allocObjs) / probeHits
	res.Metrics["serve.alloc_bytes_per_hit"] = float64(d.allocBytes) / probeHits

	next.Store(0)
	sp := cfg.tr.start(-1, "serve:hits", -1)
	st.hitLoop(c, &next, probeHits, nil, &log)
	sp.end()
	recordLog(res, "probe", &log)
	for _, r := range st.busy {
		if r.path == "/robustness" {
			code, body, _ := c.do(r)
			res.record("probe", st.chk.check(r, code, body))
		}
	}
	evs := events.Snapshot()
	stageMedians(res.Metrics, "serve.hit_stage_us.", 1e6, hitStages, evs,
		func(e *obs.Event) bool { return e.Target == "predict" && e.Cache == "hit" })
	stageMedians(res.Metrics, "serve.miss_stage_ms.", 1e3, missStages, evs,
		func(e *obs.Event) bool { return e.Target == "robustness" })
	return nil
}

// stageMedians sets prefix+stage to the median, in the given scale, of
// each named wide-event stage over the events keep selects.
func stageMedians(out map[string]float64, prefix string, scale float64, stages []string, evs []obs.Event, keep func(*obs.Event) bool) {
	idx := map[string]int{}
	for i, n := range obs.StageNames {
		idx[n] = i
	}
	for _, st := range stages {
		var vs []float64
		for i := range evs {
			if keep(&evs[i]) {
				vs = append(vs, evs[i].Stages()[idx[st]])
			}
		}
		if len(vs) > 0 {
			out[prefix+st] = median(vs) * scale
		}
	}
}

// scaleProbe sweeps CG at 1024 ranks at both gears on the scale suite, the
// heaviest CG unit of sweep-scale, with the RunFunc wrapped so the record
// run is timed apart from the replay. It checks both cells against the
// sweep-scale table and times trace.Merge over the per-rank logs of the
// record run's result.
func scaleProbe(tr *tracer, res *childResult) error {
	state, err := setupScale(runConfig{})
	if err != nil {
		return err
	}
	st := state.(*scaleState)
	k, err := st.s.Kernel("cg")
	if err != nil {
		return err
	}
	var record time.Duration
	sp := tr.start(-1, "cluster:unit:cg.n1024", -1)
	run := func(w mpi.World) (*mpi.Result, error) {
		rs := tr.start(sp.id, "npb:record:cg.n1024", -1)
		begin := now()
		r, err := k.Run(w)
		record += now().Sub(begin)
		rs.end()
		return r, err
	}
	begin := now()
	cells, err := cluster.Sweep(context.Background(), st.s.Platform, cluster.Grid{Ns: []int{1024}, MHz: st.s.Grid.MHz}, run)
	total := now().Sub(begin)
	sp.end()
	if err != nil {
		return fmt.Errorf("probes: CG N=1024 sweep: %w", err)
	}
	events := 0
	for _, c := range cells {
		res.record("probe", st.checkCell("cg", c))
		events += c.Res.Trace.Len()
	}
	if events <= 0 {
		return fmt.Errorf("probes: CG N=1024 sweep simulated no events")
	}
	res.Metrics["cluster.unit_ms.cg.n1024"] = ms(total)
	res.Metrics["mpi.events"] = float64(events)
	res.Metrics["mpi.ns_per_event"] = float64(total.Nanoseconds()) / float64(events)
	res.Metrics["mpi.replay_share"] = (total - record).Seconds() / total.Seconds()
	res.Metrics["trace.merge_ms.cg.n1024"] = mergeProbe(tr, cells[0].Res)
	return nil
}

// mergeProbe splits one run's merged trace back into per-rank logs and
// times trace.Merge over them.
func mergeProbe(tr *tracer, r *mpi.Result) float64 {
	logs := make([]*trace.Log, len(r.PerRank))
	for i := range logs {
		logs[i] = &trace.Log{}
	}
	for _, e := range r.Trace.Events() {
		logs[e.Rank].Append(e)
	}
	sp := tr.start(-1, "trace:merge:cg.n1024", -1, obs.F("events", float64(r.Trace.Len())))
	begin := now()
	trace.Merge(logs...)
	d := now().Sub(begin)
	sp.end()
	return ms(d)
}
