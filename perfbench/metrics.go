package main

// metric is one reported figure: its name and unit. Every workload reports
// every metric of its list, so that runs of any workload compare name by
// name.
type metric struct{ name, unit string }

// endToEnd lists the untraced run's metrics; BENCHMARK.json carries the
// same names with their bounds. Each workload's timed phase is a fixed
// amount of work, so its wall time is the figure a user waits on.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"heap_live_mb", "MB"},
	{"rss_peak_mb", "MB"},
}

// perLayer lists the traced run's metrics. The first group describes the
// workload's own timed phase; the rest come from the layer probes, which
// run the same calls in a cold process whatever the workload.
var perLayer = func() []metric {
	var out []metric
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metric{n, unit})
		}
	}
	add("ratio", "cluster.cpu_util")
	add("MB", "process.alloc_mb")
	add("count", "process.gc_cycles")
	add("ms", "process.gc_pause_ms")
	add("count", "experiments.store_hits", "experiments.store_misses")
	add("%", "obs.tracing_overhead_pct")

	for _, st := range hitStages {
		add("us", "serve.hit_stage_us."+st)
	}
	for _, st := range missStages {
		add("ms", "serve.miss_stage_ms."+st)
	}
	add("count", "serve.allocs_per_hit")
	add("B", "serve.alloc_bytes_per_hit")
	add("us", "experiments.peek_us")
	for _, k := range kernelNames {
		add("ms", "experiments.campaign_ms."+k)
	}
	add("ms", "cluster.unit_ms.cg.n1024")
	add("count", "mpi.events")
	add("ns", "mpi.ns_per_event")
	add("ratio", "mpi.replay_share")
	for _, k := range recordKernels {
		add("ms", "mpi.record_ms."+k, "mpi.replay_ms."+k)
	}
	add("ns", "mpi.replay_ns_per_op")
	for _, k := range kernelNames {
		add("ms", "npb.run_ms."+k)
	}
	add("ms", "trace.merge_ms.cg.n1024")
	add("us", "core.fit_sp_us")
	add("ms", "core.fit_fp_ms")
	add("ns", "core.predict_ns")
	add("ns", "obs.event_record_ns")
	return out
}()

// kernelNames are the seven NAS kernels in the order the paper introduces
// them; recordKernels are the three the record/replay probe times.
var (
	kernelNames   = []string{"ep", "ft", "lu", "cg", "mg", "is", "sp"}
	recordKernels = []string{"ft", "lu", "cg"}
)

// hitStages and missStages are the wide-event stages the serve probe
// reports: the lap-accounted stages a cache hit passes through, and those
// of a /robustness request, which always simulates.
var (
	hitStages  = []string{"decode", "peek", "fit", "encode", "other"}
	missStages = []string{"admission", "sweep", "encode"}
)

func unitOf(list []metric, name string) (string, bool) {
	for _, m := range list {
		if m.name == name {
			return m.unit, true
		}
	}
	return "", false
}

// runPlan is how many cold processes one run starts.
type runPlan struct {
	// setupOnly children stop after set-up: they add set-up samples
	// without the cost of a timed phase.
	setupOnly int
	// runs full children run; each metric is their median.
	runs int
}

// planFor sizes an untraced run. Each metric is the median of three full
// children, so one child that a slow spell of the shared host caught does
// not move it; the set-up-only children make the set-up median one of
// five samples on serve, whose set-up is a second of campaign measurement,
// and of thirteen on the batch workloads, whose set-up takes milliseconds.
func planFor(name string) runPlan {
	if name == "serve" {
		return runPlan{setupOnly: 2, runs: 3}
	}
	return runPlan{setupOnly: 10, runs: 3}
}
