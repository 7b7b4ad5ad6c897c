package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"pasp/internal/obs"
)

// procSample is one reading of the process counters the benchmark charges
// to a phase. Every reading is taken the same way, and phase figures are
// differences of two readings, so set-up work never leaks into a phase.
type procSample struct {
	wall       time.Time
	cpu        time.Duration // user + system CPU time of the process
	allocBytes uint64
	allocObjs  uint64
	gcCycles   uint64
	gcPause    time.Duration
}

var procMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(procMetrics))
	copy(s, procMetrics)
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		wall:       now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcPause:    time.Duration(ms.PauseTotalNs),
	}
}

// phaseDelta is what a phase cost the process between two readings.
type phaseDelta struct {
	wall, cpu  time.Duration
	allocBytes uint64
	allocObjs  uint64
	gcCycles   uint64
	gcPause    time.Duration
}

func (a procSample) to(b procSample) phaseDelta {
	return phaseDelta{
		wall:       b.wall.Sub(a.wall),
		cpu:        b.cpu - a.cpu,
		allocBytes: b.allocBytes - a.allocBytes,
		allocObjs:  b.allocObjs - a.allocObjs,
		gcCycles:   b.gcCycles - a.gcCycles,
		gcPause:    b.gcPause - a.gcPause,
	}
}

// cpuUtil is the phase's CPU time over the CPU time GOMAXPROCS workers
// could have spent in it.
func (d phaseDelta) cpuUtil() float64 {
	return d.cpu.Seconds() / (d.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
}

// processMetrics renders the Go runtime's view of a phase and the
// process's CPU utilization over it.
func (d phaseDelta) processMetrics(out map[string]float64) {
	out["process.alloc_mb"] = float64(d.allocBytes) / (1 << 20)
	out["process.gc_cycles"] = float64(d.gcCycles)
	out["process.gc_pause_ms"] = d.gcPause.Seconds() * 1e3
	out["cluster.cpu_util"] = d.cpuUtil()
}

// storeCounters reads the campaign store's counters from the process
// registry.
func storeCounters(out map[string]float64) {
	snap := obs.Default().Snapshot()
	out["experiments.store_hits"] = snap.Counter("store.hits")
	out["experiments.store_misses"] = snap.Counter("store.misses")
}

// endPhase closes a timed phase that began at p0: its wall time, what it
// cost the process, the store's counters, and memory, read last.
func endPhase(res *childResult, p0 procSample) {
	d := p0.to(readProc())
	res.Metrics["wall_s"] = d.wall.Seconds()
	d.processMetrics(res.Metrics)
	storeCounters(res.Metrics)
	res.Metrics["heap_live_mb"] = heapLiveMB()
	res.Metrics["rss_peak_mb"] = rssPeakMB()
}

// heapLiveMB forces a collection and returns the heap still in use: the
// same reading every time, independent of where the collector's pacing
// happened to be when the phase ended.
func heapLiveMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// rssPeakMB is this process's own peak resident set size.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports kilobytes
}
