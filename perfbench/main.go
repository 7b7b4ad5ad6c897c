// Command perfbench is the repository's end-to-end benchmark. It drives the
// simulator only through its public functions — experiments.Suite methods,
// cluster.Sweep and serve.Server.Handler — checks every output against
// values recorded at a known-good commit, and prints one JSON result line.
// Run it from the repository root, where it reads the serving contract
// goldens and writes its traces:
//
//	bash perfbench/run.sh --workload repro-paper --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//	repro-paper  every table, figure, ablation and extension of the paper
//	             reproduction, once each, in a cold process
//	sweep-scale  the scale suite swept at every rank count each kernel
//	             accepts, up to 1024 ranks, at both gears
//	serve        in-process traffic through the HTTP handler: a cache-hit
//	             phase, then hits beside a fixed list of simulations
//
// The campaign store is process-global and never evicts, so every
// measurement runs in a fresh child process; the parent aggregates the
// children's figures by median. Every workload reports the same metrics.
// With -trace 1 the parent runs an untraced, a traced and a probe child
// instead and reports the per-layer metrics: the traced child times the
// calls into each layer from outside, and the probe child calls each layer
// directly.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"

	"pasp/internal/experiments"
	"pasp/internal/obs"
)

// phaseCount is what one phase of a workload sent and how it ended. An
// operation whose output differs from the recorded value counts as failed.
type phaseCount struct {
	Name      string `json:"name"`
	Sent      int    `json:"sent"`
	Succeeded int    `json:"succeeded"`
	Failed    int    `json:"failed"`
}

// childResult is the one JSON line a child process prints.
type childResult struct {
	// SetupDone is the wall clock, in Unix nanoseconds, at which the timed
	// phase started; the parent subtracts the child's spawn time.
	SetupDone int64              `json:"setup_done_unix_ns"`
	Phases    []phaseCount       `json:"phases,omitempty"`
	Metrics   map[string]float64 `json:"metrics,omitempty"`
	Failures  []string           `json:"failures,omitempty"`
}

// phase returns the named phase's tally, adding it on first use.
func (r *childResult) phase(name string) *phaseCount {
	for i := range r.Phases {
		if r.Phases[i].Name == name {
			return &r.Phases[i]
		}
	}
	r.Phases = append(r.Phases, phaseCount{Name: name})
	return &r.Phases[len(r.Phases)-1]
}

// record tallies one operation of a phase; the first few failure reasons
// travel to the parent for its log.
func (r *childResult) record(phase string, err error) {
	p := r.phase(phase)
	p.Sent++
	if err == nil {
		p.Succeeded++
		return
	}
	p.Failed++
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, phase+": "+err.Error())
	}
}

// runConfig is what a child knows about its run.
type runConfig struct {
	seed uint64
	// tr is nil in untraced runs; traced runs open a span around every
	// call into a layer.
	tr *tracer
}

// workloads maps each workload name to its child-side body. setup returns
// the state the timed phase needs; timed runs it and fills res.
type workload struct {
	setup func(cfg runConfig) (any, error)
	timed func(cfg runConfig, state any, res *childResult) error
}

var workloads = map[string]workload{
	"repro-paper": {setup: setupRepro, timed: timedRepro},
	"sweep-scale": {setup: setupScale, timed: timedScale},
	"serve":       {setup: setupServe, timed: timedServe},
}

func main() {
	name := flag.String("workload", "", "workload to run (repro-paper, sweep-scale, serve)")
	seed := flag.Uint64("seed", 1, "seed for the workload's generated inputs")
	// Every run does a fixed amount of work, about 30 s of timed phases on
	// two CPUs, so that its wall time is the figure compared; the flag is
	// part of the benchmark's command line and is checked, not used.
	seconds := flag.Float64("seconds", 30, "nominal measurement time of one run, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	child := flag.String("child", "", "internal: run one cold process (run, traced, setup or probe)")
	flag.StringVar(&recordDir, "record", "", "with -child: record the outputs into DIR/<workload>.tsv instead of checking them")
	flag.Parse()
	if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: -seconds must be positive\n")
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1\n")
		os.Exit(2)
	}
	var err error
	if *child != "" {
		err = runChild(*name, *child, runConfig{seed: *seed}, os.Stdout)
	} else {
		err = runParent(*name, *seed, *trace == 1, os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// runChild is one cold process: it refuses to time anything unless the
// campaign store is empty, runs set-up, then the timed phase (or, in probe
// mode, the layer probes instead of either), and prints its childResult as
// the last line.
func runChild(name, mode string, cfg runConfig, stdout io.Writer) error {
	if n := experiments.CampaignStoreSize(); n != 0 {
		return fmt.Errorf("campaign store holds %d campaigns at start; runs must start cold", n)
	}
	if m := obs.Default().Snapshot().Counter("store.misses"); m != 0 {
		return fmt.Errorf("store.misses reads %g at start; runs must start cold", m)
	}
	if mode == "traced" || mode == "probe" {
		cfg.tr = newTracer()
	}
	res := &childResult{Metrics: map[string]float64{}}
	if mode == "probe" {
		if err := runProbes(cfg, res); err != nil {
			return err
		}
	} else {
		w := workloads[name]
		state, err := w.setup(cfg)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		res.SetupDone = now().UnixNano()
		if mode != "setup" {
			if err := w.timed(cfg, state, res); err != nil {
				return err
			}
		}
	}
	if cfg.tr != nil {
		if err := cfg.tr.write(name+"-"+mode, cfg.seed); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// spawn runs one child process to completion and returns its result with
// setup_s filled in from the spawn time.
func spawn(name, mode string, seed uint64) (*childResult, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(exe, "-child", mode, "-workload", name,
		"-seed", strconv.FormatUint(seed, 10))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	start := now()
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("%s child (%s): %w", name, mode, err)
	}
	var last []byte
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res childResult
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, 0, fmt.Errorf("%s child (%s): unreadable result %q: %w", name, mode, last, err)
	}
	setup := float64(res.SetupDone-start.UnixNano()) / 1e9
	return &res, setup, nil
}

// runParent runs the cold processes of one benchmark run, aggregates them
// and prints the report followed by the JSON result line. An untraced run
// reports the end-to-end metrics: set-up-only children add set-up samples,
// full children the rest, and each metric is the median over them. A
// traced run reports the per-layer metrics: one untraced child measures
// the workload's timed phase, one traced child writes its spans and gives
// the tracing overhead, and one probe child times the layers directly.
func runParent(name string, seed uint64, traced bool, stdout io.Writer) error {
	if traced {
		var runs []*childResult
		for _, mode := range []string{"run", "traced", "probe"} {
			res, _, err := spawn(name, mode, seed)
			if err != nil {
				return err
			}
			runs = append(runs, res)
		}
		layer := runs[2].Metrics
		for k, v := range runs[0].Metrics {
			layer[k] = v
		}
		base, over := runs[0].Metrics["wall_s"], runs[1].Metrics["wall_s"]
		if base <= 0 {
			return fmt.Errorf("untraced wall_s is %g; no overhead base", base)
		}
		layer["obs.tracing_overhead_pct"] = (over/base - 1) * 100
		return report(stdout, name, runs, layer, perLayer)
	}
	plan := planFor(name)
	var runs []*childResult
	var setups []float64
	for i := 0; i < plan.setupOnly+plan.runs; i++ {
		mode := "setup"
		if i >= plan.setupOnly {
			mode = "run"
		}
		res, s, err := spawn(name, mode, seed)
		if err != nil {
			return err
		}
		setups = append(setups, s)
		if mode == "run" {
			runs = append(runs, res)
		}
	}
	metrics := map[string]float64{"setup_s": median(setups)}
	keys := make([]string, 0, len(runs[0].Metrics))
	for k := range runs[0].Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var vs []float64
		for _, r := range runs {
			if v, ok := r.Metrics[k]; ok {
				vs = append(vs, v)
			}
		}
		metrics[k] = median(vs)
	}
	return report(stdout, name, runs, metrics, endToEnd)
}

// report prints the per-phase operation counts, every metric of list by
// name with its unit, the other figures the children measured as detail
// lines, and the JSON result line that ends the output. It fails if a
// metric of list was not measured.
func report(stdout io.Writer, name string, runs []*childResult, metrics map[string]float64, list []metric) error {
	type phaseTotal struct{ sent, ok, failed int }
	totals := map[string]*phaseTotal{}
	var order []string
	attempted, failed := 0, 0
	for _, r := range runs {
		for _, p := range r.Phases {
			t, ok := totals[p.Name]
			if !ok {
				t = &phaseTotal{}
				totals[p.Name] = t
				order = append(order, p.Name)
			}
			t.sent += p.Sent
			t.ok += p.Succeeded
			t.failed += p.Failed
			attempted += p.Sent
			failed += p.Failed
		}
		for _, f := range r.Failures {
			fmt.Fprintf(os.Stderr, "perfbench: %s: failed: %s\n", name, f)
		}
	}
	if attempted == 0 {
		return errors.New("no operation was attempted")
	}
	for _, p := range order {
		t := totals[p]
		fmt.Fprintf(stdout, "phase %-12s sent %8d  succeeded %8d  failed %d\n", p, t.sent, t.ok, t.failed)
	}
	var details []string
	for k := range metrics {
		if _, ok := unitOf(list, k); !ok {
			details = append(details, k)
		}
	}
	sort.Strings(details)
	for _, k := range details {
		fmt.Fprintf(stdout, "detail %-36s %14.6g\n", k, metrics[k])
	}
	type entry struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]entry{}
	for _, m := range list {
		v, ok := metrics[m.name]
		if !ok {
			return fmt.Errorf("no child measured %s", m.name)
		}
		out[m.name] = entry{Value: v, Unit: m.unit}
		fmt.Fprintf(stdout, "metric %-36s %14.6g %s\n", m.name, v, m.unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]entry `json:"metrics"`
	}{failed == 0, attempted, failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}
