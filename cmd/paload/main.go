// Command paload drives a running paserve with a deterministic load
// schedule and reports latency percentiles and the status breakdown.
//
// Usage:
//
//	paload -url http://127.0.0.1:8080 [-qps 200] [-duration 10s]
//	       [-mix predict|quick] [-kernel ft] [-n 4] [-f 1400mhz]
//	       [-seed 1] [-concurrency 128] [-strict] [-json report.json]
//
// The mix names a weighted endpoint blend: "predict" is 100% POST /predict
// for the flagged configuration (the cache-hit throughput test), "quick"
// blends predict with /sweep, /healthz and /metrics. Which endpoint each
// request hits is a pure function of (seed, request index) — a counter
// PRNG, the same construction as the fault injector — so two runs with the
// same flags issue the identical request sequence.
//
// Every request carries a deterministic X-Request-ID (a pure function of
// seed and request index) and the harness asserts the server echoes each ID
// exactly once; mismatches and duplicates land in the report.
//
// With -strict the exit status is 1 unless every request completed with a
// 2xx status, zero transport errors, and every request ID echoed exactly
// once: the CI smoke gate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pasp/internal/serve"
)

// predictBody renders the /predict (and /trace) request body.
func predictBody(kernel string, n int, mhz float64) []byte {
	b, err := json.Marshal(serve.PredictRequest{Kernel: kernel, N: n, F: serve.Gear{MHz: mhz}})
	if err != nil {
		panic(err) // a struct of scalars cannot fail to marshal
	}
	return b
}

// mixTargets resolves the -mix flag into a weighted target list.
func mixTargets(mix, kernel string, n int, mhz float64) ([]serve.Target, error) {
	predict := serve.Target{Name: "predict", Method: "POST", Path: "/predict",
		Body: predictBody(kernel, n, mhz), Weight: 1}
	switch mix {
	case "predict":
		return []serve.Target{predict}, nil
	case "quick":
		predict.Weight = 6
		sweepBody, err := json.Marshal(serve.SweepRequest{Kernel: kernel})
		if err != nil {
			return nil, err
		}
		return []serve.Target{
			predict,
			{Name: "sweep", Method: "POST", Path: "/sweep", Body: sweepBody, Weight: 1},
			{Name: "healthz", Method: "GET", Path: "/healthz", Weight: 2},
			{Name: "metrics", Method: "GET", Path: "/metrics", Weight: 1},
		}, nil
	default:
		return nil, fmt.Errorf("unknown mix %q (have predict, quick)", mix)
	}
}

// run executes the load driver against args, writing the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("paload", flag.ContinueOnError)
	url := fs.String("url", "http://127.0.0.1:8080", "paserve base URL")
	qps := fs.Float64("qps", 200, "offered request rate")
	duration := fs.Duration("duration", 10*time.Second, "run length")
	mix := fs.String("mix", "predict", "request blend: predict or quick")
	kernel := fs.String("kernel", "ft", "kernel for predict/sweep bodies")
	n := fs.Int("n", 4, "processor count for predict bodies")
	freq := fs.String("f", "1400mhz", "frequency for predict bodies: 1.4ghz, 1400mhz or plain MHz")
	seed := fs.Uint64("seed", 1, "schedule seed")
	concurrency := fs.Int("concurrency", 128, "outstanding-request cap")
	strict := fs.Bool("strict", false, "exit 1 on any transport error or non-2xx response")
	jsonOut := fs.String("json", "", "write the report as JSON here")
	if err := fs.Parse(args); err != nil {
		return err
	}

	mhz, err := serve.ParseGear(*freq)
	if err != nil {
		return err
	}
	targets, err := mixTargets(*mix, *kernel, *n, mhz)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep, err := serve.RunLoad(ctx, serve.LoadConfig{
		BaseURL:     strings.TrimRight(*url, "/"),
		QPS:         *qps,
		Duration:    *duration,
		Targets:     targets,
		Seed:        *seed,
		Concurrency: *concurrency,
	})
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, rep.String())

	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "report written to %s\n", *jsonOut)
	}

	if *strict && (rep.Transport > 0 || rep.Non2xx > 0 || rep.IDMismatches > 0 || rep.IDDuplicates > 0) {
		return fmt.Errorf("strict run saw %d transport error(s), %d non-2xx response(s), %d request-id mismatch(es), %d duplicate id(s)",
			rep.Transport, rep.Non2xx, rep.IDMismatches, rep.IDDuplicates)
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err == flag.ErrHelp {
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "paload: %v\n", err)
		os.Exit(1)
	}
}
