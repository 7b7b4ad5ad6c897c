// Command pareport runs the complete reproduction and writes one Markdown
// report with a section per entry of experiments.Artifacts — the paper's
// tables and figures, its EDP claim, the ablations and the extensions — in
// the list's order. An artifact the suite's grid cannot run reads as
// skipped. The simulation runs in virtual time, so two reports are
// byte-identical.
//
// Usage:
//
//	pareport [-suite paper|quick] [-o report.md]
//
// Exit status: 2 for an unknown suite, 1 when an artifact fails or the
// report cannot be written.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"pasp/internal/experiments"
)

func main() {
	suite := flag.String("suite", "paper", "experiment scale: paper or quick")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	// An interrupt mid-reproduction cancels the in-flight campaign sweep at
	// its next cell instead of leaving worker goroutines mid-grid.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	s, err := experiments.SuiteByName(*suite)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pareport: %v\n", err)
		os.Exit(2)
	}
	if err := write(ctx, *out, *suite, s); err != nil {
		fmt.Fprintf(os.Stderr, "pareport: %v\n", err)
		os.Exit(1)
	}
}

// write renders the report to the file at path, or to stdout when path is
// empty; a failed Close fails it, since the file may be truncated.
func write(ctx context.Context, path, name string, s experiments.Suite) error {
	if path == "" {
		return report(ctx, os.Stdout, name, s)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = report(ctx, f, name, s)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// report renders every artifact on s to w, one section each, and returns
// the first failed render or write.
func report(ctx context.Context, w io.Writer, name string, s experiments.Suite) error {
	if _, err := fmt.Fprintf(w, "# Power-Aware Speedup — reproduction report (%s suite)\n", name); err != nil {
		return err
	}
	for _, a := range experiments.Artifacts() {
		var body string
		if why := a.Skip(s); why != "" {
			body = "skipped: " + why
		} else {
			r, err := a.Render(ctx, s)
			if err != nil {
				return fmt.Errorf("%s: %w", a.Name, err)
			}
			body = "```\n" + strings.TrimRight(r.Text, "\n") + "\n```"
		}
		if _, err := fmt.Fprintf(w, "\n## %s\n\n%s\n", a.Title, body); err != nil {
			return err
		}
	}
	return nil
}
