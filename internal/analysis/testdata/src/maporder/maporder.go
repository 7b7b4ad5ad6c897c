// Package maporder seeds violations and non-violations for the golden test
// of detsource's map-iteration rules: output and float sums.
package maporder

import (
	"fmt"
	"sort"
	"strings"
)

// Bad1 prints in map-iteration order: the report differs run to run.
func Bad1(byPhase map[string]float64) {
	for phase, sec := range byPhase { // seeded violation 1
		fmt.Printf("%-16s %8.3f s\n", phase, sec)
	}
}

// Bad2 builds a string in map-iteration order.
func Bad2(rows map[string]int, b *strings.Builder) {
	for k := range rows { // seeded violation 2
		b.WriteString(k)
	}
}

// Bad3 appends table rows in map-iteration order.
type tbl struct{}

func (tbl) AddRow(cells ...string) {}

func Bad3(cells map[string]string, t tbl) {
	for k, v := range cells { // seeded violation 3
		t.AddRow(k, v)
	}
}

// GoodSorted collects, sorts, then prints — deterministic.
func GoodSorted(byPhase map[string]float64) {
	keys := make([]string, 0, len(byPhase))
	for k := range byPhase {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-16s %8.3f s\n", k, byPhase[k])
	}
}

// BadAccumulate sums floats in map-iteration order: the total's last bits
// differ run to run.
func BadAccumulate(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v // seeded violation 4
	}
	return total
}

// BadNested sums floats under two map ranges: one finding, not one per
// range.
func BadNested(m map[string]map[string]float64) float64 {
	total := 0.0
	for _, inner := range m {
		for _, v := range inner {
			total -= v // seeded violation 5
		}
	}
	return total
}

// GoodIntSum aggregates order-insensitively: integer addition is
// associative.
func GoodIntSum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// GoodErrorf returns on the first invalid entry; fmt.Errorf constructs an
// error value, it does not emit a report.
func GoodErrorf(m map[string]float64) error {
	for k, v := range m {
		if v < 0 {
			return fmt.Errorf("negative duration for %q", k)
		}
	}
	return nil
}
