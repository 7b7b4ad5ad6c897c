// Package table renders plain-text tables in the style of the paper's
// result tables, so every experiment binary and benchmark prints rows a
// reader can compare against the publication directly.
package table

import (
	"fmt"
	"strings"
)

// T accumulates a header row and data rows and renders them with columns
// padded to equal width. The zero value is unusable; construct with New.
type T struct {
	title  string
	header []string
	rows   [][]string
}

// New returns an empty table with the given title and column headers.
func New(title string, header ...string) *T {
	return &T{title: title, header: header}
}

// AddRow appends a row of pre-formatted cells. Short rows are padded with
// empty cells; long rows extend the column count.
func (t *T) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// AddFloats appends a row beginning with label followed by each value
// rendered with format (e.g. "%.2f").
func (t *T) AddFloats(label, format string, values ...float64) {
	cells := make([]string, 0, len(values)+1)
	cells = append(cells, label)
	for _, v := range values {
		cells = append(cells, fmt.Sprintf(format, v))
	}
	t.AddRow(cells...)
}

// AddPercents appends a row beginning with label followed by each fraction
// rendered as a percentage with one decimal, matching the paper's error
// tables.
func (t *T) AddPercents(label string, fracs ...float64) {
	cells := make([]string, 0, len(fracs)+1)
	cells = append(cells, label)
	for _, f := range fracs {
		cells = append(cells, fmt.Sprintf("%.1f%%", f*100))
	}
	t.AddRow(cells...)
}

// String renders the table: title, separator, padded header, separator and
// rows, each column right-aligned except the first.
func (t *T) String() string {
	ncol := len(t.header)
	for _, r := range t.rows {
		if len(r) > ncol {
			ncol = len(r)
		}
	}
	width := make([]int, ncol)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.header)
	for _, r := range t.rows {
		measure(r)
	}

	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	writeRow := func(r []string) {
		for i := 0; i < ncol; i++ {
			cell := ""
			if i < len(r) {
				cell = r[i]
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", width[i], cell)
			} else {
				fmt.Fprintf(&b, "  %*s", width[i], cell)
			}
		}
		b.WriteByte('\n')
	}
	if len(t.header) > 0 {
		writeRow(t.header)
		total := 0
		for _, w := range width {
			total += w + 2
		}
		b.WriteString(strings.Repeat("-", total-2))
		b.WriteByte('\n')
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
