package table

import (
	"strings"
	"testing"
)

func TestRendersHeaderAndRows(t *testing.T) {
	tb := New("Table X", "N", "600", "800")
	tb.AddRow("2", "0%", "30%")
	tb.AddRow("4", "0%", "18%")
	out := tb.String()
	for _, want := range []string{"Table X", "N", "600", "800", "30%", "18%"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestColumnsAligned(t *testing.T) {
	tb := New("", "name", "v")
	tb.AddRow("a", "1")
	tb.AddRow("longer", "22")
	lines := strings.Split(strings.TrimRight(tb.String(), "\n"), "\n")
	// header, separator, two rows
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), tb.String())
	}
	if len(lines[2]) != len(lines[3]) {
		t.Errorf("rows not equal width: %q vs %q", lines[2], lines[3])
	}
}

func TestAddFloatsAndPercents(t *testing.T) {
	tb := New("", "N", "a", "b")
	tb.AddFloats("16", "%.2f", 36.50, 2.34)
	tb.AddPercents("8", 0.021, 0.78)
	out := tb.String()
	for _, want := range []string{"36.50", "2.34", "2.1%", "78.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestShortRowPadded(t *testing.T) {
	tb := New("t", "a", "b", "c")
	tb.AddRow("only")
	out := tb.String()
	if !strings.Contains(out, "only") {
		t.Errorf("short row lost: %s", out)
	}
}

func TestNoHeaderNoSeparator(t *testing.T) {
	tb := New("")
	tb.AddRow("x", "y")
	out := tb.String()
	if strings.Contains(out, "---") {
		t.Errorf("unexpected separator without header:\n%s", out)
	}
}
