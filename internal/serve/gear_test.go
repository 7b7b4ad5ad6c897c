package serve

import "testing"

// TestParseGear pins the accepted spellings to their megahertz values and
// the rejected ones, NaN and Inf included, to errors.
func TestParseGear(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want float64
	}{
		{"1.4ghz", 1400},
		{"1.4GHz", 1400},
		{" 0.6 ghz ", 600},
		{"1400mhz", 1400},
		{"1400MHz", 1400},
		{"1400", 1400},
		{"600", 600},
	} {
		got, err := ParseGear(tc.in)
		if err != nil {
			t.Errorf("ParseGear(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want { //palint:ignore floateq -- exact unit conversion
			t.Errorf("ParseGear(%q) = %g, want %g", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{"", "fast", "-600", "0", "1.4thz", "nan", "NaNmhz", "inf", "-Inf", "1e309ghz"} {
		if _, err := ParseGear(bad); err == nil {
			t.Errorf("ParseGear(%q) accepted a bad frequency", bad)
		}
	}
}
