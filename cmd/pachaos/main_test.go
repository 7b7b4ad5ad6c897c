package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("4, 8,16")
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{4, 8, 16}; !reflect.DeepEqual(got, want) {
		t.Errorf("parseInts = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "4,,8", "x", "1.5"} {
		if _, err := parseInts(bad); err == nil {
			t.Errorf("parseInts(%q) accepted", bad)
		} else if strings.HasPrefix(err.Error(), "pachaos: ") {
			t.Errorf("parseInts(%q) error %q names the command; main adds that prefix", bad, err)
		}
	}
}

func TestParseFloats(t *testing.T) {
	got, err := parseFloats("0, 0.5,1")
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0, 0.5, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("parseFloats = %v, want %v", got, want)
	}
	if _, err := parseFloats("0,fast"); err == nil {
		t.Error("parseFloats accepted a word")
	}
}

func TestBuildSpec(t *testing.T) {
	spec, err := buildSpec("ft", "4,8", "0,1", "", 9)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kernel != "ft" || len(spec.Ns) != 2 || len(spec.Magnitudes) != 2 {
		t.Errorf("buildSpec = %+v", spec)
	}
	if spec.Faults.Seed != 9 || spec.Faults.LatencyJitterFrac != 1 {
		t.Errorf("default config not jitter-only seeded: %+v", spec.Faults)
	}
	spec, err = buildSpec("lu", "2,4", "0,0.5,1", "seed=3,jitter=0.5,drop=0.01", 9)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Faults.Seed != 3 || spec.Faults.DropProb != 0.01 {
		t.Errorf("-chaos spec not honoured: %+v", spec.Faults)
	}
	for _, bad := range [][4]string{
		{"ft", "4;8", "0,1", ""},       // bad ints
		{"ft", "4,8", "0..1", ""},      // bad floats
		{"ft", "4,8", "1,0", ""},       // descending magnitudes
		{"ft", "4,8", "0,1", "warp=9"}, // unknown chaos key
		{"", "4,8", "0,1", ""},         // no kernel
	} {
		if _, err := buildSpec(bad[0], bad[1], bad[2], bad[3], 1); err == nil {
			t.Errorf("buildSpec(%q, %q, %q, %q) accepted", bad[0], bad[1], bad[2], bad[3])
		}
	}
}
