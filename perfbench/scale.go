package main

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"

	"pasp/internal/cluster"
	"pasp/internal/experiments"
)

// scaleMatrix lists every kernel at every rank count of the scale grid its
// decomposition accepts: CG, EP, IS and LU reach 1024 ranks, FT 256, SP 64
// and MG 16.
func scaleMatrix(s experiments.Suite) (map[string][]int, error) {
	out := map[string][]int{}
	for _, k := range kernelNames {
		for _, n := range s.Grid.Ns {
			if validateKernel(s, k, n) == nil {
				out[k] = append(out[k], n)
			}
		}
		if len(out[k]) == 0 {
			return nil, fmt.Errorf("scale matrix: %s runs at no rank count", k)
		}
	}
	return out, nil
}

func validateKernel(s experiments.Suite, kernel string, n int) error {
	if n > s.Platform.MaxNodes {
		return fmt.Errorf("%d ranks exceed the platform", n)
	}
	switch kernel {
	case "ft":
		return s.FT.Validate(n)
	case "lu":
		return s.LU.Validate(n)
	case "cg":
		return s.CG.Validate(n)
	case "mg":
		return s.MG.Validate(n)
	case "is":
		return s.IS.Validate(n)
	case "sp":
		return s.SP.Validate(n)
	}
	return nil // EP decomposes at any rank count
}

type scaleState struct {
	s      experiments.Suite
	matrix map[string][]int
	bench2 map[string]map[string]float64
	gold   *goldenSet
}

func setupScale(runConfig) (any, error) {
	s := experiments.Scale()
	m, err := scaleMatrix(s)
	if err != nil {
		return nil, err
	}
	b2, err := loadBench2()
	if err != nil {
		return nil, err
	}
	gold, err := loadGolden("sweep-scale")
	if err != nil {
		return nil, err
	}
	return &scaleState{s: s, matrix: m, bench2: b2, gold: gold}, nil
}

// loadBench2 reads golden/bench2.tsv: the simulated seconds and joules
// of the event-engine rows of BENCH_2.json, the committed scaling
// artifact, copied at the precision printed there.
func loadBench2() (map[string]map[string]float64, error) {
	data, err := goldenFS.ReadFile("golden/bench2.tsv")
	if err != nil {
		return nil, err
	}
	out := map[string]map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, fields, _ := strings.Cut(line, "\t")
		row := map[string]float64{}
		for _, f := range strings.Fields(fields) {
			k, v, _ := strings.Cut(f, "=")
			x, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("golden/bench2.tsv: %s: %w", name, err)
			}
			row[k] = x
		}
		out[name] = row
	}
	return out, nil
}

// benchPrecision renders v the way the testing package prints a reported
// metric, which is the precision BENCH_2.json records.
func benchPrecision(v float64) string {
	var prec int
	switch y := math.Abs(v); {
	case y == 0 || y >= 999.95:
		prec = 0
	case y >= 99.995:
		prec = 1
	case y >= 9.9995:
		prec = 2
	case y >= 0.99995:
		prec = 3
	case y >= 0.099995:
		prec = 4
	case y >= 0.0099995:
		prec = 5
	case y >= 0.00099995:
		prec = 6
	default:
		prec = 7
	}
	return strconv.FormatFloat(v, 'f', prec, 64)
}

// checkCell compares one swept cell with the recorded table and, for the
// kernels BENCH_2.json covers, with its printed figures.
func (st *scaleState) checkCell(kernel string, c cluster.Cell) error {
	key := fmt.Sprintf("%s n%04d f%g", kernel, c.N, c.MHz)
	got := fmt.Sprintf("%s %s %d", strconv.FormatFloat(c.Res.Seconds, 'g', -1, 64),
		strconv.FormatFloat(c.Res.Joules, 'g', -1, 64), c.Res.Trace.Len())
	if err := st.gold.check(key, got); err != nil {
		return err
	}
	row, ok := st.bench2[fmt.Sprintf("Scale/%s/event/n%04d", kernel, c.N)]
	if !ok {
		return nil
	}
	for _, m := range []struct {
		name string
		v    float64
	}{{fmt.Sprintf("simsec@%g", c.MHz), c.Res.Seconds}, {fmt.Sprintf("simJ@%g", c.MHz), c.Res.Joules}} {
		if want, ok := row[m.name]; !ok || benchPrecision(m.v) != benchPrecision(want) {
			return fmt.Errorf("%s: %s = %g disagrees with BENCH_2.json's %g", key, m.name, m.v, want)
		}
	}
	return nil
}

// timedScale sweeps the scale matrix with one cluster.Sweep per kernel
// over all its rank counts, as a user would.
func timedScale(cfg runConfig, state any, res *childResult) error {
	st := state.(*scaleState)
	ctx := context.Background()
	p0 := readProc()
	for _, name := range kernelNames {
		k, err := st.s.Kernel(name)
		if err != nil {
			return err
		}
		g := cluster.Grid{Ns: st.matrix[name], MHz: st.s.Grid.MHz}
		var cells []cluster.Cell
		_, err = cfg.tr.timed(-1, "cluster:sweep:"+name, func() error {
			var err error
			cells, err = cluster.Sweep(ctx, st.s.Platform, g, k.Run)
			return err
		})
		if err != nil {
			res.record("cells", fmt.Errorf("%s sweep: %w", name, err))
			continue
		}
		for _, c := range cells {
			res.record("cells", st.checkCell(name, c))
		}
	}
	endPhase(res, p0)
	return st.gold.save()
}
