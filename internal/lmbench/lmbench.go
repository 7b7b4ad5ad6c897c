// Package lmbench reproduces the methodology of LMbench's lat_mem_rd,
// which the paper uses (Section 5.2, Step 2) to measure the seconds per
// instruction of each memory level: a pointer chase walks a working set of
// a chosen size through the cache hierarchy, and the average load latency
// is recorded. Sweeping the working-set size exposes one latency plateau
// per level; sampling a size well inside each plateau yields the CPI/f
// values of Table 6.
//
// The "hardware" here is the trace-driven cache simulator (package cache)
// priced by the node timing model (package machine), so the measured values
// agree with ground truth up to methodology error (cold misses, boundary
// effects) — exactly the relationship real LMbench has to real hardware.
package lmbench

import (
	"fmt"

	"pasp/internal/cache"
	"pasp/internal/machine"
	"pasp/internal/units"
)

// hierarchyFor builds a cache hierarchy matching the machine's geometry
// (8-way, like the Pentium M).
func hierarchyFor(m machine.Config) (*cache.Hierarchy, error) {
	return cache.NewHierarchy(
		cache.Config{SizeBytes: m.L1Bytes, LineBytes: m.LineBytes, Ways: 8},
		cache.Config{SizeBytes: m.L2Bytes, LineBytes: m.LineBytes, Ways: 8},
	)
}

// Latency measures the average time per load of a pointer chase over
// wsBytes at the given core frequency: one warm-up pass fills the caches,
// then two measured passes run at one access per line.
func Latency(m machine.Config, freq units.Hertz, wsBytes int) (units.Nanos, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	if wsBytes < m.LineBytes {
		return 0, fmt.Errorf("lmbench: working set %d below line size %d", wsBytes, m.LineBytes)
	}
	h, err := hierarchyFor(m)
	if err != nil {
		return 0, err
	}
	lines := wsBytes / m.LineBytes
	chase := func(count bool) (sec units.Seconds, loads int) {
		for i := 0; i < lines; i++ {
			addr := uint64(i * m.LineBytes)
			where := h.Access(addr)
			if !count {
				continue
			}
			loads++
			switch where {
			case cache.InL1:
				sec += m.SecPerIns(machine.L1, freq)
			case cache.InL2:
				sec += m.SecPerIns(machine.L2, freq)
			default:
				sec += m.SecPerIns(machine.Mem, freq)
			}
		}
		return sec, loads
	}
	chase(false) // warm up
	var total units.Seconds
	var loads int
	for pass := 0; pass < 2; pass++ {
		s, n := chase(true)
		total += s
		loads += n
	}
	if loads == 0 {
		return 0, fmt.Errorf("lmbench: pointer chase issued no loads")
	}
	return total.Div(float64(loads)).Nanos(), nil
}

// LevelNanos returns the measured nanoseconds per instruction for each
// memory level at the given frequency — the rows of Table 6. The register
// cost is not observable by a memory-latency benchmark; as on real
// hardware, it comes from the architecture manual (the machine config).
func LevelNanos(m machine.Config, freq units.Hertz) ([machine.NumLevels]units.Nanos, error) {
	var out [machine.NumLevels]units.Nanos
	out[machine.Reg] = m.SecPerIns(machine.Reg, freq).Nanos()
	// Sample well inside each plateau: half of L1, the L2 region past 2×L1,
	// and 4× L2 for memory.
	l1, err := Latency(m, freq, m.L1Bytes/2)
	if err != nil {
		return out, err
	}
	l2ws := 4 * m.L1Bytes
	if l2ws > m.L2Bytes/2 {
		l2ws = m.L2Bytes / 2
	}
	l2, err := Latency(m, freq, l2ws)
	if err != nil {
		return out, err
	}
	mem, err := Latency(m, freq, 4*m.L2Bytes)
	if err != nil {
		return out, err
	}
	out[machine.L1] = l1
	out[machine.L2] = l2
	out[machine.Mem] = mem
	return out, nil
}
