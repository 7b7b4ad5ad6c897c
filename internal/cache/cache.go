// Package cache implements a trace-driven set-associative cache simulator.
//
// The paper derives its fine-grain model parameters from hardware: PAPI
// event counters classify instructions by the memory level that served them,
// and LMbench measures each level's latency. Our substrate has no hardware,
// so this package provides the equivalent ground truth: a two-level
// write-allocate LRU cache hierarchy that the lmbench-style microbenchmark
// (package lmbench) drives with real address streams, and against which the
// analytic locality models used by the kernels can be validated.
package cache

import "fmt"

// Config describes one cache level.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// LineBytes is the block size.
	LineBytes int
	// Ways is the associativity. SizeBytes must be divisible by
	// LineBytes×Ways.
	Ways int
}

// Validate reports an error for an inconsistent geometry.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	}
	if c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
		return fmt.Errorf("cache: size %d not divisible by line×ways = %d", c.SizeBytes, c.LineBytes*c.Ways)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Cache is a single set-associative level with true-LRU replacement.
type Cache struct {
	cfg       Config
	sets      [][]uint64 // each set holds tags in MRU-first order
	lineShift uint
	setMask   uint64
}

// New returns an empty cache with the given geometry.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	c := &Cache{
		cfg:     cfg,
		sets:    make([][]uint64, nsets),
		setMask: uint64(nsets - 1),
	}
	for s := cfg.LineBytes; s > 1; s >>= 1 {
		c.lineShift++
	}
	for i := range c.sets {
		c.sets[i] = make([]uint64, 0, cfg.Ways)
	}
	return c, nil
}

// Access touches the byte address and returns true on a hit. On a miss the
// line is filled, evicting the LRU line when the set is full.
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.lineShift
	set := c.sets[line&c.setMask]
	for i, tag := range set {
		if tag == line {
			// Move to MRU position.
			copy(set[1:i+1], set[:i])
			set[0] = line
			return true
		}
	}
	if len(set) < c.cfg.Ways {
		set = append(set, 0)
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = line
	c.sets[line&c.setMask] = set
	return false
}

// Where identifies the level of the hierarchy that served an access.
type Where int

const (
	// InL1 means the access hit the first-level cache.
	InL1 Where = iota
	// InL2 means the access missed L1 but hit the second-level cache.
	InL2
	// InMem means the access missed both caches.
	InMem
)

// String names the serving level.
func (w Where) String() string {
	switch w {
	case InL1:
		return "L1"
	case InL2:
		return "L2"
	default:
		return "Mem"
	}
}

// Hierarchy is an inclusive two-level cache (L1 backed by L2), matching the
// Pentium M's on-die 32 KB L1D + 1 MB L2 arrangement.
type Hierarchy struct {
	// L1 and L2 are the two levels; both are accessed on an L1 miss
	// (inclusive fill).
	L1, L2 *Cache
}

// NewHierarchy builds a two-level hierarchy from the given geometries.
func NewHierarchy(l1, l2 Config) (*Hierarchy, error) {
	a, err := New(l1)
	if err != nil {
		return nil, fmt.Errorf("cache: L1: %w", err)
	}
	b, err := New(l2)
	if err != nil {
		return nil, fmt.Errorf("cache: L2: %w", err)
	}
	if l2.SizeBytes < l1.SizeBytes {
		return nil, fmt.Errorf("cache: L2 (%d B) smaller than L1 (%d B)", l2.SizeBytes, l1.SizeBytes)
	}
	return &Hierarchy{L1: a, L2: b}, nil
}

// Access touches addr and returns the level that served it.
func (h *Hierarchy) Access(addr uint64) Where {
	if h.L1.Access(addr) {
		return InL1
	}
	if h.L2.Access(addr) {
		return InL2
	}
	return InMem
}
