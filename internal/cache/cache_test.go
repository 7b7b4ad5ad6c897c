package cache

import (
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return c
}

func TestValidateRejects(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, LineBytes: 64, Ways: 8},
		{SizeBytes: 1024, LineBytes: 0, Ways: 8},
		{SizeBytes: 1024, LineBytes: 64, Ways: 0},
		{SizeBytes: 1024, LineBytes: 48, Ways: 2},       // line not pow2
		{SizeBytes: 1000, LineBytes: 64, Ways: 2},       // not divisible
		{SizeBytes: 64 * 2 * 3, LineBytes: 64, Ways: 2}, // 3 sets, not pow2
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) succeeded, want error", cfg)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := mustNew(t, Config{SizeBytes: 1024, LineBytes: 64, Ways: 2})
	if c.Access(0) {
		t.Error("cold access hit")
	}
	if !c.Access(0) {
		t.Error("second access missed")
	}
	if !c.Access(63) {
		t.Error("same-line access missed")
	}
	if c.Access(64) {
		t.Error("next-line cold access hit")
	}
	if c.Hits() != 2 || c.Misses() != 2 || c.Accesses() != 4 {
		t.Errorf("counters = %d hits / %d misses", c.Hits(), c.Misses())
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, 1 set: size = 2 lines.
	c := mustNew(t, Config{SizeBytes: 128, LineBytes: 64, Ways: 2})
	c.Access(0)   // miss, set: [0]
	c.Access(64)  // miss, set: [1,0]
	c.Access(0)   // hit,  set: [0,1]
	c.Access(128) // miss, evicts LRU line 1, set: [2,0]
	if !c.Access(0) {
		t.Error("line 0 evicted but was MRU")
	}
	if c.Access(64) {
		t.Error("line 1 survived but was LRU")
	}
}

func TestWorkingSetFitsNoCapacityMisses(t *testing.T) {
	cfg := Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8}
	c := mustNew(t, cfg)
	// Touch every line twice: first pass all cold misses, second all hits.
	lines := cfg.SizeBytes / cfg.LineBytes
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < lines; i++ {
			c.Access(uint64(i * cfg.LineBytes))
		}
	}
	if c.Misses() != uint64(lines) {
		t.Errorf("misses = %d, want %d (cold only)", c.Misses(), lines)
	}
}

func TestWorkingSetExceedsCapacityThrashes(t *testing.T) {
	cfg := Config{SizeBytes: 1 << 10, LineBytes: 64, Ways: 2}
	c := mustNew(t, cfg)
	// Sequential sweep over 4× capacity with LRU: every access misses after
	// the first pass too.
	lines := 4 * cfg.SizeBytes / cfg.LineBytes
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < lines; i++ {
			c.Access(uint64(i * cfg.LineBytes))
		}
	}
	if c.Hits() != 0 {
		t.Errorf("hits = %d, want 0 for cyclic sweep over 4× capacity", c.Hits())
	}
}

func TestResetAndFlush(t *testing.T) {
	c := mustNew(t, Config{SizeBytes: 128, LineBytes: 64, Ways: 2})
	c.Access(0)
	c.ResetCounters()
	if c.Accesses() != 0 {
		t.Error("ResetCounters did not clear counters")
	}
	if !c.Access(0) {
		t.Error("ResetCounters should not flush contents")
	}
}

func TestHierarchyLevels(t *testing.T) {
	// The paper platform's geometry: 32 KB 8-way L1D and 1 MB 8-way L2.
	h, err := NewHierarchy(
		Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8},
		Config{SizeBytes: 1 << 20, LineBytes: 64, Ways: 8},
	)
	if err != nil {
		t.Fatalf("NewHierarchy = %v", err)
	}
	if got := h.Access(0); got != InMem {
		t.Errorf("cold access = %v, want Mem", got)
	}
	if got := h.Access(0); got != InL1 {
		t.Errorf("hot access = %v, want L1", got)
	}
	// Evict from L1 by sweeping 2× L1 capacity, then line 0 should be in L2.
	for i := 1; i <= 2*(32<<10)/64; i++ {
		h.Access(uint64(i * 64))
	}
	if got := h.Access(0); got != InL2 {
		t.Errorf("after L1 eviction, access = %v, want L2", got)
	}
}

func TestHierarchyRejectsInvertedSizes(t *testing.T) {
	_, err := NewHierarchy(
		Config{SizeBytes: 1 << 20, LineBytes: 64, Ways: 8},
		Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8},
	)
	if err == nil {
		t.Error("NewHierarchy with L2 < L1 succeeded, want error")
	}
}

func TestWhereString(t *testing.T) {
	if InL1.String() != "L1" || InL2.String() != "L2" || InMem.String() != "Mem" {
		t.Error("Where names wrong")
	}
}

// Property: hits + misses always equals accesses, and an immediate repeat of
// any address hits.
func TestCounterConsistencyProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		c, err := New(Config{SizeBytes: 4 << 10, LineBytes: 64, Ways: 4})
		if err != nil {
			return false
		}
		for _, a := range addrs {
			c.Access(uint64(a))
			if !c.Access(uint64(a)) {
				return false
			}
		}
		return c.Hits()+c.Misses() == c.Accesses()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a cache never holds more lines than its capacity — touching K
// distinct lines yields at least K − capacity misses on a second pass... we
// check the weaker invariant that misses ≥ distinct lines (cold) on the
// first pass.
func TestColdMissLowerBoundProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		c, err := New(Config{SizeBytes: 2 << 10, LineBytes: 64, Ways: 2})
		if err != nil {
			return false
		}
		distinct := map[uint64]bool{}
		for _, a := range raw {
			line := uint64(a) >> 6
			distinct[line] = true
			c.Access(uint64(a))
		}
		return c.Misses() >= uint64(len(distinct))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
