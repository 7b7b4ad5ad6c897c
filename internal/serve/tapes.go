package serve

import (
	"sync"

	"pasp/internal/mpi"
	"pasp/internal/obs"
)

// maxTapeOps bounds the recorded operations the /trace tape cache keeps
// across all its tapes: about 2.7 MB at the ~80 B per op a paper-suite
// tape costs. SP at N=16 (26,976 ops) and CG at N=8 (27,728) each fit; LU
// at N=8 (165,992 ops, 12.3 MB) is answered but never kept.
const maxTapeOps = 32768

// tapeKey names the tape that serves every /trace of one kernel at one
// rank count: a kernel's operation stream depends on neither the gear nor
// the chaos spec, so one recording re-times under any of them.
type tapeKey struct {
	kernel string
	n      int
}

// tapeCache keeps completed /trace recordings so that a later /trace of
// the same (kernel, N) replays a tape instead of running the kernel. It
// holds at most maxTapeOps recorded operations, evicting the oldest tape
// first, and never keeps a tape larger than that. Kept recordings are
// only read (mpi.Replay does not write a tape), so concurrent requests
// replay one tape safely.
type tapeCache struct {
	mu    sync.Mutex
	tapes map[tapeKey]*mpi.Recording
	order []tapeKey // the kept keys, oldest first
	ops   int       // recorded operations across the kept tapes
	// gauge shows ops as serve.trace.tape_ops.
	gauge *obs.Gauge
}

func newTapeCache(reg *obs.Registry) *tapeCache {
	return &tapeCache{tapes: make(map[tapeKey]*mpi.Recording), gauge: reg.Gauge("serve.trace.tape_ops")}
}

// get returns the kept tape of k, or nil.
func (c *tapeCache) get(k tapeKey) *mpi.Recording {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tapes[k]
}

// put keeps rec, a completed recording, as the tape of k, evicting the
// oldest tapes until the kept operations fit maxTapeOps. A tape over the
// whole budget is not kept, nor is one for a key another request kept
// first.
func (c *tapeCache) put(k tapeKey, rec *mpi.Recording) {
	ops := tapeOps(rec)
	if ops > maxTapeOps {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tapes[k]; ok {
		return
	}
	for c.ops+ops > maxTapeOps {
		old := c.order[0]
		c.order = c.order[1:]
		c.ops -= tapeOps(c.tapes[old])
		delete(c.tapes, old)
	}
	c.tapes[k] = rec
	c.order = append(c.order, k)
	c.ops += ops
	c.gauge.Set(float64(c.ops))
}

// tapeOps is the number of operations rec holds across its ranks.
func tapeOps(rec *mpi.Recording) int {
	n := 0
	for r := 0; r < rec.N(); r++ {
		n += rec.Ops(r)
	}
	return n
}
