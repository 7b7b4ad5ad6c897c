// Package ownfree seeds payload-ownership violations against a local
// freelist-style conn type: straight-line and branch-compatible double
// frees, use after free, per-iteration frees of a loop-external buffer,
// and interprocedural variants through a param-freeing helper, an
// ownership-returning helper, and a bound method value — next to the
// clean idioms (exclusive branches, one Free per collective element,
// guarded or not).
package ownfree

type conn struct{}

func (c *conn) Recv(src, tag int) ([]float64, error)                  { return nil, nil }
func (c *conn) Allgather(data []float64, vb int) ([][]float64, error) { return nil, nil }
func (c *conn) Free(buf []float64)                                    {}
func (c *conn) Size() int                                             { return 2 }

func doubleFree(c *conn) {
	buf, _ := c.Recv(0, 1)
	c.Free(buf)
	c.Free(buf) // want: second Free
}

func useAfterFree(c *conn) float64 {
	buf, _ := c.Recv(0, 1)
	c.Free(buf)
	return buf[0] // want: read after Free
}

func freeEveryIteration(c *conn) {
	buf, _ := c.Recv(0, 1)
	for i := 0; i < 3; i++ {
		c.Free(buf) // want: freed on every iteration, bound outside the loop
	}
}

func exclusiveBranches(c *conn, cond bool) { // clean: the two frees cannot both execute
	buf, _ := c.Recv(0, 1)
	if cond {
		c.Free(buf)
	} else {
		c.Free(buf)
	}
}

func branchThenFallthrough(c *conn, cond bool) {
	buf, _ := c.Recv(0, 1)
	if cond {
		c.Free(buf)
	}
	c.Free(buf) // want: second Free when cond held
}

func unguardedAliasedFree(c *conn, mine []float64) { // clean: every element is caller-owned
	parts, _ := c.Allgather(mine, 8)
	for _, p := range parts {
		c.Free(p) // each iteration frees its own element once
	}
}

func guardedAliasedFree(c *conn, mine []float64) { // clean: a guard needs no special case
	parts, _ := c.Allgather(mine, 8)
	for _, p := range parts {
		if len(parts) > 1 {
			c.Free(p)
		}
	}
}

// release frees its argument; callers inherit the Free through the fact.
func release(c *conn, buf []float64) {
	c.Free(buf)
}

func doubleFreeThroughHelper(c *conn) {
	buf, _ := c.Recv(0, 1)
	c.Free(buf)
	release(c, buf) // want: second Free through the helper
}

func viaBoundValue(c *conn) {
	get := c.Recv
	buf, _ := get(0, 1)
	c.Free(buf)
	c.Free(buf) // want: second Free of a buffer produced through the bound value
}

// fetch returns the unfreed Recv result; ownership transfers to the caller.
func fetch(c *conn) []float64 {
	buf, _ := c.Recv(0, 1)
	return buf
}

func doubleFreeOfTransferred(c *conn) {
	buf := fetch(c)
	c.Free(buf)
	c.Free(buf) // want: second Free of the helper-owned buffer
}

func singleFreeOfTransferred(c *conn) { // clean: exactly one Free
	buf := fetch(c)
	c.Free(buf)
}
