// Package mpptest reproduces the methodology of Gropp & Lusk's MPPTEST,
// which the paper uses (Section 5.2, Step 2) to measure seconds per
// communication for the message sizes an application sends: a ping-pong
// between two nodes, repeated and averaged, swept over sizes and operating
// points. The fine-grain parameterization multiplies the measured
// per-message time by the profiled message count to obtain T(wPO, f).
package mpptest

import (
	"fmt"

	"pasp/internal/mpi"
	"pasp/internal/units"
)

// PingPong measures the one-way message time for msgBytes on the given
// two-rank world by timing reps round trips.
func PingPong(w mpi.World, msgBytes, reps int) (units.Seconds, error) {
	if w.N != 2 {
		return 0, fmt.Errorf("mpptest: ping-pong needs exactly 2 ranks, got %d", w.N)
	}
	if msgBytes <= 0 || reps <= 0 {
		return 0, fmt.Errorf("mpptest: non-positive size or reps")
	}
	payload := []float64{0}
	res, err := mpi.Run(w, func(c *mpi.Ctx) error {
		for i := 0; i < reps; i++ {
			if c.Rank() == 0 {
				if err := c.Send(1, i, payload, msgBytes); err != nil {
					return err
				}
				if _, err := c.Recv(1, i); err != nil {
					return err
				}
			} else {
				if _, err := c.Recv(0, i); err != nil {
					return err
				}
				if err := c.Send(0, i, payload, msgBytes); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return units.Seconds(res.Seconds).Div(float64(2 * reps)), nil
}
