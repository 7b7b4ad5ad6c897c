package mpi

import (
	"fmt"
	"testing"
)

// BenchmarkAllreduce measures one collective epoch of the shape IS repeats
// every iteration: a Sum of a 1,024-bucket histogram over N ranks. One op
// is one epoch, all N ranks included, so ns/op is the collective layer's
// cost per epoch and shows how it grows with N:
//
//	go test -run '^$' -bench BenchmarkAllreduce -benchmem ./internal/mpi
func BenchmarkAllreduce(b *testing.B) {
	for _, n := range []int{16, 256, 1024} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			hist := make([]float64, 1024)
			b.ReportAllocs()
			b.ResetTimer()
			_, err := Run(testWorld(n, 600), func(c *Ctx) error {
				for i := 0; i < b.N; i++ {
					if _, err := c.Allreduce(hist, Sum, 0); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
