package npb

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"pasp/internal/mpi"
	"pasp/internal/trace"
)

// commLogDigest hashes a comm log's events rank by rank, in program order,
// rendered one per line as "rank kind name peer tag phase" — every field
// paverify reads.
func commLogDigest(log [][]trace.CommEvent) string {
	var b strings.Builder
	for rank, evs := range log {
		for _, ev := range evs {
			fmt.Fprintf(&b, "%d %s %s %d %d %s\n", rank, ev.Kind, ev.Name, ev.Peer, ev.Tag, ev.Phase)
		}
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
}

// TestCommLogMatrix pins the communication log of every NAS kernel at
// N ∈ {2, 4, 8, 16} — the protocol stream paverify checks against the
// statically extracted skeleton. testdata/comm_log.golden was written by
// the separate per-event recorder the runtime carried before this
// projection of the replay tape replaced it, so the file is an oracle
// independent of Recording.CommLog.
func TestCommLogMatrix(t *testing.T) {
	var got []string
	for _, k := range diffKernels() {
		for _, n := range []int{2, 4, 8, 16} {
			tape := mpi.NewRecording()
			w := npbWorld(n, 1400)
			w.Record = tape
			if _, _, err := k.run(w); err != nil {
				t.Fatalf("%s/n%d: %v", k.name, n, err)
			}
			got = append(got, fmt.Sprintf("%s/n%d commlog %s", k.name, n, commLogDigest(tape.CommLog())))
		}
	}
	checkDigestGolden(t, "comm_log.golden",
		"# NAS kernel comm-log digests: <case> commlog <SHA-256 of the rank-major events, one \"rank kind name peer tag phase\" line each>.\n# Regenerate: go test ./internal/npb -run TestCommLogMatrix -update\n", got)
}
