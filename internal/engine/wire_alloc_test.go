//go:build !race

// The race detector makes sync.Pool drop a quarter of its Puts at
// random, so an allocation count taken under it says nothing about Send.

package engine

import (
	"testing"

	"github.com/bigreddata/brace/internal/transport"
)

// One Send and RecvSized of a map phase's 250-envelope batch allocate a
// small constant number of objects, not a few per envelope.
func TestEnvelopeFrameAllocs(t *testing.T) {
	var ar replicaArena
	f := dataFrame(arenaBatch(&ar, 250, 7))
	conn := transport.NewConn(&memConn{})
	allocs := testing.AllocsPerRun(100, func() {
		if err := conn.Send(f); err != nil {
			t.Fatal(err)
		}
		if _, _, err := conn.RecvSized(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations", allocs)
	if allocs > 16 {
		t.Errorf("Send+RecvSized of 250 envelopes: %.0f allocations, want ≤ 16", allocs)
	}
}
