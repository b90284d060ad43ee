//go:build !race

package mapreduce

import (
	"testing"

	"github.com/bigreddata/brace/internal/transport"
)

// TestExchangeSteadyStateAllocs pins the exchange path at zero: once the
// outboxes, the collect buffers and the Mem's inboxes have grown, a tick
// in which four workers send every value on allocates nothing. A batch
// travels as a pointer to its outbox slot, which boxes into the payload
// without allocating, the Mem swaps in its drained arrays, and the runner
// pool starts prebuilt funcs, not closures.
func TestExchangeSteadyStateAllocs(t *testing.T) {
	const workers = 4
	tr := transport.NewMem(workers)
	r := New(ringJob(workers), Config{Workers: workers, Transport: tr, EpochTicks: 1 << 20})
	loadItems(r, 64, workers)
	if err := r.RunTicks(8); err != nil {
		t.Fatal(err)
	}
	sent := tr.Metrics().Totals().SentMsgs
	avg := testing.AllocsPerRun(50, func() {
		if err := r.RunTicks(1); err != nil {
			t.Fatal(err)
		}
	})
	if tr.Metrics().Totals().SentMsgs == sent {
		t.Fatal("no batch crossed the transport; the test shows nothing")
	}
	if avg > 0 {
		t.Errorf("a steady-state tick allocates %.1f times, want 0", avg)
	}
}
