//go:build !race

package distrib

import (
	"runtime"
	"testing"

	"github.com/bigreddata/brace/internal/spatial"
)

// TestTCPPartitionedTickSteadyStateAllocs is the TCP twin of the
// scenario package's TestPartitionedTickSteadyStateAllocs: fish ×2000 on
// eight partitions over two in-process worker daemons. A run's setup —
// the handshakes, the population, the final reports — costs the same at
// any length, so the difference between a 140-tick and a 40-tick run is
// 100 steady-state ticks: the exchange's frames decode into reused slots
// and a reused Frame, inboxes and drained arrays are reused, and the
// barrier counts live in recycled phase tables. What remains (about 7
// objects a tick, 188 before the exchange stopped allocating) is the
// epoch barriers' statistics and directives, and the owned rows of
// migrants, which become the receiving partition's agents.
func TestTCPPartitionedTickSteadyStateAllocs(t *testing.T) {
	run := func(ticks int) uint64 {
		addrs := startWorkers(t, 2)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(Options{
			Addrs:    addrs,
			Scenario: "fish",
			Agents:   2000, Seed: 1,
			Partitions: 8, Ticks: ticks, Index: spatial.KindKDTree,
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Ticks != uint64(ticks) {
			t.Fatalf("ran %d ticks, want %d", res.Ticks, ticks)
		}
		return after.Mallocs - before.Mallocs
	}
	short, long := run(40), run(140)
	perTick := (float64(long) - float64(short)) / 100
	t.Logf("40 ticks: %d objects, 140 ticks: %d, %.1f per tick", short, long, perTick)
	if perTick > 16 {
		t.Errorf("a steady-state tick over TCP allocates %.1f objects, want ≤ 16", perTick)
	}
}
