package distrib

import (
	"testing"

	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/transport"
)

// Chaos in the window every TCP phase has: marker sent, drain pending. The
// fault lands *between* a worker's FlushPhase and its AwaitPhase — its
// phase marker and envelopes are already out, but it never collects the
// peers' envelopes. Peers sail through the current barrier on the frozen
// worker's marker and only the next one hangs, so detection and recovery
// must not depend on the barrier the fault actually occurred in. The
// tests' names keep "Interior"/"Boundary" from when an interior pass ran
// in this window; the CI stall suite selects them by those names.

// stallProcInWindow freezes the given worker's first-generation session
// between the n-th phase's flush and its await — a SIGSTOP with the marker
// sent and the drain pending. Re-admitted sessions run unharmed.
func stallProcInWindow(proc, phase int) func(tr transport.Transport, h *transport.Hello) transport.Transport {
	return func(tr transport.Transport, h *transport.Hello) transport.Transport {
		if h.Proc == proc && h.Gen == 1 {
			return &transport.FaultAt{Transport: tr, Phase: phase, Await: true, Do: tr.(*transport.TCP).Stall}
		}
		return tr
	}
}

// severProcInWindow is the SIGKILL twin: the connection dies between the
// n-th phase's flush and its await.
func severProcInWindow(proc, phase int) func(tr transport.Transport, h *transport.Hello) transport.Transport {
	return func(tr transport.Transport, h *transport.Hello) transport.Transport {
		if h.Proc == proc && h.Gen == 1 {
			return &transport.FaultAt{Transport: tr, Phase: phase, Await: true, Do: sever(tr)}
		}
		return tr
	}
}

// A silent freeze with the marker sent: no socket error ever surfaces and
// the barrier the stall belongs to *completes* — only liveness can break
// the hang at the next one. The recovered run must be bit-identical to the
// unfailed in-memory reference.
func TestStallBetweenInteriorAndBoundary(t *testing.T) {
	const (
		agents = 96
		extent = 30.0
		seed   = uint64(7)
		parts  = 4
		ticks  = 12
		epoch  = 3
	)
	ref := memEngine(t, "epidemic", agents, extent, seed, engine.Options{
		Workers: parts, Seed: seed, EpochTicks: epoch,
	})
	if err := ref.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}

	// Phase 15 is the map barrier of a mid-run tick, after the tick-3 and
	// tick-6 checkpoints have committed; Await lands the freeze after the
	// marker went out, before the drain.
	o := Options{
		Addrs:    startChaosWorkers(t, 2, stallProcInWindow(1, 15)),
		Scenario: "epidemic",
		Agents:   agents, Extent: extent, Seed: seed,
		Partitions: parts, Ticks: ticks,
		EpochTicks: epoch, CheckpointEveryEpochs: 1,
	}
	fastLiveness(&o)
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.StallDrops < 1 {
		t.Errorf("stallDrops = %d, want ≥ 1 (no socket error ever happened)", res.StallDrops)
	}
	if res.Recoveries < 1 {
		t.Errorf("recoveries = %d, want ≥ 1", res.Recoveries)
	}
	if res.Ticks != ticks {
		t.Fatalf("ticks = %d, want %d", res.Ticks, ticks)
	}
	assertSamePopulation(t, "stall with the drain pending", ref.Agents(), res.Agents)
}

// A crash with the marker sent and the drain pending, with load balancing
// on: the worker died
// after exporting its envelopes, so its partial tick must be fully
// discarded by the checkpoint restore even though peers consumed its data.
func TestSeverBetweenInteriorAndBoundary(t *testing.T) {
	const (
		agents = 96
		extent = 30.0
		seed   = uint64(13)
		parts  = 4
		ticks  = 12
		epoch  = 3
	)
	ref := memEngine(t, "epidemic", agents, extent, seed, engine.Options{
		Workers: parts, Seed: seed, EpochTicks: epoch, LoadBalance: true,
	})
	if err := ref.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}

	res, err := Run(Options{
		Addrs:    startChaosWorkers(t, 2, severProcInWindow(1, 15)),
		Scenario: "epidemic",
		Agents:   agents, Extent: extent, Seed: seed,
		Partitions: parts, Ticks: ticks,
		EpochTicks: epoch, CheckpointEveryEpochs: 1,
		LoadBalance: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries < 1 {
		t.Errorf("recoveries = %d, want ≥ 1", res.Recoveries)
	}
	assertSamePopulation(t, "sever with the drain pending", ref.Agents(), res.Agents)
}

// The stall window composed with absorption: its host gone, the
// survivors take over the frozen worker's partitions mid-epoch.
func TestStallInWindowAbsorbed(t *testing.T) {
	const (
		agents = 90
		extent = 30.0
		seed   = uint64(23)
		parts  = 5
		ticks  = 10
		epoch  = 2
	)
	ref := memEngine(t, "evacuate", agents, extent, seed, engine.Options{
		Workers: parts, Seed: seed, EpochTicks: epoch,
	})
	if err := ref.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}

	o := Options{
		Addrs:    startDoomedWorkers(t, 3, stallProcInWindow(1, 9)), // map barrier mid tick 5
		Scenario: "evacuate",
		Agents:   agents, Extent: extent, Seed: seed,
		Partitions: parts, Ticks: ticks,
		EpochTicks: epoch, CheckpointEveryEpochs: 1,
	}
	fastLiveness(&o)
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.StallDrops < 1 {
		t.Errorf("stallDrops = %d, want ≥ 1", res.StallDrops)
	}
	if res.Procs != 2 {
		t.Errorf("procs = %d, want 2 survivors", res.Procs)
	}
	assertSamePopulation(t, "stall in window, absorbed", ref.Agents(), res.Agents)
}
