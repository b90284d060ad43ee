package distrib

import (
	"net"
	"testing"
	"time"

	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/partition"
	"github.com/bigreddata/brace/internal/scenario"
	"github.com/bigreddata/brace/internal/transport"
)

// TestMeshBitIdenticalRegistryWide is the mesh's equivalence oracle: with
// multi-session daemons and load balancing on, so cuts move mid-run,
// every registered local-effect scenario must end bit-identical to the
// in-memory engine, and the coordinator must relay zero data frames in
// steady state: the peer links carry the whole data plane.
func TestMeshBitIdenticalRegistryWide(t *testing.T) {
	const (
		agents = 96
		seed   = uint64(5)
		parts  = 4
		ticks  = 12
		epoch  = 4
	)
	bal := partition.Balancer{MigrateCostPerAgent: 1e-9, HorizonTicks: 1000, MinRelativeGain: 0.01}
	for _, sp := range scenario.All() {
		if !sp.LocalOnly {
			continue // non-local effects are not bit-stable across partitionings
		}
		name := sp.Name
		extent := 30.0
		if name == "traffic" {
			extent = 1800 // traffic derives its population from Extent
		}
		t.Run(name, func(t *testing.T) {
			mem := memEngine(t, name, agents, extent, seed, engine.Options{
				Workers: parts, Seed: seed,
				EpochTicks:  epoch,
				LoadBalance: true, Balancer: bal,
			})
			if err := mem.RunTicks(ticks); err != nil {
				t.Fatal(err)
			}
			res, err := Run(Options{
				Addrs:    startChaosWorkers(t, 2, nil),
				Scenario: name,
				Agents:   agents, Extent: extent, Seed: seed,
				Partitions: parts, Ticks: ticks,
				EpochTicks:  epoch,
				LoadBalance: true, Balancer: bal,
			})
			if err != nil {
				t.Fatal(err)
			}
			assertSamePopulation(t, name+"/mesh", mem.Agents(), res.Agents)
			if res.Net.SentMsgs == 0 {
				t.Error("no traffic crossed the wire; the run was not distributed")
			}
			if res.RelayedDataFrames != 0 {
				t.Errorf("coordinator relayed %d data frames (%d bytes); a healthy mesh carries its own data plane",
					res.RelayedDataFrames, res.RelayedDataBytes)
			}
		})
	}
}

// SIGKILL-style chaos on the peer mesh: a worker session severed mid-run
// must recover — re-placed from the last coordinated checkpoint,
// re-admitted at the next generation with a fresh peer roster — and end
// bit-identical to the unfailed reference.
func TestMeshRecoveryBitIdentical(t *testing.T) {
	const (
		agents = 96
		extent = 30.0
		seed   = uint64(5)
		parts  = 4
		ticks  = 12
		epoch  = 3
	)
	ref := memEngine(t, "epidemic", agents, extent, seed, engine.Options{
		Workers: parts, Seed: seed,
		EpochTicks: epoch,
	})
	if err := ref.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{
		Addrs:    startChaosWorkers(t, 2, severProcAt(1, 15)),
		Scenario: "epidemic",
		Agents:   agents, Extent: extent, Seed: seed,
		Partitions: parts, Ticks: ticks,
		EpochTicks: epoch, CheckpointEveryEpochs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries < 1 {
		t.Errorf("recoveries = %d, want ≥ 1", res.Recoveries)
	}
	if res.Rejoins < 1 {
		t.Errorf("rejoins = %d, want ≥ 1 (daemon was alive to re-dial)", res.Rejoins)
	}
	assertSamePopulation(t, "mesh recovery", ref.Agents(), res.Agents)
}

// SIGSTOP-style chaos on the peer mesh: the frozen worker raises no
// socket error anywhere — including on its peer links — so only the
// coordinator's heartbeat can break the barrier.
func TestMeshStallBitIdentical(t *testing.T) {
	const (
		agents = 96
		extent = 30.0
		seed   = uint64(5)
		parts  = 4
		ticks  = 12
		epoch  = 3
	)
	ref := memEngine(t, "epidemic", agents, extent, seed, engine.Options{
		Workers: parts, Seed: seed,
		EpochTicks: epoch,
	})
	if err := ref.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}
	o := Options{
		Addrs:    startChaosWorkers(t, 2, stallProcAt(1, 15)),
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
	assertSamePopulation(t, "mesh stall", ref.Agents(), res.Agents)
}

// Chaos in the overlapped tick's failure window on the peer mesh: the fault lands
// between the interior pass and the boundary drain, so the victim's
// envelopes and count markers are already out on the peer links when it
// dies. The count-based barrier must stay exact through the recovery.
func TestMeshSeverInOverlapWindow(t *testing.T) {
	const (
		agents = 96
		extent = 30.0
		seed   = uint64(7)
		parts  = 4
		ticks  = 12
		epoch  = 3
	)
	ref := memEngine(t, "epidemic", agents, extent, seed, engine.Options{
		Workers: parts, Seed: seed,
		EpochTicks: epoch,
	})
	if err := ref.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}
	o := Options{
		Addrs:    startChaosWorkers(t, 2, severProcInWindow(1, 15)),
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
	if res.Recoveries < 1 {
		t.Errorf("recoveries = %d, want ≥ 1", res.Recoveries)
	}
	assertSamePopulation(t, "mesh sever in window", ref.Agents(), res.Agents)
}

// severPeerLink cuts proc's outgoing peer link to dst right before its
// n-th phase barrier; the session itself stays healthy.
func severPeerLink(proc, dst, phase int) func(tr transport.Transport, h *transport.Hello) transport.Transport {
	return func(tr transport.Transport, h *transport.Hello) transport.Transport {
		if h.Proc == proc && h.Gen == 1 {
			return &transport.FaultAt{Transport: tr, Phase: phase, Do: func() { tr.(*transport.TCP).CutPeer(dst) }}
		}
		return tr
	}
}

// stallPeerLink degrades proc's outgoing peer link to dst at the n-th
// barrier: the next write reaches the socket but reports failure, leaving
// a maybe-delivered frame for the relay to re-send.
func stallPeerLink(proc, dst, phase int) func(tr transport.Transport, h *transport.Hello) transport.Transport {
	return func(tr transport.Transport, h *transport.Hello) transport.Transport {
		if h.Proc == proc && h.Gen == 1 {
			return &transport.FaultAt{Transport: tr, Phase: phase, Do: func() { tr.(*transport.TCP).StallPeer(dst) }}
		}
		return tr
	}
}

// A single peer link cut mid-epoch must not cost the run anything: the
// sender falls back to the coordinator relay for that destination, no
// recovery triggers, and the final state is bit-identical. The relay
// counters prove the fallback actually carried traffic.
func TestMeshPeerLinkSeverRelaysAndMatches(t *testing.T) {
	const (
		agents = 96
		extent = 30.0
		seed   = uint64(5)
		parts  = 4
		ticks  = 12
		epoch  = 3
	)
	ref := memEngine(t, "epidemic", agents, extent, seed, engine.Options{
		Workers: parts, Seed: seed,
		EpochTicks: epoch,
	})
	if err := ref.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{
		Addrs:    startChaosWorkers(t, 2, severPeerLink(0, 1, 9)),
		Scenario: "epidemic",
		Agents:   agents, Extent: extent, Seed: seed,
		Partitions: parts, Ticks: ticks,
		EpochTicks: epoch, CheckpointEveryEpochs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 0 {
		t.Errorf("recoveries = %d, want 0: a dead peer link is not a dead worker", res.Recoveries)
	}
	if res.RelayedDataFrames == 0 {
		t.Error("no data frames were relayed; the severed link was never exercised")
	}
	assertSamePopulation(t, "peer-link sever", ref.Agents(), res.Agents)
}

// The silent variant: the write "succeeds" on the wire before the sender
// sees failure, so the same envelope can arrive twice — once direct, once
// through the relay re-send. The receiver's per-source sequence dedup
// must keep exactly one copy, which bit-identity proves.
func TestMeshPeerLinkStallDedupsAndMatches(t *testing.T) {
	const (
		agents = 96
		extent = 30.0
		seed   = uint64(5)
		parts  = 4
		ticks  = 12
		epoch  = 3
	)
	ref := memEngine(t, "epidemic", agents, extent, seed, engine.Options{
		Workers: parts, Seed: seed,
		EpochTicks: epoch,
	})
	if err := ref.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{
		Addrs:    startChaosWorkers(t, 2, stallPeerLink(1, 0, 9)),
		Scenario: "epidemic",
		Agents:   agents, Extent: extent, Seed: seed,
		Partitions: parts, Ticks: ticks,
		EpochTicks: epoch, CheckpointEveryEpochs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 0 {
		t.Errorf("recoveries = %d, want 0", res.Recoveries)
	}
	if res.RelayedDataFrames == 0 {
		t.Error("no data frames were relayed; the stalled link was never exercised")
	}
	assertSamePopulation(t, "peer-link stall dedup", ref.Agents(), res.Agents)
}

// A worker that registers mid-run joins the fleet through the same
// restore machinery recovery uses: the coordinator admits it at the next
// generation, grows the placement, and rewinds the run from the last
// coordinated checkpoint onto the larger fleet. Local-effect state is
// partition-independent, so the end state must still be bit-identical.
func TestMeshMidRunRegistrationJoins(t *testing.T) {
	const (
		agents = 96
		extent = 30.0
		seed   = uint64(5)
		parts  = 4
		ticks  = 24
		epoch  = 3
	)
	ref := memEngine(t, "epidemic", agents, extent, seed, engine.Options{
		Workers: parts, Seed: seed,
		EpochTicks: epoch,
	})
	if err := ref.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}

	rlis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(rlis)
	t.Cleanup(reg.Close)

	// The initial fleet is named directly; the only registration the
	// registry ever sees is the newcomer, fired from inside proc 0's 9th
	// phase barrier — deterministically mid-run.
	register := func() {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Error(err)
			return
		}
		t.Cleanup(func() { lis.Close() })
		go ServeWith(lis, ServeOptions{Register: reg.Addr()})
		// Hold the barrier until the registration lands so the join
		// event is in flight before the run resumes ticking.
		deadline := time.Now().Add(10 * time.Second)
		for len(reg.Workers()) == 0 {
			if time.Now().After(deadline) {
				t.Error("newcomer never registered")
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	joinOnce := func(tr transport.Transport, h *transport.Hello) transport.Transport {
		if h.Proc == 0 && h.Gen == 1 {
			return &transport.FaultAt{Transport: tr, Phase: 9, Do: register}
		}
		return tr
	}
	o := Options{
		Addrs:    startChaosWorkers(t, 2, joinOnce),
		Scenario: "epidemic",
		Agents:   agents, Extent: extent, Seed: seed,
		Partitions: parts, Ticks: ticks,
		EpochTicks: epoch, CheckpointEveryEpochs: 1,
		Registry: reg,
	}
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Joins != 1 {
		t.Errorf("joins = %d, want 1", res.Joins)
	}
	if res.Procs != 3 {
		t.Errorf("procs = %d, want 3 after the join", res.Procs)
	}
	assertSamePopulation(t, "mid-run join", ref.Agents(), res.Agents)
}
