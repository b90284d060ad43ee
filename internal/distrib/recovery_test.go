package distrib

import (
	"net"
	"slices"
	"strings"
	"testing"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/partition"
	"github.com/bigreddata/brace/internal/scenario"
	"github.com/bigreddata/brace/internal/transport"
)

// wrapFunc is ServeOptions.Wrap: the chaos suites' fault injector.
type wrapFunc = func(tr transport.Transport, h *transport.Hello) transport.Transport

// startChaosWorkers launches n multi-session worker daemons (so a severed
// worker's daemon survives to accept a re-admission dial) whose session
// transports run through wrap.
func startChaosWorkers(t *testing.T, n int, wrap wrapFunc) []string {
	return startFaultyWorkers(t, n, wrap, false)
}

// startDoomedWorkers is startChaosWorkers where a fault takes its whole
// host down: the daemon's listener closes as the fault fires, so the
// coordinator's rejoin dial is refused and the survivors absorb the dead
// worker's partitions.
func startDoomedWorkers(t *testing.T, n int, wrap wrapFunc) []string {
	return startFaultyWorkers(t, n, wrap, true)
}

func startFaultyWorkers(t *testing.T, n int, wrap wrapFunc, hostDies bool) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { lis.Close() })
		addrs[i] = lis.Addr().String()
		w := wrap
		if hostDies {
			w = func(tr transport.Transport, h *transport.Hello) transport.Transport {
				tr = wrap(tr, h)
				if f, ok := tr.(*transport.FaultAt); ok {
					do := f.Do
					f.Do = func() { lis.Close(); do() }
				}
				return tr
			}
		}
		go ServeWith(lis, ServeOptions{Wrap: w})
	}
	return addrs
}

// sever is the SIGKILL fault: it closes the session's coordinator
// connection, and with it every peer link.
func sever(tr transport.Transport) func() { return func() { tr.Close() } }

// severProcAt severs the given worker's first-generation session right
// before its n-th phase barrier; re-admitted sessions run unharmed.
func severProcAt(proc, phase int) func(tr transport.Transport, h *transport.Hello) transport.Transport {
	return func(tr transport.Transport, h *transport.Hello) transport.Transport {
		if h.Proc == proc && h.Gen == 1 {
			return &transport.FaultAt{Transport: tr, Phase: phase, Do: sever(tr)}
		}
		return tr
	}
}

// memEngine runs the in-memory reference with full engine options.
func memEngine(t *testing.T, name string, agents int, extent float64, seed uint64, opts engine.Options) *engine.Distributed {
	t.Helper()
	sp, ok := scenario.Lookup(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	m, pop, err := sp.New(scenario.Config{Agents: agents, Seed: seed, Extent: extent})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.NewDistributed(m, pop, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func assertSamePopulation(t *testing.T, label string, want, got agent.Population) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: population sizes differ: want %d, got %d", label, len(want), len(got))
	}
	for i := range want {
		if !want[i].Equal(got[i]) {
			t.Fatalf("%s: agent %d differs:\n  want: %v\n  got:  %v", label, want[i].ID, want[i], got[i])
		}
	}
}

// The fault-injection acceptance oracle: a worker whose connection is
// severed mid-tick is re-admitted from the last coordinated checkpoint and
// the run ends bit-identical to an unfailed in-memory run.
func TestRecoverySeveredWorkerRejoins(t *testing.T) {
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

	// Sever proc 1 before phase 15 = mid tick 7, after the checkpoints at
	// ticks 3 and 6 have been committed.
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
	if res.Procs != 2 {
		t.Errorf("procs = %d, want 2 after re-admission", res.Procs)
	}
	if res.Ticks != ticks {
		t.Fatalf("ticks = %d, want %d", res.Ticks, ticks)
	}
	assertSamePopulation(t, "severed+rejoined", ref.Agents(), res.Agents)
}

// With its host gone the survivors absorb the dead worker's partitions —
// and the result is still bit-identical.
func TestRecoverySeveredWorkerAbsorbed(t *testing.T) {
	const (
		agents = 90
		extent = 30.0
		seed   = uint64(11)
		parts  = 5
		ticks  = 10
		epoch  = 2
	)
	ref := memEngine(t, "evacuate", agents, extent, seed, engine.Options{
		Workers: parts, Seed: seed,
		EpochTicks: epoch,
	})
	if err := ref.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}

	res, err := Run(Options{
		Addrs:    startDoomedWorkers(t, 3, severProcAt(1, 9)), // mid tick 4
		Scenario: "evacuate",
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
	if res.Rejoins != 0 {
		t.Errorf("rejoins = %d, want 0 with the host down", res.Rejoins)
	}
	if res.Procs != 2 {
		t.Errorf("procs = %d, want 2 survivors", res.Procs)
	}
	assertSamePopulation(t, "severed+absorbed", ref.Agents(), res.Agents)
}

// A failure with no periodic checkpoints rewinds all the way to tick 0 —
// the coordinator always holds the initial state.
func TestRecoveryFromInitialCheckpoint(t *testing.T) {
	ref := memEngine(t, "epidemic", 60, 30, 7, engine.Options{Workers: 3, Seed: 7, EpochTicks: 4})
	if err := ref.RunTicks(8); err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{
		Addrs:    startDoomedWorkers(t, 3, severProcAt(2, 11)), // mid tick 5
		Scenario: "epidemic",
		Agents:   60, Extent: 30, Seed: 7,
		Partitions: 3, Ticks: 8,
		EpochTicks: 4,
		// CheckpointEveryEpochs: 0 — only the tick-0 state exists.
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries < 1 {
		t.Errorf("recoveries = %d, want ≥ 1", res.Recoveries)
	}
	assertSamePopulation(t, "tick0-recovery", ref.Agents(), res.Agents)
}

// Failure recovery composes with coordinator-driven load balancing: the
// final state still matches the unfailed in-memory engine with the same
// balancer (the partitioning trajectory may differ — rebalances are not
// re-decided while re-executing, matching the in-memory master — but
// local-effect state is partition-independent).
func TestRecoveryWithLoadBalance(t *testing.T) {
	bal := partition.Balancer{MigrateCostPerAgent: 1e-9, HorizonTicks: 1000, MinRelativeGain: 0.01}
	ref := memEngine(t, "epidemic", 96, 30, 5, engine.Options{
		Workers: 4, Seed: 5, LoadBalance: true, Balancer: bal,
		EpochTicks: 3,
	})
	if err := ref.RunTicks(12); err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{
		Addrs:    startChaosWorkers(t, 2, severProcAt(0, 15)),
		Scenario: "epidemic",
		Agents:   96, Extent: 30, Seed: 5,
		Partitions: 4, Ticks: 12,
		EpochTicks: 3, CheckpointEveryEpochs: 1,
		LoadBalance: true, Balancer: bal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries < 1 {
		t.Errorf("recoveries = %d, want ≥ 1", res.Recoveries)
	}
	assertSamePopulation(t, "lb+recovery", ref.Agents(), res.Agents)
}

// One fault model gives one decision log: the same fault — a transport
// closed at barrier 15, mid tick 7 — on the in-process engine's Mem and on
// one worker's TCP session makes the same decisions at the same barriers —
// the lost tick counted by neither, the re-executed boundary not
// re-balanced — and ends in the same population.
func TestRecoveryDecisionLogMatchesInProcess(t *testing.T) {
	bal := partition.Balancer{MigrateCostPerAgent: 1e-9, HorizonTicks: 1000, MinRelativeGain: 0.01}
	fault := func(tr transport.Transport) transport.Transport {
		return &transport.FaultAt{Transport: tr, Phase: 15, Do: sever(tr)}
	}
	mem := memEngine(t, "epidemic", 96, 30, 5, engine.Options{
		Workers: 4, Seed: 5, LoadBalance: true, Balancer: bal,
		EpochTicks: 3, CheckpointEveryEpochs: 1,
		Transport: fault(transport.NewMem(4)),
	})
	if err := mem.RunTicks(12); err != nil {
		t.Fatal(err)
	}
	if mem.Recoveries() != 1 {
		t.Fatalf("in-process recoveries = %d, want 1", mem.Recoveries())
	}
	res, err := Run(Options{
		Addrs: startChaosWorkers(t, 2, func(tr transport.Transport, h *transport.Hello) transport.Transport {
			if h.Proc == 0 && h.Gen == 1 {
				return fault(tr)
			}
			return tr
		}),
		Scenario: "epidemic",
		Agents:   96, Extent: 30, Seed: 5,
		Partitions: 4, Ticks: 12,
		EpochTicks: 3, CheckpointEveryEpochs: 1,
		LoadBalance: true, Balancer: bal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 1 {
		t.Fatalf("tcp recoveries = %d, want 1", res.Recoveries)
	}
	log := mem.Decisions()
	if len(log) != len(res.Epochs) {
		t.Fatalf("in-process log has %d decisions, tcp %d:\n  %v\n  %v", len(log), len(res.Epochs), log, res.Epochs)
	}
	rebalanced := false
	for i, d := range log {
		e := res.Epochs[i]
		if d.Tick != e.Tick || d.Rebalanced != e.Rebalanced || !slices.Equal(d.Cuts, e.Cuts) {
			t.Errorf("decision %d: in-process %+v, tcp %+v", i, d, e)
		}
		rebalanced = rebalanced || d.Rebalanced
	}
	if !rebalanced {
		t.Error("no barrier rebalanced; the logs agree vacuously")
	}
	if res.Rebalances != rebalances(log) {
		t.Errorf("Result.Rebalances = %d, the log holds %d", res.Rebalances, rebalances(log))
	}
	assertSamePopulation(t, "one master", mem.Agents(), res.Agents)
}

func rebalances(log []EpochDecision) int {
	n := 0
	for _, d := range log {
		if d.Rebalanced {
			n++
		}
	}
	return n
}

// A malformed Restore is refused before it reaches the engine — an
// assignment longer than the partition count used to index the runtime's
// workers out of range and take the whole daemon down — and a refused
// restore leaves the engine's tick, cuts and partitions as they were.
func TestRestoreRefusesMalformedFrames(t *testing.T) {
	eng := memEngine(t, "epidemic", 60, 30, 7, engine.Options{Workers: 4, Seed: 7, EpochTicks: 2, LocalParts: []int{0, 1}})
	if err := eng.RunTicks(2); err != nil {
		t.Fatal(err)
	}
	h := &transport.Hello{Proc: 0, NumProcs: 2, Partitions: 4}
	cuts := eng.Partition().Cuts()
	part := func(p int) transport.PartState {
		return transport.PartState{Part: p, Full: true, Values: engine.CloneEnvelopes(eng.ExportPartition(p))}
	}
	valid := func() *transport.Restore {
		return &transport.Restore{Gen: 2, Tick: 0, Cuts: cuts, Assign: []int{0, 0, 1, 1}, Live: []bool{true, true},
			Parts: []transport.PartState{part(0), part(1)}}
	}
	for _, tc := range []struct {
		name string
		edit func(r *transport.Restore)
	}{
		{"assignment longer than the partition count", func(r *transport.Restore) { r.Assign = []int{0, 0, 1, 1, 0} }},
		{"assignment shorter than the partition count", func(r *transport.Restore) { r.Assign = r.Assign[:3] }},
		{"partition assigned to a negative process", func(r *transport.Restore) { r.Assign[2] = -1 }},
		{"partition assigned past the live roster", func(r *transport.Restore) { r.Assign[3] = 2 }},
		{"state for a partition another process owns", func(r *transport.Restore) { r.Parts = append(r.Parts, part(2)) }},
		{"state for an unknown partition", func(r *transport.Restore) { r.Parts[1].Part = 4 }},
		{"state for a negative partition", func(r *transport.Restore) { r.Parts[0].Part = -1 }},
		{"state for one partition twice", func(r *transport.Restore) { r.Parts[1] = part(0) }},
		{"cuts for another partition count", func(r *transport.Restore) { r.Cuts = []float64{1} }},
		{"delta state", func(r *transport.Restore) { r.Parts[0] = transport.PartState{Part: 0, Delta: []byte{1, 0}} }},
	} {
		r := valid()
		tc.edit(r)
		// A refusal never reaches the transport, so none is needed.
		if err := applyRestore(eng, nil, h, r); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if got := eng.Partition().Cuts(); !slices.Equal(got, cuts) {
			t.Fatalf("%s: refused restore changed the cuts %v -> %v", tc.name, cuts, got)
		}
		if eng.Tick() != 2 || !slices.Equal(eng.LocalPartitions(), []int{0, 1}) {
			t.Fatalf("%s: refused restore moved the engine to tick %d, partitions %v", tc.name, eng.Tick(), eng.LocalPartitions())
		}
	}
}

// A worker that dies at the same replayed point every generation — a
// flapping link that re-severs after each re-admission — must fail the
// run after the recovery budget instead of looping forever.
func TestRecoveryGivesUpOnFlappingWorker(t *testing.T) {
	flappy := func(tr transport.Transport, h *transport.Hello) transport.Transport {
		if h.Proc == 1 {
			return &transport.FaultAt{Transport: tr, Phase: 3, Do: sever(tr)} // every session
		}
		return tr
	}
	_, err := Run(Options{
		Addrs:    startChaosWorkers(t, 2, flappy),
		Scenario: "epidemic",
		Agents:   60, Extent: 30, Seed: 7,
		Partitions: 4, Ticks: 8,
		EpochTicks: 2, CheckpointEveryEpochs: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "giving up") {
		t.Fatalf("err = %v, want recovery budget exhaustion", err)
	}
}

// Two workers dying — the second while the run is already recovering from
// the first — must still converge: each death triggers its own rollback,
// and the sole survivor finishes with the correct state.
func TestRecoveryDoubleDeath(t *testing.T) {
	wrap := func(tr transport.Transport, h *transport.Hello) transport.Transport {
		if h.Gen != 1 {
			return tr
		}
		switch h.Proc {
		case 1:
			return &transport.FaultAt{Transport: tr, Phase: 9, Do: sever(tr)}
		case 2:
			return &transport.FaultAt{Transport: tr, Phase: 13, Do: sever(tr)}
		}
		return tr
	}
	ref := memEngine(t, "epidemic", 90, 30, 13, engine.Options{Workers: 6, Seed: 13, EpochTicks: 2})
	if err := ref.RunTicks(10); err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{
		Addrs:    startDoomedWorkers(t, 3, wrap),
		Scenario: "epidemic",
		Agents:   90, Extent: 30, Seed: 13,
		Partitions: 6, Ticks: 10,
		EpochTicks: 2, CheckpointEveryEpochs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries < 2 {
		t.Errorf("recoveries = %d, want ≥ 2", res.Recoveries)
	}
	if res.Procs != 1 {
		t.Errorf("procs = %d, want 1 survivor", res.Procs)
	}
	assertSamePopulation(t, "double-death", ref.Agents(), res.Agents)
}
