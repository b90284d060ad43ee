package distrib

import (
	"net"
	"testing"
	"time"

	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/transport"
)

// stallProcAt freezes the given worker's first-generation session right
// before its n-th phase barrier — the silent-hang failure mode (SIGSTOP,
// silent partition) that raises no socket error. Re-admitted sessions run
// unharmed.
func stallProcAt(proc, phase int) func(tr transport.Transport, h *transport.Hello) transport.Transport {
	return func(tr transport.Transport, h *transport.Hello) transport.Transport {
		if h.Proc == proc && h.Gen == 1 {
			return &transport.FaultAt{Transport: tr, Phase: phase, Do: tr.(*transport.TCP).Stall}
		}
		return tr
	}
}

// fastLiveness are the detection knobs the stall suites run with: a
// 100ms×5 heartbeat window so a frozen worker is declared dead in well
// under a second, without being so tight that a loaded CI box trips it
// for healthy workers.
func fastLiveness(o *Options) {
	o.Heartbeat = 100 * time.Millisecond
	o.EpochTimeout = 10 * time.Second
}

// The liveness acceptance oracle: a worker frozen mid-tick — socket open,
// engine silent — used to hang the barrier forever. Now the missed
// heartbeats force-drop it, its daemon is re-admitted from the last
// coordinated checkpoint, and the run ends bit-identical to an unfailed
// in-memory run.
func TestStallDetectedAndRejoined(t *testing.T) {
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

	// Freeze proc 1 before phase 15 = mid tick 7, after the checkpoints
	// at ticks 3 and 6 have been committed.
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
	if res.Rejoins < 1 {
		t.Errorf("rejoins = %d, want ≥ 1 (daemon was alive to re-dial)", res.Rejoins)
	}
	if res.Procs != 2 {
		t.Errorf("procs = %d, want 2 after re-admission", res.Procs)
	}
	if res.Ticks != ticks {
		t.Fatalf("ticks = %d, want %d", res.Ticks, ticks)
	}
	assertSamePopulation(t, "stalled+rejoined", ref.Agents(), res.Agents)
}

// With its host gone the survivors absorb the frozen worker's
// partitions — and the result is still bit-identical.
func TestStallDetectedAndAbsorbed(t *testing.T) {
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

	o := Options{
		Addrs:    startDoomedWorkers(t, 3, stallProcAt(1, 9)), // mid tick 4
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
	assertSamePopulation(t, "stalled+absorbed", ref.Agents(), res.Agents)
}

// A stall while the checkpoint round is assembling: the directive went
// out, one worker froze before shipping its pieces. The round deadline
// (not just the heartbeat) must break this — and the half-assembled
// checkpoint must be discarded, recovery restoring from the previous
// complete one.
func TestStallDuringCheckpointRound(t *testing.T) {
	const (
		agents = 80
		extent = 30.0
		seed   = uint64(9)
		parts  = 4
		ticks  = 10
		epoch  = 2
	)
	ref := memEngine(t, "epidemic", agents, extent, seed, engine.Options{
		Workers: parts, Seed: seed,
		EpochTicks: epoch,
	})
	if err := ref.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}
	// Local-effect scenarios run 2 phases/tick: phase 8 ends tick 4 — the
	// barrier at the tick-4 epoch. The stall hits the 8th EndPhase, i.e.
	// the worker answers the barrier's stats but freezes at the next
	// phase… to freeze *inside* the checkpoint round we instead stall the
	// phase right after the directive is applied; either way no socket
	// error ever surfaces and liveness must end the hang.
	o := Options{
		Addrs:    startDoomedWorkers(t, 2, stallProcAt(0, 8)),
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
		t.Errorf("stallDrops = %d, want ≥ 1", res.StallDrops)
	}
	assertSamePopulation(t, "stall-at-checkpoint", ref.Agents(), res.Agents)
}

// The worker-side watchdog: a session whose coordinator goes silent (no
// frames, no heartbeat pings) is aborted after CoordTimeout instead of
// holding the daemon hostage forever.
func TestWorkerCoordinatorWatchdog(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go ServeWith(lis, ServeOptions{CoordTimeout: 300 * time.Millisecond})

	nc, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	fc := transport.NewConn(nc)
	h := &transport.Hello{
		Proto: transport.ProtoVersion, RunID: "run-1", Proc: 0, NumProcs: 1,
		Partitions: 1, Assign: []int{0}, Gen: 1, Peers: []string{lis.Addr().String()},
		Scenario: "epidemic", Agents: 2000, Seed: 1, Ticks: 1 << 30,
		EpochTicks: 1 << 29,
	}
	if err := fc.Send(&transport.Frame{Kind: transport.FrameHello, Hello: h}); err != nil {
		t.Fatal(err)
	}
	ack, err := fc.Recv()
	if err != nil || ack.Kind != transport.FrameAck || ack.Err != "" {
		t.Fatalf("handshake: %+v, %v", ack, err)
	}
	// Go silent. The run is far too long to finish; only the watchdog can
	// end the session, which surfaces here as the connection dying.
	done := make(chan error, 1)
	go func() {
		for {
			if _, err := fc.Recv(); err != nil {
				done <- err
				return
			}
		}
	}()
	select {
	case <-done:
		// Session aborted: the daemon freed itself from a dead coordinator.
	case <-time.After(15 * time.Second):
		t.Fatal("worker session outlived a silent coordinator")
	}
}

// Every coordinated checkpoint ships each partition's full state: one
// full piece per partition per checkpoint, no delta piece, and a final
// state identical to the in-memory engine's.
func TestCheckpointsShipFullPieces(t *testing.T) {
	const (
		agents = 80
		seed   = uint64(3)
		parts  = 4
		ticks  = 12
		epoch  = 2
	)
	res, err := Run(Options{
		Addrs:    startWorkers(t, 2),
		Scenario: "fish",
		Agents:   agents, Seed: seed,
		Partitions: parts, Ticks: ticks,
		EpochTicks: epoch, CheckpointEveryEpochs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := memEngine(t, "fish", agents, 0, seed, engine.Options{
		Workers: parts, Seed: seed,
		EpochTicks: epoch,
	})
	if err := ref.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}
	assertSamePopulation(t, "checkpointed run", ref.Agents(), res.Agents)
	if want := parts * ticks / epoch; res.CheckpointFullParts != want || res.CheckpointDeltaParts != 0 {
		t.Errorf("checkpoints shipped %d full and %d delta parts, want %d and 0",
			res.CheckpointFullParts, res.CheckpointDeltaParts, want)
	}
	if res.CheckpointBytes == 0 {
		t.Error("checkpoint frames metered 0 bytes")
	}
}

// A severed worker is restored from a checkpoint the coordinator holds as
// its workers' decoded pieces, several checkpoints into the run, and the
// run still ends bit-identical to the in-memory engine.
func TestRecoveryFromHeldWorkerPieces(t *testing.T) {
	const (
		agents = 96
		extent = 30.0
		seed   = uint64(19)
		parts  = 4
		ticks  = 14
		epoch  = 2
	)
	ref := memEngine(t, "epidemic", agents, extent, seed, engine.Options{
		Workers: parts, Seed: seed,
		EpochTicks: epoch,
	})
	if err := ref.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}
	// Sever at phase 21 = mid tick 10: the restore state is the
	// checkpoint at tick 8, the fourth one filed.
	res, err := Run(Options{
		Addrs:    startChaosWorkers(t, 2, severProcAt(1, 21)),
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
	assertSamePopulation(t, "recovery from held pieces", ref.Agents(), res.Agents)
}
