package engine

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/geom"
	"github.com/bigreddata/brace/internal/transport"
)

// runFlock runs the flock model from a fixed population for ticks ticks.
func runFlock(t *testing.T, opts Options, ticks int) *Distributed {
	t.Helper()
	m := newFlockModel(6)
	e, err := NewDistributed(m, makePop(m.s, 90, 45, 31), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}
	return e
}

// closeAt wraps tr so that it closes right before phase barrier phase, the
// in-process crash. Barriers are 1-based and counted over the whole run,
// the ones a rollback re-executes included; the flock model runs two a
// tick, so tick t's map is barrier 2t+1 until the first rollback.
func closeAt(tr transport.Transport, phase int) transport.Transport {
	return &transport.FaultAt{Transport: tr, Phase: phase, Do: func() { tr.Close() }}
}

func TestFailureRecoveryMatchesFailureFreeRun(t *testing.T) {
	opts := Options{Workers: 4, Seed: 3, EpochTicks: 5, CheckpointEveryEpochs: 1}
	clean := runFlock(t, opts, 20)
	opts.Transport = closeAt(transport.NewMem(4), 15) // tick 7's map
	faulty := runFlock(t, opts, 20)
	if faulty.Recoveries() != 1 {
		t.Fatalf("Recoveries = %d, want 1", faulty.Recoveries())
	}
	popsExactlyEqual(t, "recovered run", clean.Agents(), faulty.Agents())
}

func TestMultipleFailures(t *testing.T) {
	opts := Options{Workers: 3, Seed: 3, EpochTicks: 5, CheckpointEveryEpochs: 1}
	clean := runFlock(t, opts, 30)
	// Tick 4's map is barrier 9; it rolls back to tick 0, so afterwards
	// tick t's map is barrier 9+2t+1. Tick 13's, barrier 36, rolls back to
	// the checkpoint at 10; tick 22's is then barrier 36+2·(22−10)+1 = 61.
	opts.Transport = closeAt(closeAt(closeAt(transport.NewMem(3), 9), 36), 61)
	faulty := runFlock(t, opts, 30)
	if faulty.Recoveries() != 3 {
		t.Errorf("Recoveries = %d, want 3", faulty.Recoveries())
	}
	if faulty.Tick() != 30 {
		t.Errorf("Tick = %d, want 30", faulty.Tick())
	}
	popsExactlyEqual(t, "three recoveries", clean.Agents(), faulty.Agents())
}

// The checkpoint cadence is the master's, not the caller's: however a run
// is sliced into RunTicks calls, the same epochs checkpoint and a crash
// rolls back to the same tick. A rollback does not rewind the epoch count,
// so the cadence runs on through the re-executed boundaries.
func TestCheckpointCadenceIndependentOfRunTicksSlicing(t *testing.T) {
	for _, slicing := range []struct{ calls, ticks int }{{1, 20}, {4, 5}} {
		m := newFlockModel(6)
		var e *Distributed
		var barriers, held []uint64
		observe := func() {
			if tick := e.master.held.Tick; len(held) == 0 || held[len(held)-1] != tick {
				held = append(held, tick)
			}
		}
		e, err := NewDistributed(m, makePop(m.s, 60, 30, 7), Options{
			Workers: 2, Seed: 7, EpochTicks: 5, CheckpointEveryEpochs: 2,
			Transport: closeAt(transport.NewMem(2), 35), // tick 17's map
			EpochBarrier: func(tick uint64) error {
				barriers = append(barriers, tick)
				observe()
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < slicing.calls; i++ {
			if err := e.RunTicks(slicing.ticks); err != nil {
				t.Fatal(err)
			}
		}
		observe()
		// Epochs end at ticks 5, 10 and 15, and the second checkpoints. The
		// crash in tick 17 is found at its map barrier and rolls back to
		// tick 10. The re-executed boundary at 15 is the fourth epoch, so it
		// checkpoints; the one at 20 is the fifth.
		if want := []uint64{0, 10, 15}; !slices.Equal(held, want) {
			t.Errorf("%d×%d ticks: checkpoints at %v, want %v", slicing.calls, slicing.ticks, held, want)
		}
		if want := []uint64{5, 10, 15, 15, 20}; !slices.Equal(barriers, want) {
			t.Errorf("%d×%d ticks: barriers at %v, want %v (a rollback to 10)", slicing.calls, slicing.ticks, barriers, want)
		}
		if e.Recoveries() != 1 || e.Tick() != 20 {
			t.Errorf("%d×%d ticks: Recoveries = %d, Tick = %d, want 1 and 20", slicing.calls, slicing.ticks, e.Recoveries(), e.Tick())
		}
		// The rollback rewinds the epoch statistics with the decision log:
		// both read every epoch once, in tick order.
		var epochs, decisions []uint64
		for _, st := range e.Epochs() {
			epochs = append(epochs, st.Tick)
		}
		for _, d := range e.Decisions() {
			decisions = append(decisions, d.Tick)
		}
		if want := []uint64{5, 10, 15, 20}; !slices.Equal(epochs, want) || !slices.Equal(decisions, want) {
			t.Errorf("%d×%d ticks: Epochs at %v, Decisions at %v, want both %v", slicing.calls, slicing.ticks, epochs, decisions, want)
		}
	}
}

// A rollback restores the master's state with the agents': the run
// re-executes under the cuts the checkpoint recorded — those in force
// before that barrier's own rebalance — and the decision log forgets what
// was decided after the checkpoint.
func TestMasterSnapshotRestoredOnRecovery(t *testing.T) {
	m := newFlockModel(6)
	pop := makePop(m.s, 120, 20, 23)
	for i := 90; i < 120; i++ {
		pop[i].SetPos(m.s, geom.V(60+float64(i), 0)) // a crowd the balancer must chase
	}
	cutsAt := map[uint64][][]float64{}
	var e *Distributed
	e, err := NewDistributed(m, pop, Options{
		Workers: 4, Seed: 6, EpochTicks: 4, CheckpointEveryEpochs: 1,
		LoadBalance: true, Balancer: eagerBalancer,
		Transport: closeAt(transport.NewMem(4), 19), // tick 9's map
		EpochBarrier: func(tick uint64) error {
			cutsAt[tick] = append(cutsAt[tick], e.Partition().Cuts())
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTicks(16); err != nil {
		t.Fatal(err)
	}
	if e.Recoveries() != 1 {
		t.Fatalf("Recoveries = %d, want 1", e.Recoveries())
	}
	// The crash in tick 9 rolls back to the checkpoint at 8: barrier 12
	// runs once, after the replay, under barrier 8's cuts.
	if len(cutsAt[8]) != 1 || len(cutsAt[12]) != 1 {
		t.Fatalf("barriers ran %d times at 8 and %d at 12, want once each", len(cutsAt[8]), len(cutsAt[12]))
	}
	if !slices.Equal(cutsAt[12][0], cutsAt[8][0]) {
		t.Errorf("re-executed epoch ran under cuts %v, want the checkpointed %v", cutsAt[12][0], cutsAt[8][0])
	}
	log := e.Decisions()
	var ticks []uint64
	for _, d := range log {
		ticks = append(ticks, d.Tick)
	}
	if want := []uint64{4, 8, 12, 16}; !slices.Equal(ticks, want) {
		t.Fatalf("decision log at %v, want %v", ticks, want)
	}
	if !log[1].Rebalanced {
		t.Fatal("barrier 8 did not rebalance; the test cannot tell restored cuts from kept ones")
	}
	if !slices.Equal(log[len(log)-1].Cuts, e.Partition().Cuts()) {
		t.Errorf("last decision's cuts %v, engine runs under %v", log[len(log)-1].Cuts, e.Partition().Cuts())
	}
}

// Property: checkpoints are transparent. A run given a transport it could
// close takes every checkpoint; never closed, it never rolls back, and it
// must end exactly like the run on the engine's own transport, with the
// same decisions.
func TestQuickCheckpointTransparency(t *testing.T) {
	m := newFlockModel(5)
	f := func(nw, na, nt, nk uint8, lb bool) bool {
		workers := int(nw%4) + 1
		agents := int(na%40) + 1
		ticks := int(nt%12) + 2
		run := func(tr transport.Transport) *Distributed {
			e, err := NewDistributed(m, makePop(m.s, agents, 30, uint64(na)), Options{
				Workers: workers, Seed: 9, EpochTicks: 3, CheckpointEveryEpochs: int(nk%3) + 1,
				LoadBalance: lb, Balancer: eagerBalancer, Transport: tr,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.RunTicks(ticks); err != nil {
				t.Fatal(err)
			}
			return e
		}
		a := run(nil)
		b := run(transport.NewMem(workers))
		if b.master.seq == 0 && ticks >= 3*(int(nk%3)+1) {
			t.Errorf("no checkpoint taken in %d ticks", ticks)
		}
		x, y := a.Agents(), b.Agents()
		if len(x) != len(y) || len(a.Decisions()) != len(b.Decisions()) {
			return false
		}
		for i := range x {
			if !x[i].Equal(y[i]) {
				return false
			}
		}
		for i, d := range a.Decisions() {
			if d2 := b.Decisions()[i]; d.Tick != d2.Tick || d.Rebalanced != d2.Rebalanced || !slices.Equal(d.Cuts, d2.Cuts) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Restore and RestoreCheckpoint check every argument before they change
// anything: a refused restore leaves tick, cuts, partitions and agents as
// they were, and the engine runs on.
func TestRestoreRefusesBadArguments(t *testing.T) {
	m := newFlockModel(5)
	e, err := NewDistributed(m, makePop(m.s, 40, 20, 3), Options{Workers: 3, Seed: 3, EpochTicks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTicks(4); err != nil {
		t.Fatal(err)
	}
	cuts, pop := e.Partition().Cuts(), e.Agents()
	valid := func() map[int][]*Envelope {
		vals := map[int][]*Envelope{}
		for p := 0; p < 3; p++ {
			vals[p] = CloneEnvelopes(e.ExportPartition(p))
		}
		return vals
	}
	other := []*Envelope{{A: agent.New(m.s, 999)}}
	for _, tc := range []struct {
		name  string
		cuts  []float64
		local []int
		vals  map[int][]*Envelope
	}{
		{"non-finite cut", []float64{1, math.NaN()}, nil, valid()},
		{"cuts for another partition count", []float64{1, 2, 3}, nil, valid()},
		{"local partition past the last", []float64{1, 2}, []int{0, 3}, nil},
		{"no cuts for three partitions", nil, nil, valid()},
		{"negative local partition", []float64{1, 2}, []int{-1}, nil},
		{"local partition listed twice", []float64{1, 2}, []int{1, 1}, nil},
		{"values for a partition not computed here", []float64{1, 2}, []int{0}, map[int][]*Envelope{1: other}},
		{"values for an unknown partition", []float64{1, 2}, nil, map[int][]*Envelope{7: other}},
	} {
		if err := e.Restore(1, tc.cuts, tc.local, tc.vals); err == nil {
			t.Errorf("%s: Restore accepted", tc.name)
		}
		if got := e.Partition().Cuts(); !slices.Equal(got, cuts) {
			t.Fatalf("%s: refused Restore changed the cuts %v -> %v", tc.name, cuts, got)
		}
		if e.Tick() != 4 || len(e.LocalPartitions()) != 3 {
			t.Fatalf("%s: refused Restore changed tick %d or partitions %v", tc.name, e.Tick(), e.LocalPartitions())
		}
		popsExactlyEqual(t, tc.name, pop, e.Agents())
	}
	full := func(p int, v []*Envelope) transport.PartState {
		return transport.PartState{Part: p, Full: true, Values: v}
	}
	for _, tc := range []struct {
		name  string
		parts []transport.PartState
	}{
		{"delta piece", []transport.PartState{{Part: 0, Delta: []byte{1, 0}}}},
		{"partition twice", []transport.PartState{full(0, other), full(0, other)}},
		{"partition past the last", []transport.PartState{full(3, other)}},
	} {
		if err := e.RestoreCheckpoint(&Checkpoint{Tick: 1, Cuts: []float64{1, 2}, Parts: tc.parts}, nil); err == nil {
			t.Errorf("%s: RestoreCheckpoint accepted", tc.name)
		}
		if got := e.Partition().Cuts(); !slices.Equal(got, cuts) || e.Tick() != 4 {
			t.Fatalf("%s: refused RestoreCheckpoint changed cuts %v -> %v or tick to %d", tc.name, cuts, got, e.Tick())
		}
		popsExactlyEqual(t, tc.name, pop, e.Agents())
	}
	if err := e.RunTicks(2); err != nil {
		t.Fatal(err)
	}
}
