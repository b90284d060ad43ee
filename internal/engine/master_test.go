package engine

import (
	"errors"
	"fmt"
	"testing"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/geom"
	"github.com/bigreddata/brace/internal/partition"
	"github.com/bigreddata/brace/internal/transport"
)

// masterStep is one call on a Master and what it must answer, rendered by
// masterOutcome.
type masterStep struct {
	op    string                // "barrier", "file" or "rewind"
	tick  uint64                // barrier tick
	stats []transport.PartStats // barrier input; nil: balanced, every partition once
	piece transport.PartState   // file input
	want  string
}

func masterOutcome(m *Master, st masterStep) string {
	switch st.op {
	case "barrier":
		stats := st.stats
		if stats == nil {
			stats = balancedStats
		}
		d, err := m.Barrier(st.tick, stats)
		var se *StatsError
		switch {
		case errors.As(err, &se):
			return "stats: " + err.Error()
		case err != nil:
			return "err: " + err.Error()
		}
		out := "-"
		if d.Checkpoint {
			out = "ckpt"
		}
		if d.NewCuts != nil {
			out += " cuts"
		}
		return out
	case "file":
		ck, err := m.File(st.piece)
		var pe *PieceError
		switch {
		case errors.As(err, &pe):
			return "piece: " + err.Error()
		case err != nil:
			return "err: " + err.Error()
		case ck == nil:
			return "pending"
		}
		return fmt.Sprintf("held %d", ck.Tick)
	default:
		ck := m.Rewind()
		var ticks []uint64
		for _, d := range m.Log() {
			ticks = append(ticks, d.Tick)
		}
		return fmt.Sprintf("tick %d, log %v", ck.Tick, ticks)
	}
}

// Two partitions split at x = 50. Balanced statistics put four agents on
// each side; skewed ones crowd partition 0, which an eager balancer moves
// the cut for.
var (
	balancedStats = []transport.PartStats{
		{Part: 0, Cost: 4, Xs: []float64{10, 20, 30, 40}},
		{Part: 1, Cost: 4, Xs: []float64{60, 70, 80, 90}},
	}
	skewedStats = []transport.PartStats{
		{Part: 0, Cost: 40, Xs: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}},
		{Part: 1, Cost: 1, Xs: []float64{90}},
	}
	eagerBalancer = partition.Balancer{MigrateCostPerAgent: 1e-9, HorizonTicks: 1000, MinRelativeGain: 0.01}
)

// The master alone, with no engine and no sockets: the checkpoint
// cadence, the forward-only rebalance rule, filing full pieces once each,
// the log a rewind truncates, the rule that a boundary whose round never
// completed is no epoch, and refused statistics and pieces.
func TestMaster(t *testing.T) {
	s := newFlockModel(1).s
	state := func(xs ...float64) []*Envelope {
		envs := make([]*Envelope, len(xs))
		for i, x := range xs {
			a := agent.New(s, agent.ID(x))
			a.SetPos(s, geom.V(x, 1))
			envs[i] = &Envelope{A: a}
		}
		return envs
	}
	before := [][]*Envelope{state(10, 20), state(60, 70)}
	after := [][]*Envelope{state(10, 20), state(60, 70)}
	after[1][0].A.SetPos(s, geom.V(61, 1)) // partition 1 moved one agent
	full := func(p int, vals [][]*Envelope) masterStep {
		return masterStep{op: "file", piece: transport.PartState{Part: p, Full: true, Values: vals[p]}}
	}
	barrier := func(tick uint64, want string) masterStep {
		return masterStep{op: "barrier", tick: tick, want: want}
	}
	with := func(st masterStep, want string) masterStep { st.want = want; return st }
	rewind := func(want string) masterStep { return masterStep{op: "rewind", want: want} }

	for _, tc := range []struct {
		name  string
		every int
		lb    bool
		steps []masterStep
	}{
		{"checkpoint interval counts barriers", 2, false, []masterStep{
			barrier(3, "-"), barrier(6, "ckpt"), barrier(9, "-"), barrier(12, "ckpt"),
		}},
		{"a piece is a partition's full state, filed once", 1, false, []masterStep{
			barrier(2, "ckpt"),
			with(full(0, before), "pending"), with(full(1, before), "held 2"),
			barrier(4, "ckpt"),
			{op: "file", piece: transport.PartState{Part: 0, Values: after[0]},
				want: "piece: engine: checkpoint piece at tick 4 for partition 0: not full"},
			with(full(1, after), "pending"),
			with(full(1, after), "piece: engine: checkpoint piece at tick 4 for partition 1: filed twice"),
			with(full(0, after), "held 4"),
			with(full(0, after), "piece: engine: checkpoint piece at tick 0 for partition 0: with no checkpoint ordered"),
		}},
		{"rewind truncates the log to the held tick and drops the round in flight", 1, false, []masterStep{
			barrier(3, "ckpt"), with(full(0, before), "pending"), with(full(1, before), "held 3"),
			barrier(6, "ckpt"), with(full(0, after), "pending"),
			barrier(9, "ckpt"),
			rewind("tick 3, log [3]"),
			with(full(1, after), "piece: engine: checkpoint piece at tick 0 for partition 1: with no checkpoint ordered"),
		}},
		{"a failed boundary is no epoch: with checkpoints every 2 epochs and a crash at 17, they land on 0, 10, 15", 2, false, []masterStep{
			barrier(5, "-"),
			barrier(10, "ckpt"), with(full(0, before), "pending"), with(full(1, before), "held 10"),
			barrier(15, "-"),
			// The boundary at 20 found the crash: no barrier round, a rewind.
			rewind("tick 10, log [5 10]"),
			barrier(15, "ckpt"), with(full(0, after), "pending"), with(full(1, after), "held 15"),
			barrier(20, "-"),
			rewind("tick 15, log [5 10 15]"),
		}},
		{"forward-only rebalance: a re-executed barrier never re-decides one", 1, true, []masterStep{
			barrier(3, "ckpt"), with(full(0, before), "pending"), with(full(1, before), "held 3"),
			{op: "barrier", tick: 6, stats: skewedStats, want: "ckpt cuts"},
			rewind("tick 3, log [3]"),
			{op: "barrier", tick: 6, stats: skewedStats, want: "ckpt"},
			{op: "barrier", tick: 9, stats: skewedStats, want: "ckpt cuts"},
		}},
		{"statistics must cover every partition exactly once, and a refused round is no epoch", 2, true, []masterStep{
			{op: "barrier", tick: 2, stats: balancedStats[:1], want: "stats: engine: epoch statistics at tick 2: partition 1 missing"},
			{op: "barrier", tick: 2, stats: append(skewedStats[:1:1], skewedStats[0], balancedStats[1]),
				want: "stats: engine: epoch statistics at tick 2: partition 0 reported twice"},
			{op: "barrier", tick: 2, stats: append(balancedStats[:2:2], transport.PartStats{Part: 2}),
				want: "stats: engine: epoch statistics at tick 2: partition 2 unknown"},
			{op: "barrier", tick: 2, stats: []transport.PartStats{{Part: -1}, balancedStats[1]},
				want: "stats: engine: epoch statistics at tick 2: partition -1 unknown"},
			{op: "barrier", tick: 2, stats: []transport.PartStats{skewedStats[0], {Part: 0}},
				want: "stats: engine: epoch statistics at tick 2: partition 0 reported twice"},
			barrier(2, "-"), barrier(4, "ckpt"),
		}},
		{"pieces for unknown partitions are refused", 1, false, []masterStep{
			barrier(1, "ckpt"),
			{op: "file", piece: transport.PartState{Part: 2, Full: true}, want: "piece: engine: checkpoint piece at tick 1 for partition 2: unknown"},
			{op: "file", piece: transport.PartState{Part: -1, Full: true}, want: "piece: engine: checkpoint piece at tick 1 for partition -1: unknown"},
		}},
	} {
		initial := Checkpoint{Cuts: []float64{50}, Parts: []transport.PartState{
			{Part: 0, Full: true, Values: before[0]},
			{Part: 1, Full: true, Values: before[1]},
		}}
		m := NewMaster(initial, tc.every, tc.lb, eagerBalancer)
		for i, st := range tc.steps {
			if got := masterOutcome(m, st); got != st.want {
				t.Errorf("%s: step %d (%s %d): got %q, want %q", tc.name, i, st.op, st.tick, got, st.want)
			}
		}
	}
}

// The master holds the pieces it is given as they are: after every
// partition of a checkpoint has filed, the held checkpoint's values are
// the very slices filed, equal to the engine's state at that barrier, and
// a rewind hands that checkpoint back.
func TestMasterHoldsFiledPieces(t *testing.T) {
	m := newFlockModel(6)
	e, err := NewDistributed(m, makePop(m.s, 60, 30, 4), Options{Workers: 3, Seed: 4, EpochTicks: 2})
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]transport.PartState, 3)
	for p := range parts {
		parts[p] = transport.PartState{Part: p, Full: true, Values: CloneEnvelopes(e.ExportPartition(p))}
	}
	ms := NewMaster(Checkpoint{Cuts: e.Partition().Cuts(), Parts: parts}, 1, false, partition.Balancer{})
	var held *Checkpoint
	for tick := uint64(2); tick <= 8; tick += 2 {
		if err := e.RunTicks(2); err != nil {
			t.Fatal(err)
		}
		if _, err := ms.Barrier(tick, e.EpochStats(false)); err != nil {
			t.Fatal(err)
		}
		var filed [][]*Envelope
		for _, ps := range e.Checkpoint() {
			if !ps.Full {
				t.Fatalf("tick %d: partition %d shipped a piece that is not full", tick, ps.Part)
			}
			ps.Values = CloneEnvelopes(ps.Values)
			filed = append(filed, ps.Values)
			if held, err = ms.File(ps); err != nil {
				t.Fatal(err)
			}
		}
		if held == nil || held.Tick != tick {
			t.Fatalf("tick %d: checkpoint not complete after every partition filed", tick)
		}
		for p := range held.Parts {
			if got := held.Parts[p].Values; len(got) > 0 && &got[0] != &filed[p][0] {
				t.Errorf("tick %d: partition %d is held as a copy of the piece filed", tick, p)
			}
			envsEqual(t, held.Parts[p].Values, e.ExportPartition(p))
		}
	}
	if ck := ms.Rewind(); ck != held {
		t.Fatalf("Rewind returned the checkpoint at tick %d, want the one held at %d", ck.Tick, held.Tick)
	}
}
