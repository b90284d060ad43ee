package mapreduce

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/bigreddata/brace/internal/cluster"
	"github.com/bigreddata/brace/internal/transport"
)

// rec is the toy value for runtime tests: either an "item" (an agent
// analogue owned by partition Owner) or a partial-aggregate record
// produced during a two-reduce tick.
type rec struct {
	ID      int
	Owner   int
	Val     float64
	Partial bool
}

// recBytes is the wire size the tests meter per rec.
const recBytes = 24

// ringJob moves every item one partition to the right each tick and has
// the reducer add the number of co-located items to each item's Val. The
// reduction is order-independent, so the result has a closed form.
func ringJob(workers int) Job[rec] {
	return Job[rec]{
		Name: "ring",
		Map: func(ctx *Ctx, vs []rec, emit Emit[rec]) {
			for _, v := range vs {
				v.Owner = (v.Owner + 1) % workers
				emit(v.Owner, v)
			}
		},
		Reduce1: func(ctx *Ctx, vs []rec, emit Emit[rec]) {
			n := float64(len(vs))
			for _, v := range vs {
				v.Val += n
				emit(v.Owner, v)
			}
		},
		ValueBytes: recBytes,
	}
}

// broadcastJob exercises the map-reduce-reduce path: each item is
// replicated to every partition; reduce1 emits one partial (Val=1) per
// replica to the item's owner; reduce2 folds partials into the item so
// after each tick Val == workers.
func broadcastJob(workers int) Job[rec] {
	return Job[rec]{
		Name: "broadcast",
		Map: func(ctx *Ctx, vs []rec, emit Emit[rec]) {
			for _, v := range vs {
				v.Val = 0
				for p := 0; p < workers; p++ {
					cp := v
					cp.Partial = p != v.Owner // the owner keeps the real item
					emit(p, cp)
				}
			}
		},
		Reduce1: func(ctx *Ctx, vs []rec, emit Emit[rec]) {
			for _, v := range vs {
				if !v.Partial {
					emit(v.Owner, v) // pass the item through to its owner
				}
				emit(v.Owner, rec{ID: v.ID, Owner: v.Owner, Val: 1, Partial: true})
			}
		},
		Reduce2: func(ctx *Ctx, vs []rec, emit Emit[rec]) {
			sums := map[int]float64{}
			items := map[int]rec{}
			for _, v := range vs {
				if v.Partial {
					sums[v.ID] += v.Val
				} else {
					items[v.ID] = v
				}
			}
			for id, it := range items {
				it.Val = sums[id]
				emit(it.Owner, it)
			}
		},
		ValueBytes: recBytes,
	}
}

func loadItems(r *Runtime[rec], n, workers int) {
	for i := 0; i < n; i++ {
		r.Load(i%workers, []rec{{ID: i, Owner: i % workers}})
	}
}

func sortedItems(r *Runtime[rec]) []rec {
	all := r.AllValues()
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all
}

func TestRingConservationAndMigration(t *testing.T) {
	for _, tc := range []struct{ workers, items, ticks, epoch int }{
		{4, 16, 8, 4},
		{5, 37, 11, 0}, // uneven residue classes: 8 items on owners 0–1, 7 on 2–4
	} {
		r := New(ringJob(tc.workers), Config{Workers: tc.workers, EpochTicks: tc.epoch})
		loadItems(r, tc.items, tc.workers)
		if err := r.RunTicks(tc.ticks); err != nil {
			t.Fatal(err)
		}
		all := sortedItems(r)
		if len(all) != tc.items {
			t.Fatalf("%+v: item count = %d, want %d", tc, len(all), tc.items)
		}
		for _, it := range all {
			home := it.ID % tc.workers
			if want := (home + tc.ticks) % tc.workers; it.Owner != want {
				t.Errorf("%+v: item %d owner = %d, want %d", tc, it.ID, it.Owner, want)
			}
			// An item's residue class moves as one block, so each tick it
			// shares its partition with exactly the items of its class.
			class := (tc.items - home + tc.workers - 1) / tc.workers
			if want := float64(class * tc.ticks); it.Val != want {
				t.Errorf("%+v: item %d Val = %v, want %v", tc, it.ID, it.Val, want)
			}
		}
		if r.Tick() != uint64(tc.ticks) {
			t.Errorf("%+v: Tick = %d", tc, r.Tick())
		}
	}
}

// runSerial applies a map-reduce job in one goroutine, partition by
// partition, with no shuffle or exchange: the reference the concurrent
// runtime must reproduce.
func runSerial(job Job[rec], workers int, parts [][]rec, ticks int) []rec {
	for tick := 0; tick < ticks; tick++ {
		next := make([][]rec, workers)
		for p, vs := range parts {
			ctx := &Ctx{Tick: uint64(tick), Worker: p}
			job.Map(ctx, vs, func(dst int, v rec) { next[dst] = append(next[dst], v) })
		}
		parts = make([][]rec, workers)
		for p, vs := range next {
			ctx := &Ctx{Tick: uint64(tick), Worker: p}
			job.Reduce1(ctx, vs, func(dst int, v rec) { parts[dst] = append(parts[dst], v) })
		}
	}
	var all []rec
	for _, vs := range parts {
		all = append(all, vs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all
}

func TestParallelMatchesSequential(t *testing.T) {
	const workers, items, ticks = 5, 37, 11
	par := New(ringJob(workers), Config{Workers: workers})
	loadItems(par, items, workers)
	if err := par.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}
	parts := make([][]rec, workers)
	for i := 0; i < items; i++ {
		parts[i%workers] = append(parts[i%workers], rec{ID: i, Owner: i % workers})
	}
	a, b := sortedItems(par), runSerial(ringJob(workers), workers, parts, ticks)
	if len(a) != len(b) {
		t.Fatalf("parallel has %d items, serial reference %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("parallel/serial reference diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestTwoReducePathGlobalAggregation(t *testing.T) {
	const workers, items, ticks = 4, 10, 5
	r := New(broadcastJob(workers), Config{Workers: workers})
	loadItems(r, items, workers)
	if err := r.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}
	all := sortedItems(r)
	if len(all) != items {
		t.Fatalf("item count = %d, want %d", len(all), items)
	}
	for _, it := range all {
		if it.Val != float64(workers) {
			t.Errorf("item %d global aggregate = %v, want %v", it.ID, it.Val, workers)
		}
		if it.Partial {
			t.Errorf("partial record leaked into final state: %+v", it)
		}
	}
}

// A crash is a closed transport: the phase it interrupts is lost, RunTicks
// stops at that barrier with transport.ErrRestore, and Reset — here the
// test's own rollback — resumes the run. The lost phase's traffic stays
// metered and its virtual time stays paid; the replay then moves exactly
// the clean run's traffic and ends in its state.
func TestClosedTransportRestoresThroughReset(t *testing.T) {
	const workers, items, ticks, epoch = 2, 4, 8, 2
	model := cluster.CostModel{SecPerByte: 1}
	newRun := func(tr transport.Transport, vc *cluster.VClock, onEpoch func(*Runtime[rec], uint64)) *Runtime[rec] {
		var r *Runtime[rec]
		r = New(ringJob(workers), Config{
			Workers: workers, EpochTicks: epoch, Transport: tr, VClock: vc,
			OnEpoch: func(tick uint64) error { onEpoch(r, tick); return nil },
		})
		loadItems(r, items, workers)
		return r
	}
	cleanClock, clock := cluster.NewVClock(workers, model), cluster.NewVClock(workers, model)
	clean := newRun(nil, cleanClock, func(*Runtime[rec], uint64) {})
	if err := clean.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}

	// The ring job runs two phases a tick, so barrier 6 is tick 2's reduce:
	// its batches are queued when the transport closes. The test keeps the
	// tick-2 state as its rollback point.
	mem := transport.NewMem(workers)
	var beforeCrash cluster.NodeMetrics
	var clockBeforeCrash float64
	saved := map[int][]rec{}
	var boundaries []uint64
	faulty := newRun(&transport.FaultAt{Transport: mem, Phase: 6, Do: func() { mem.Close() }}, clock, func(r *Runtime[rec], tick uint64) {
		boundaries = append(boundaries, tick)
		if tick == 2 && len(saved) == 0 {
			beforeCrash, clockBeforeCrash = mem.Metrics().Totals(), clock.Now()
			for p := 0; p < workers; p++ {
				saved[p] = append([]rec(nil), r.Values(p)...)
			}
		}
	})
	if err := faulty.RunTicks(ticks); !errors.Is(err, transport.ErrRestore) || faulty.Tick() != 2 {
		t.Fatalf("RunTicks = %v at tick %d, want ErrRestore at tick 2", err, faulty.Tick())
	}
	lost := sub(mem.Metrics().Totals(), beforeCrash)
	if lost.SentMsgs == 0 {
		t.Error("the lost phase's sends were not metered")
	}
	if clock.Now() <= clockBeforeCrash {
		t.Error("the lost phase cost no virtual time")
	}
	for n := 0; n < workers; n++ {
		if msgs := mem.Drain(cluster.NodeID(n)); len(msgs) != 0 {
			t.Errorf("inbox %d holds %d messages of the lost phase", n, len(msgs))
		}
	}
	if err := faulty.Reset(2, nil, saved); err != nil {
		t.Fatal(err)
	}
	if err := faulty.RunTicks(ticks - 2); err != nil {
		t.Fatal(err)
	}
	if want := []uint64{2, 4, 6, 8}; !slices.Equal(boundaries, want) {
		t.Errorf("epoch hooks ran at %v, want %v", boundaries, want)
	}
	if got, want := sub(mem.Metrics().Totals(), lost), clean.Transport().Metrics().Totals(); got != want {
		t.Errorf("traffic without the lost phase's = %+v, want the clean run's %+v", got, want)
	}
	if clock.Now() <= cleanClock.Now() {
		t.Error("the recovered run cost no more virtual time than the clean one")
	}
	a, b := sortedItems(clean), sortedItems(faulty)
	if len(a) != items || len(b) != items {
		t.Fatalf("item counts %d and %d, want %d", len(a), len(b), items)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("recovered run diverges at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// sub returns the traffic a metered since b.
func sub(a, b cluster.NodeMetrics) cluster.NodeMetrics {
	return cluster.NodeMetrics{
		LocalMsgs: a.LocalMsgs - b.LocalMsgs, LocalBytes: a.LocalBytes - b.LocalBytes,
		SentMsgs: a.SentMsgs - b.SentMsgs, SentBytes: a.SentBytes - b.SentBytes,
		RecvMsgs: a.RecvMsgs - b.RecvMsgs, RecvBytes: a.RecvBytes - b.RecvBytes,
	}
}

// Reset refuses a partition set or values it cannot hold, and changes
// nothing when it does.
func TestResetRejectsBadPartitions(t *testing.T) {
	r := New(ringJob(3), Config{Workers: 3})
	loadItems(r, 6, 3)
	for _, tc := range []struct {
		name   string
		local  []int
		values map[int][]rec
	}{
		{"partition past the last", []int{0, 3}, nil},
		{"negative partition", []int{-1}, nil},
		{"partition listed twice", []int{1, 1}, nil},
		{"values for a remote partition", []int{0}, map[int][]rec{2: {{ID: 9}}}},
		{"values for an unknown partition", nil, map[int][]rec{5: {{ID: 9}}}},
	} {
		if err := r.Reset(7, tc.local, tc.values); err == nil {
			t.Errorf("%s: Reset accepted", tc.name)
		}
		if r.Tick() != 0 || len(r.AllValues()) != 6 {
			t.Fatalf("%s: refused Reset changed the runtime: tick %d, %d values", tc.name, r.Tick(), len(r.AllValues()))
		}
	}
	if err := r.RunTicks(2); err != nil {
		t.Fatal(err)
	}
}

// A data message a worker cannot accept — another phase's tag, a payload
// that is not a pointer to a batch of the job's values (a bare batch or a
// nil pointer included), or a value the job's Check refuses — fails the
// run with a *MessageError; it never panics a phase.
func TestMalformedMessageFailsTheRun(t *testing.T) {
	for _, tc := range []struct {
		name   string
		m      cluster.Message
		reason string
	}{
		{"wrong tag", cluster.Message{From: 1, To: 0, Tag: int(PhaseReduce2), Payload: &[]rec{{ID: 9}}}, ""},
		{"wrong payload", cluster.Message{From: 1, To: 0, Tag: int(PhaseMap), Payload: &[]float64{1}}, ""},
		{"bare batch", cluster.Message{From: 1, To: 0, Tag: int(PhaseMap), Payload: []rec{{ID: 9}}}, ""},
		{"nil batch pointer", cluster.Message{From: 1, To: 0, Tag: int(PhaseMap), Payload: (*[]rec)(nil)}, ""},
		{"refused value", cluster.Message{From: 1, To: 0, Tag: int(PhaseMap), Payload: &[]rec{{ID: -1}}}, "negative ID in phase 1"},
	} {
		tr := transport.NewMem(2)
		job := ringJob(2)
		job.Check = func(ctx *Ctx, v rec) error {
			if v.ID < 0 {
				return fmt.Errorf("negative ID in phase %d", ctx.Phase)
			}
			return nil
		}
		r := New(job, Config{Workers: 2, Transport: tr})
		loadItems(r, 4, 2)
		if err := tr.Send(tc.m); err != nil {
			t.Fatal(err)
		}
		var me *MessageError
		if err := r.RunTicks(1); !errors.As(err, &me) || me.Worker != 0 || me.Tag != tc.m.Tag || me.Reason != tc.reason {
			t.Errorf("%s: RunTicks = %v, want a *MessageError for worker 0 with reason %q", tc.name, err, tc.reason)
		}
	}
}

// Check sees every value a peer sent and none a worker sent itself.
func TestCheckSeesPeerValuesOnly(t *testing.T) {
	job := broadcastJob(3)
	var mu sync.Mutex
	checked := map[Phase]int{}
	job.Check = func(ctx *Ctx, v rec) error {
		mu.Lock()
		checked[ctx.Phase]++
		mu.Unlock()
		return nil
	}
	r := New(job, Config{Workers: 3})
	loadItems(r, 6, 3)
	if err := r.RunTicks(1); err != nil {
		t.Fatal(err)
	}
	// Map sends each of the six items to two peers; reduce₁ sends one
	// partial per foreign copy (four per partition) to its owner; reduce₂
	// keeps every item where it is.
	want := map[Phase]int{PhaseMap: 12, PhaseReduce1: 12}
	if !maps.Equal(checked, want) {
		t.Errorf("checked per phase = %v, want %v", checked, want)
	}
}

func TestEpochHookAndOwnedCounts(t *testing.T) {
	const workers = 3
	var hookTicks []uint64
	var lastCounts []int
	var r *Runtime[rec]
	r = New(ringJob(workers), Config{
		Workers: workers, EpochTicks: 4,
		OnEpoch: func(tick uint64) error {
			hookTicks = append(hookTicks, tick)
			lastCounts = r.OwnedCounts()
			if r.Tick() != tick {
				t.Errorf("Tick at the hook = %d, want %d", r.Tick(), tick)
			}
			return nil
		},
	})
	loadItems(r, 9, workers)
	if err := r.RunTicks(10); err != nil {
		t.Fatal(err)
	}
	want := []uint64{4, 8, 10} // epoch boundaries + final tick
	if len(hookTicks) != len(want) {
		t.Fatalf("hook ticks = %v, want %v", hookTicks, want)
	}
	for i := range want {
		if hookTicks[i] != want[i] {
			t.Fatalf("hook ticks = %v, want %v", hookTicks, want)
		}
	}
	total := 0
	for _, c := range lastCounts {
		total += c
	}
	if total != 9 {
		t.Errorf("OwnedCounts total = %d, want 9", total)
	}
}

func TestTransportMeteringLocalBypass(t *testing.T) {
	// One worker: every message is collocated, none cross the network.
	r := New(ringJob(1), Config{Workers: 1})
	loadItems(r, 5, 1)
	if err := r.RunTicks(3); err != nil {
		t.Fatal(err)
	}
	m := r.Transport().Metrics().Totals()
	if m.SentMsgs != 0 {
		t.Errorf("single worker sent %d network msgs", m.SentMsgs)
	}
	if m.LocalMsgs == 0 {
		t.Error("no local traffic recorded")
	}
}

func TestVClockChargesNetworkOnlyForRemote(t *testing.T) {
	model := cluster.CostModel{SecPerByte: 1, SecPerMsg: 0}
	// 2 workers: ring items alternate partitions each tick, always remote.
	vc := cluster.NewVClock(2, model)
	r := New(ringJob(2), Config{Workers: 2, VClock: vc})
	loadItems(r, 2, 2)
	if err := r.RunTicks(1); err != nil {
		t.Fatal(err)
	}
	if vc.Now() == 0 {
		t.Error("remote traffic should cost virtual time")
	}

	vc1 := cluster.NewVClock(1, model)
	r1 := New(ringJob(1), Config{Workers: 1, VClock: vc1})
	loadItems(r1, 2, 1)
	if err := r1.RunTicks(1); err != nil {
		t.Fatal(err)
	}
	if vc1.Now() != 0 {
		t.Errorf("collocated traffic cost %v virtual seconds; want 0", vc1.Now())
	}
}

func TestNewValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero workers", func() { New(ringJob(1), Config{Workers: 0}) })
	bad := ringJob(1)
	bad.Map = nil
	mustPanic("nil map", func() { New(bad, Config{Workers: 1}) })
}
