package mapreduce

import (
	"encoding/gob"
	"slices"
	"sort"
	"testing"

	"github.com/bigreddata/brace/internal/cluster"
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

func init() { gob.Register(rec{}) }

func cloneRec(r rec) rec { return r }

func sizeRec(r rec) int { return 24 }

// ringJob moves every item one partition to the right each tick and has
// the reducer add the number of co-located items to each item's Val. The
// reduction is order-independent, so the result has a closed form.
func ringJob(workers int) Job[rec] {
	return Job[rec]{
		Name: "ring",
		Map: func(ctx *Ctx, v rec, emit Emit[rec]) {
			v.Owner = (v.Owner + 1) % workers
			emit(v.Owner, v)
		},
		Reduce1: func(ctx *Ctx, vs []rec, emit Emit[rec]) {
			n := float64(len(vs))
			for _, v := range vs {
				v.Val += n
				emit(v.Owner, v)
			}
		},
		SizeOf: sizeRec,
		Clone:  cloneRec,
	}
}

// broadcastJob exercises the map-reduce-reduce path: each item is
// replicated to every partition; reduce1 emits one partial (Val=1) per
// replica to the item's owner; reduce2 folds partials into the item so
// after each tick Val == workers.
func broadcastJob(workers int) Job[rec] {
	return Job[rec]{
		Name: "broadcast",
		Map: func(ctx *Ctx, v rec, emit Emit[rec]) {
			v.Val = 0
			for p := 0; p < workers; p++ {
				cp := v
				cp.Partial = p != v.Owner // the owner keeps the real item
				emit(p, cp)
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
		SizeOf: sizeRec,
		Clone:  cloneRec,
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
			for _, v := range vs {
				job.Map(ctx, v, func(dst int, v rec) { next[dst] = append(next[dst], v) })
			}
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

func TestFailureRecoveryMatchesFailureFreeRun(t *testing.T) {
	const workers, items, ticks = 4, 16, 20
	clean := New(ringJob(workers), Config{
		Workers: workers, EpochTicks: 5, CheckpointEveryEpochs: 1,
	})
	loadItems(clean, items, workers)
	if err := clean.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}

	failures := cluster.NewFailurePlan().CrashAt(7, 2)
	faulty := New(ringJob(workers), Config{
		Workers: workers, EpochTicks: 5, CheckpointEveryEpochs: 1,
		Failures: failures,
	})
	loadItems(faulty, items, workers)
	if err := faulty.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}
	if faulty.Recoveries() != 1 {
		t.Fatalf("Recoveries = %d, want 1", faulty.Recoveries())
	}
	a, b := sortedItems(clean), sortedItems(faulty)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("recovered run diverges at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// A crash is simulated by the runtime alone: from the crash tick to the
// next epoch boundary the worker's memory is gone, it runs no phase, and
// batches addressed to it are dropped before the transport sees them (so
// they are never metered) while the sender still pays the network time for
// the attempt. Recovery re-enables delivery.
func TestCrashedWorkerIsCutOffUntilRecovery(t *testing.T) {
	const workers, items, ticks, epoch = 2, 4, 8, 2
	run := func(failures *cluster.FailurePlan, vc *cluster.VClock, atBoundary func(r *Runtime[rec], tick uint64)) *Runtime[rec] {
		var r *Runtime[rec]
		r = New(ringJob(workers), Config{
			Workers: workers, EpochTicks: epoch, CheckpointEveryEpochs: 1,
			Failures: failures, VClock: vc,
			// Barrier runs first at a boundary, before failure detection.
			Barrier: func(tick uint64) error { atBoundary(r, tick); return nil },
		})
		loadItems(r, items, workers)
		if err := r.RunTicks(ticks); err != nil {
			t.Fatal(err)
		}
		return r
	}
	model := cluster.CostModel{SecPerByte: 1}
	cleanClock, clock := cluster.NewVClock(workers, model), cluster.NewVClock(workers, model)
	clean := run(nil, cleanClock, func(*Runtime[rec], uint64) {})

	// Worker 1 crashes at the start of tick 2, the first tick of an epoch:
	// that tick worker 0 maps its items to partition 1 and nothing comes
	// back, so by the boundary at tick 4 every value is gone.
	var beforeCrash cluster.NodeMetrics
	var clockBeforeCrash float64
	faulty := run(cluster.NewFailurePlan().CrashAt(2, 1), clock, func(r *Runtime[rec], tick uint64) {
		if r.Recoveries() > 0 {
			return
		}
		switch tick {
		case 2:
			beforeCrash, clockBeforeCrash = r.Transport().Metrics().Totals(), clock.Now()
		case 4:
			if got := r.Transport().Metrics().Totals(); got != beforeCrash {
				t.Errorf("the crashed epoch was metered: %+v before, %+v after", beforeCrash, got)
			}
			if clock.Now() <= clockBeforeCrash {
				t.Error("worker 0's dropped sends cost no virtual network time")
			}
			if got := r.OwnedCounts(); got[0] != 0 || got[1] != 0 {
				t.Errorf("values after the crashed epoch = %v, want none: worker 1 lost its memory and worker 0's sends were dropped", got)
			}
			for n := 0; n < workers; n++ {
				if msgs := r.Transport().Drain(cluster.NodeID(n)); len(msgs) != 0 {
					t.Errorf("inbox %d holds %d messages; nothing to or from a crashed worker may be delivered", n, len(msgs))
				}
			}
		}
	})
	if faulty.Recoveries() != 1 {
		t.Fatalf("Recoveries = %d, want 1", faulty.Recoveries())
	}
	// Delivery works again after recovery: the re-executed epoch and the
	// rest of the run move exactly the traffic of the clean run, and end in
	// its state — later, by the virtual time the lost epoch cost.
	if got, want := faulty.Transport().Metrics().Totals(), clean.Transport().Metrics().Totals(); got != want {
		t.Errorf("traffic with a recovered crash = %+v, want the clean run's %+v", got, want)
	}
	if clock.Now() <= cleanClock.Now() {
		t.Error("the lost epoch cost no virtual time")
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

// The checkpoint cadence is the master's, not the caller's: however a run
// is sliced into RunTicks calls, the same epochs checkpoint and a crash
// rolls back to the same tick.
func TestCheckpointCadenceIndependentOfRunTicksSlicing(t *testing.T) {
	const workers, items, epoch, every = 2, 4, 5, 2
	for _, slicing := range []struct{ calls, ticks int }{{1, 20}, {4, 5}} {
		var checkpoints, rollbacks []uint64
		var r *Runtime[rec]
		r = New(ringJob(workers), Config{
			Workers: workers, EpochTicks: epoch, CheckpointEveryEpochs: every,
			Failures: cluster.NewFailurePlan().CrashAt(17, 1),
			// The master snapshot is taken with, and handed back from,
			// every checkpoint: putting the tick in it observes both.
			SnapshotMaster: func() any {
				checkpoints = append(checkpoints, r.Tick())
				return r.Tick()
			},
			RestoreMaster: func(v any) { rollbacks = append(rollbacks, v.(uint64)) },
		})
		loadItems(r, items, workers)
		for i := 0; i < slicing.calls; i++ {
			if err := r.RunTicks(slicing.ticks); err != nil {
				t.Fatal(err)
			}
		}
		// Epochs end at ticks 5, 10, 15, 20 and every second one
		// checkpoints. The crash at tick 17 is detected at tick 20 and
		// rolls back to tick 10; the master's epoch count is not rewound,
		// so of the re-executed boundaries (15, 20) the second checkpoints.
		if want := []uint64{0, 10, 20}; !slices.Equal(checkpoints, want) {
			t.Errorf("%d×%d ticks: checkpoints at %v, want %v", slicing.calls, slicing.ticks, checkpoints, want)
		}
		if want := []uint64{10}; !slices.Equal(rollbacks, want) {
			t.Errorf("%d×%d ticks: rolled back to %v, want %v", slicing.calls, slicing.ticks, rollbacks, want)
		}
		if r.Tick() != 20 {
			t.Errorf("%d×%d ticks: Tick = %d, want 20", slicing.calls, slicing.ticks, r.Tick())
		}
	}
}

func TestMultipleFailures(t *testing.T) {
	const workers, items, ticks = 3, 9, 30
	failures := cluster.NewFailurePlan().CrashAt(4, 0).CrashAt(13, 1).CrashAt(22, 2)
	r := New(ringJob(workers), Config{
		Workers: workers, EpochTicks: 5, CheckpointEveryEpochs: 1, Failures: failures,
	})
	loadItems(r, items, workers)
	if err := r.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}
	if r.Recoveries() != 3 {
		t.Errorf("Recoveries = %d, want 3", r.Recoveries())
	}
	if got := len(sortedItems(r)); got != items {
		t.Errorf("items after recoveries = %d, want %d", got, items)
	}
	if r.Tick() != ticks {
		t.Errorf("Tick = %d, want %d", r.Tick(), ticks)
	}
}

func TestFailureWithoutCloneIsFatal(t *testing.T) {
	job := ringJob(2)
	job.Clone = nil // no checkpointing possible
	r := New(job, Config{
		Workers: 2, EpochTicks: 2,
		Failures: cluster.NewFailurePlan().CrashAt(1, 0),
	})
	loadItems(r, 4, 2)
	if err := r.RunTicks(6); err == nil {
		t.Fatal("expected unrecoverable failure error")
	}
}

func TestEpochHookAndOwnedCounts(t *testing.T) {
	const workers = 3
	var hookTicks []uint64
	var lastCounts []int
	var r *Runtime[rec]
	r = New(ringJob(workers), Config{
		Workers: workers, EpochTicks: 4,
		OnEpoch: func(tick uint64) {
			hookTicks = append(hookTicks, tick)
			lastCounts = r.OwnedCounts()
			if r.Tick() != tick {
				t.Errorf("Tick at the hook = %d, want %d", r.Tick(), tick)
			}
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

func TestMasterSnapshotRestoredOnRecovery(t *testing.T) {
	const workers = 2
	masterState := 0 // e.g. a partitioning version
	r := New(ringJob(workers), Config{
		Workers: workers, EpochTicks: 2, CheckpointEveryEpochs: 1,
		Failures:       cluster.NewFailurePlan().CrashAt(3, 1),
		SnapshotMaster: func() any { return masterState },
		RestoreMaster:  func(v any) { masterState = v.(int) },
		OnEpoch: func(tick uint64) {
			masterState++ // master mutates its state each epoch
		},
	})
	loadItems(r, 4, workers)
	if err := r.RunTicks(8); err != nil {
		t.Fatal(err)
	}
	if r.Recoveries() != 1 {
		t.Fatalf("Recoveries = %d", r.Recoveries())
	}
	// Epochs at ticks 2,4,6,8 → 4 increments in a clean run. The crash at
	// tick 3 rolls back to the tick-2 checkpoint whose master state was
	// snapshotted *before* the tick-2 epoch hook ran... the exact count
	// depends on ordering; what matters is the run completed and state is
	// consistent with re-execution (> 0 and deterministic).
	if masterState <= 0 {
		t.Errorf("masterState = %d", masterState)
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
