package mapreduce

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// goid returns the calling goroutine's ID, from its stack header
// ("goroutine 18 [running]:").
func goid() string {
	var b [64]byte
	return strings.Fields(string(b[:runtime.Stack(b[:], false)]))[1]
}

// stepLog records which partitions a job's functions ran, per tick and
// phase, and on which goroutine.
type stepLog struct {
	mu    sync.Mutex
	runs  map[[3]uint64]int // (tick, phase, worker) → calls
	order []int             // workers in the order their calls began
	goids map[string]bool
}

func (l *stepLog) wrap(fn func(*Ctx, []rec, Emit[rec])) func(*Ctx, []rec, Emit[rec]) {
	return func(ctx *Ctx, vs []rec, emit Emit[rec]) {
		l.mu.Lock()
		l.runs[[3]uint64{ctx.Tick, uint64(ctx.Phase), uint64(ctx.Worker)}]++
		l.order = append(l.order, ctx.Worker)
		l.goids[goid()] = true
		l.mu.Unlock()
		fn(ctx, vs, emit)
	}
}

func loggedJob(job Job[rec]) (Job[rec], *stepLog) {
	l := &stepLog{runs: map[[3]uint64]int{}, goids: map[string]bool{}}
	job.Map, job.Reduce1 = l.wrap(job.Map), l.wrap(job.Reduce1)
	if job.Reduce2 != nil {
		job.Reduce2 = l.wrap(job.Reduce2)
	}
	return job, l
}

// eachWorker's runner pool runs every partition exactly once per step, at
// any GOMAXPROCS, and a run on fewer cores than partitions ends with the
// serial reference's result. With one core the caller is the pool's only
// runner: every step runs on the calling goroutine.
func TestRunnerPoolRunsEveryPartitionOnce(t *testing.T) {
	const workers, items, ticks = 8, 61, 5
	for _, procs := range []int{1, 2, 4, 16} {
		for _, two := range []bool{false, true} {
			t.Run(fmt.Sprintf("procs=%d/reduce2=%v", procs, two), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				base := ringJob(workers)
				if two {
					base = broadcastJob(workers)
				}
				job, log := loggedJob(base)
				r := New(job, Config{Workers: workers})
				loadItems(r, items, workers)
				if err := r.RunTicks(ticks); err != nil {
					t.Fatal(err)
				}
				phases := 2
				if two {
					phases = 3
				}
				if len(log.runs) != ticks*phases*workers {
					t.Fatalf("%d (tick, phase, partition) steps ran, want %d", len(log.runs), ticks*phases*workers)
				}
				for k, n := range log.runs { //bracevet:allow maporder every entry is checked on its own
					if n != 1 {
						t.Fatalf("tick %d phase %d partition %d ran %d times", k[0], k[1], k[2], n)
					}
				}
				if procs == 1 && (len(log.goids) != 1 || !log.goids[goid()]) {
					t.Errorf("with one core the steps ran on goroutines %v, want only the caller's", log.goids)
				}
				if !two {
					parts := make([][]rec, workers)
					for i := 0; i < items; i++ {
						parts[i%workers] = append(parts[i%workers], rec{ID: i, Owner: i % workers})
					}
					if got, want := sortedItems(r), runSerial(ringJob(workers), workers, parts, ticks); !slices.Equal(got, want) {
						t.Errorf("pooled run ends on %v, the serial reference on %v", got, want)
					}
				}
			})
		}
	}
}

// Runners take the partitions in partition order, whatever their input
// sizes: with one runner that is the order the steps run in.
func TestRunnerPoolTakesPartitionOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	job, log := loggedJob(stayJob())
	r := New(job, Config{Workers: 6})
	for w, n := range []int{2, 5, 0, 5, 7, 2} {
		r.Load(w, make([]rec, n))
	}
	if err := r.RunTicks(1); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5}
	if !slices.Equal(log.order, want) {
		t.Errorf("steps ran in order %v, want %v", log.order, want)
	}
}

// A process may compute no partition (a worker that joined after every
// partition was placed): its steps run nothing, and its ticks still pass.
func TestRunnerPoolWithNoLocalPartition(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	job, log := loggedJob(stayJob())
	r := New(job, Config{Workers: 4, LocalParts: []int{}})
	if err := r.RunTicks(3); err != nil {
		t.Fatal(err)
	}
	if r.Tick() != 3 || len(log.runs) != 0 {
		t.Errorf("after 3 ticks: tick %d, %d steps ran; want 3 and none", r.Tick(), len(log.runs))
	}
}

// stayJob keeps every value where it is and does nothing else.
func stayJob() Job[rec] {
	return Job[rec]{
		Name:    "stay",
		Map:     func(ctx *Ctx, vs []rec, emit Emit[rec]) {},
		Reduce1: func(ctx *Ctx, vs []rec, emit Emit[rec]) {},
	}
}

// Errors come back first in partition order, whichever runner met them
// first.
func TestRunnerPoolReturnsErrorsInPartitionOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const workers = 8
	refuse := map[int]bool{6: true, 2: true, 5: true}
	for i := 0; i < 20; i++ {
		job := ringJob(workers)
		job.Check = func(ctx *Ctx, v rec) error {
			if refuse[ctx.Worker] {
				return fmt.Errorf("worker %d refuses", ctx.Worker)
			}
			return nil
		}
		r := New(job, Config{Workers: workers})
		loadItems(r, 40, workers)
		var me *MessageError
		if err := r.RunTicks(1); !errors.As(err, &me) || me.Worker != 2 {
			t.Fatalf("RunTicks = %v, want partition 2's refusal", err)
		}
	}
}

// A lone partition runs on the calling goroutine: the single-node engine
// starts no goroutine.
func TestLonePartitionRunsOnTheCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, two := range []bool{false, true} {
		base := ringJob(1)
		if two {
			base = broadcastJob(1)
		}
		job, log := loggedJob(base)
		r := New(job, Config{Workers: 1})
		loadItems(r, 5, 1)
		if err := r.RunTicks(3); err != nil {
			t.Fatal(err)
		}
		if len(log.goids) != 1 || !log.goids[goid()] {
			t.Errorf("reduce2=%v: the lone partition ran on goroutines %v, want only the caller's %s", two, log.goids, goid())
		}
	}
}
