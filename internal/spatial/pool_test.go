package spatial

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// A raise after a low-parallelism start must actually widen the pool: the
// resize retires the old queue and workers and rebuilds at the new size
// (queue capacity 4×max) instead of leaving the first-submit capacity in
// place forever.
func TestSetParallelismResizesPool(t *testing.T) {
	defer SetParallelism(runtime.GOMAXPROCS(0))

	SetParallelism(2)
	ParallelFor(0, 64, 1, func(chunk, lo, hi int) {})
	queryPool.mu.Lock()
	if c := cap(queryPool.tasks); c != 8 {
		t.Errorf("queue capacity at parallelism 2 = %d, want 8", c)
	}
	if queryPool.workers != 1 {
		t.Errorf("workers at parallelism 2 = %d, want 1", queryPool.workers)
	}
	queryPool.mu.Unlock()

	// The raise must retire the 8-slot queue and its lone worker.
	SetParallelism(8)
	queryPool.mu.Lock()
	if queryPool.tasks != nil || queryPool.workers != 0 {
		t.Errorf("resize kept old queue/workers: queued=%v workers=%d",
			queryPool.tasks != nil, queryPool.workers)
	}
	queryPool.mu.Unlock()

	ParallelFor(0, 64, 1, func(chunk, lo, hi int) {})
	queryPool.mu.Lock()
	if c := cap(queryPool.tasks); c != 32 {
		t.Errorf("queue capacity after raise to 8 = %d, want 32", c)
	}
	if queryPool.workers != 7 {
		t.Errorf("workers after raise to 8 = %d, want 7", queryPool.workers)
	}
	queryPool.mu.Unlock()

	// Setting the same size again is a no-op: the live queue survives.
	SetParallelism(8)
	queryPool.mu.Lock()
	if queryPool.tasks == nil || queryPool.workers != 7 {
		t.Errorf("no-op resize retired the pool: queued=%v workers=%d",
			queryPool.tasks != nil, queryPool.workers)
	}
	queryPool.mu.Unlock()
}

// After a raise, every chunk of a ParallelFor can run simultaneously: the
// chunks rendezvous at a barrier that only clears once all of them have
// started, which is impossible if the effective fan-out stayed at the old
// setting.
func TestRaisedParallelismFanOut(t *testing.T) {
	defer SetParallelism(runtime.GOMAXPROCS(0))

	SetParallelism(2)
	ParallelFor(0, 64, 1, func(chunk, lo, hi int) {}) // prime the undersized pool
	SetParallelism(8)

	const chunks = 8
	var arrived atomic.Int32
	var late atomic.Bool
	deadline := time.Now().Add(10 * time.Second)
	ParallelFor(0, chunks, 1, func(chunk, lo, hi int) {
		arrived.Add(1)
		for arrived.Load() < chunks {
			if time.Now().After(deadline) {
				late.Store(true)
				return
			}
			runtime.Gosched()
		}
	})
	if late.Load() {
		t.Fatalf("fan-out after raise: only %d of %d chunks ran concurrently",
			arrived.Load(), chunks)
	}
}

// ParallelFor never runs more chunks than the caller's share of the pool:
// a fan-out of 1 is a plain loop on the calling goroutine, and a share
// outside [1, Parallelism()] means the whole pool.
func TestParallelForHonoursFanOut(t *testing.T) {
	defer SetParallelism(runtime.GOMAXPROCS(0))
	SetParallelism(8)
	for _, tc := range []struct{ fan, n, grain, want int }{
		{1, 64, 1, 1},
		{2, 64, 1, 2},
		{3, 64, 1, 3},
		{8, 64, 1, 8},
		{0, 64, 1, 8},
		{99, 64, 1, 8},
		{4, 64, 32, 2}, // the grain still caps it
		{4, 10, 32, 1},
	} {
		var ran atomic.Int32
		var covered atomic.Int64
		ParallelFor(tc.fan, tc.n, tc.grain, func(chunk, lo, hi int) {
			ran.Add(1)
			covered.Add(int64(hi - lo))
			if chunk >= tc.want {
				t.Errorf("fan %d: chunk index %d, want < %d", tc.fan, chunk, tc.want)
			}
		})
		if int(ran.Load()) != tc.want || int(covered.Load()) != tc.n {
			t.Errorf("ParallelFor(fan %d, n %d, grain %d): %d chunks over %d items, want %d over %d",
				tc.fan, tc.n, tc.grain, ran.Load(), covered.Load(), tc.want, tc.n)
		}
	}
}
