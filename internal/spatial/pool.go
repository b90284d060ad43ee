package spatial

import (
	"runtime"
	"sync"
)

// The query-phase worker pool. Index construction and batched probes are
// embarrassingly parallel — every agent's candidate filter touches only
// read-shared build state and its own output buffers — so the package runs
// them across a small pool of persistent goroutines. All parallel paths are
// value-deterministic: chunking changes scheduling, never results, so a
// simulation is bit-identical at any parallelism (including 1).
//
// The pool is one level of parallelism, not two: a caller that is itself
// one of several concurrent goroutines (an engine partition) passes its
// share of the pool as the fan-out of every ParallelFor and index build it
// issues, so the process never has more runnable chunks than the pool has
// workers. Oversubscribing costs real time — eight partitions each fanning
// a list build over a 2-worker pool doubled the build's CPU.
var queryPool = &pool{}

// pool is a lazily started set of persistent workers draining a task queue.
// Tasks never spawn or wait on other pool tasks (ParallelFor runs chunk 0 on
// the submitting goroutine), so a saturated pool cannot deadlock.
type pool struct {
	mu      sync.Mutex
	workers int // goroutines started so far
	max     int // target size; 0 = not yet initialized
	tasks   chan func()
}

// Parallelism returns the worker count ParallelFor fans out to.
func Parallelism() int {
	queryPool.mu.Lock()
	defer queryPool.mu.Unlock()
	if queryPool.max == 0 {
		queryPool.max = runtime.GOMAXPROCS(0)
	}
	return queryPool.max
}

// SetParallelism overrides the pool size (default GOMAXPROCS). n < 1 means
// 1: all spatial work runs on the calling goroutine. Changing the size
// retires the current queue and its workers — in-flight tasks drain, and
// the next submit rebuilds the queue at the new capacity (4×max) with a
// fresh worker set — so a raise after a low-parallelism start actually
// widens the fan-out instead of leaving the old undersized queue degrading
// submissions to inline runs. Intended for tests and embedders that must
// bound BRACE's CPU use; safe to call between ticks.
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	queryPool.mu.Lock()
	if n != queryPool.max {
		queryPool.max = n
		if queryPool.tasks != nil {
			// Workers exit once the closed channel drains; submit re-creates
			// the queue sized to the new max and respawns on demand.
			close(queryPool.tasks)
			queryPool.tasks = nil
			queryPool.workers = 0
		}
	}
	queryPool.mu.Unlock()
}

// submit queues fn on the pool, starting workers up to the target size.
// The enqueue happens under the lock so a concurrent SetParallelism can
// never close the channel between the capacity check and the send.
func (p *pool) submit(fn func()) {
	p.mu.Lock()
	if p.max == 0 {
		p.max = runtime.GOMAXPROCS(0)
	}
	if p.tasks == nil {
		p.tasks = make(chan func(), 4*p.max)
	}
	// Workers beyond chunk 0 of any ParallelFor; one fewer than max because
	// the submitting goroutine always contributes its own chunk.
	for p.workers < p.max-1 {
		p.workers++
		go func(tasks chan func()) {
			for fn := range tasks {
				fn()
			}
		}(p.tasks)
	}
	select {
	case p.tasks <- fn:
		p.mu.Unlock()
	default:
		// Queue full (heavily nested fan-out): run inline rather than block.
		p.mu.Unlock()
		fn()
	}
}

// share clamps a caller's fan-out to the pool: fan < 1 or beyond
// Parallelism() means the whole pool.
func share(fan int) int {
	if p := Parallelism(); fan < 1 || fan > p {
		return p
	}
	return fan
}

// chunkCount is the number of chunks ParallelFor(fan, n, minGrain, …) runs:
// at most share(fan), each of at least minGrain items, never below 1.
func chunkCount(fan, n, minGrain int) int {
	if minGrain < 1 {
		minGrain = 1
	}
	chunks := share(fan)
	if c := n / minGrain; c < chunks {
		chunks = c
	}
	if chunks < 1 {
		chunks = 1
	}
	return chunks
}

// ParallelFor splits [0, n) into chunkCount(fan, n, minGrain) contiguous chunks
// and runs fn(chunk, lo, hi) for each, returning when all chunks are done.
// Chunk 0 runs on the calling goroutine. fn must not call back into
// ParallelFor. With one chunk (small n, fan 1 or parallelism 1) this is a
// plain loop with zero synchronization.
func ParallelFor(fan, n, minGrain int, fn func(chunk, lo, hi int)) {
	if n <= 0 {
		return
	}
	chunks := chunkCount(fan, n, minGrain)
	if chunks == 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(chunks - 1)
	for c := 1; c < chunks; c++ {
		c := c
		lo, hi := c*n/chunks, (c+1)*n/chunks
		queryPool.submit(func() {
			defer wg.Done()
			fn(c, lo, hi)
		})
	}
	fn(0, 0, n/chunks)
	wg.Wait()
}
