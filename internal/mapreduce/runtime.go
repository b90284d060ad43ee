package mapreduce

import (
	"fmt"
	"slices"
	"sync"

	"github.com/bigreddata/brace/internal/cluster"
	"github.com/bigreddata/brace/internal/detutil"
	"github.com/bigreddata/brace/internal/transport"
)

// Runtime executes an iterated Job across simulated worker nodes.
type Runtime[V any] struct {
	job Job[V]
	cfg Config

	tr     transport.Transport
	local  []int // partitions this process computes (all of them by default)
	values [][]V // per-worker owned values (worker main memory)
	tick   uint64
	// failed marks crashed workers. Written only between ticks (crash
	// injection, Reset) and read-only inside phases, so it needs no lock.
	failed []bool
}

// New creates a runtime. It panics on structurally invalid configuration —
// these are programming errors, not runtime conditions.
func New[V any](job Job[V], cfg Config) *Runtime[V] {
	if cfg.Workers < 1 {
		panic("mapreduce: Workers must be ≥ 1")
	}
	if job.Map == nil || job.Reduce1 == nil {
		panic("mapreduce: job needs Map and Reduce1")
	}
	if cfg.EpochTicks <= 0 {
		cfg.EpochTicks = 10
	}
	tr := cfg.Transport
	if tr == nil {
		tr = transport.NewMem(cfg.Workers)
	}
	if tr.N() != cfg.Workers {
		panic(fmt.Sprintf("mapreduce: transport has %d nodes, config wants %d workers", tr.N(), cfg.Workers))
	}
	r := &Runtime[V]{
		job:    job,
		cfg:    cfg,
		tr:     tr,
		values: make([][]V, cfg.Workers),
		failed: make([]bool, cfg.Workers),
	}
	if err := r.Reset(0, cfg.LocalParts, nil); err != nil {
		panic(err)
	}
	return r
}

// Load places initial values at a partition. Call before RunTicks.
func (r *Runtime[V]) Load(part int, vs []V) {
	r.values[part] = append(r.values[part], vs...)
}

// Values returns the values currently owned by a partition. The caller
// must not mutate concurrently with RunTicks.
func (r *Runtime[V]) Values(part int) []V { return r.values[part] }

// AllValues returns every worker's values appended in partition order.
func (r *Runtime[V]) AllValues() []V {
	var out []V
	for _, vs := range r.values {
		out = append(out, vs...)
	}
	return out
}

// Tick returns the number of completed ticks.
func (r *Runtime[V]) Tick() uint64 { return r.tick }

// Local returns the partitions this runtime computes. The slice is
// read-only.
func (r *Runtime[V]) Local() []int { return r.local }

// Transport exposes the message layer (traffic metrics).
func (r *Runtime[V]) Transport() transport.Transport { return r.tr }

// Reset rewinds the runtime to a master's checkpoint — after a
// LostWorkerError, or on a worker the coordinator restores, possibly onto
// other partitions: the tick, the locally computed partitions (nil: all),
// and their values (absent ones are cleared). Every worker is alive again
// afterwards. Reset checks its arguments before it changes anything. Must
// not be called while RunTicks is executing.
func (r *Runtime[V]) Reset(tick uint64, local []int, values map[int][]V) error {
	isLocal := make([]bool, r.cfg.Workers)
	for _, w := range local {
		if w < 0 || w >= r.cfg.Workers {
			return fmt.Errorf("mapreduce %s: local partition %d out of range [0, %d)", r.job.Name, w, r.cfg.Workers)
		}
		if isLocal[w] {
			return fmt.Errorf("mapreduce %s: local partition %d listed twice", r.job.Name, w)
		}
		isLocal[w] = true
	}
	for _, w := range detutil.SortedKeys(values) {
		if w < 0 || w >= r.cfg.Workers || (local != nil && !isLocal[w]) {
			return fmt.Errorf("mapreduce %s: values for partition %d, which this runtime does not compute", r.job.Name, w)
		}
	}
	if local == nil {
		local = make([]int, r.cfg.Workers)
		for i := range local {
			local[i] = i
		}
	}
	r.tick = tick
	r.local = local
	for i := range r.values {
		r.values[i] = values[i]
	}
	clear(r.failed)
	return nil
}

// OwnedCounts returns the number of values held per worker.
func (r *Runtime[V]) OwnedCounts() []int {
	counts := make([]int, len(r.values))
	for i, vs := range r.values {
		counts[i] = len(vs)
	}
	return counts
}

// RunTicks advances the computation n ticks (running any epoch-boundary
// work that falls inside). It returns the first unrecoverable error; a
// negative n is one.
func (r *Runtime[V]) RunTicks(n int) error {
	if n < 0 {
		return fmt.Errorf("mapreduce %s: negative tick count %d", r.job.Name, n)
	}
	target := r.tick + uint64(n)
	for r.tick < target {
		// Inject scheduled crashes at tick start. Inboxes are empty between
		// ticks, so main memory is all a crashed worker has to lose.
		for _, node := range r.cfg.Failures.At(r.tick) {
			r.failed[node] = true
			r.values[node] = nil
		}

		if err := r.runTick(); err != nil {
			return fmt.Errorf("mapreduce %s: tick %d: %w", r.job.Name, r.tick, err)
		}
		r.tick++

		if r.tick%uint64(r.cfg.EpochTicks) == 0 || r.tick == target {
			if err := r.epochBoundary(); err != nil {
				return err
			}
		}
	}
	return nil
}

// LostWorkerError is what RunTicks returns at the first epoch boundary
// after a scheduled crash: that boundary is no epoch, and no hook ran.
// Recovering is the master's decision, carried out through Reset.
type LostWorkerError struct {
	Tick uint64 // the boundary that found the loss
}

func (e *LostWorkerError) Error() string {
	return fmt.Sprintf("mapreduce: a worker was lost before the epoch boundary at tick %d", e.Tick)
}

// epochBoundary is the master/worker synchronization point: failure
// detection, then the external barrier hook, then the application hook.
func (r *Runtime[V]) epochBoundary() error {
	// The master's epoch heartbeat notices dead workers. Their epoch is
	// lost, so the boundary ends here.
	if slices.Contains(r.failed, true) {
		return &LostWorkerError{Tick: r.tick}
	}
	if r.cfg.Barrier != nil {
		if err := r.cfg.Barrier(r.tick); err != nil {
			return err
		}
	}
	if r.cfg.OnEpoch != nil {
		return r.cfg.OnEpoch(r.tick)
	}
	return nil
}

// runTick executes one map → reduce1 (→ reduce2) superstep. Values flow
// through the phases: each one consumes what the previous one delivered,
// and the final phase's output is each worker's values for the next tick
// ("the final reducer ... sends them to the map task on the same node",
// §3.3).
func (r *Runtime[V]) runTick() error {
	mapAll := func(ctx *Ctx, vs []V, emit Emit[V]) {
		for _, v := range vs {
			r.job.Map(ctx, v, emit)
		}
	}
	if err := r.phase(tagMapOut, mapAll, r.job.Reduce1Early); err != nil {
		return err
	}
	if err := r.phase(tagReduce1Out, r.job.Reduce1, nil); err != nil {
		return err
	}
	if r.job.Reduce2 != nil {
		return r.phase(tagReduce2Out, r.job.Reduce2, nil)
	}
	return nil
}

// phase is the one shape every compute phase has: each live worker runs fn
// over its values into an outbox, the batches are sent, the transport's
// phase ends, and every worker collects what was addressed to it — under
// its own barrier: all workers (local goroutines and, over TCP, remote
// processes) must finish sending before any worker collects, otherwise a
// fast worker's next-phase output could land in a slow worker's
// not-yet-drained inbox.
//
// window, when non-nil, runs between the transport's FlushPhase and
// AwaitPhase on just the values each worker sent to itself: those are
// complete the moment the local flush returns, so the early (interior)
// pass computes while peer envelopes are still in flight.
func (r *Runtime[V]) phase(tag int, fn func(*Ctx, []V, Emit[V]), window func(*Ctx, []V)) error {
	r.eachWorker(func(w int) {
		in := r.values[w]
		r.values[w] = nil // ownership moves through the dataflow
		out := newOutbox[V](r.cfg.Workers)
		fn(r.ctx(w), in, out.emit)
		r.flush(w, tag, out)
	})
	if err := r.tr.FlushPhase(); err != nil {
		return err
	}
	if window != nil {
		r.eachWorker(func(w int) { window(r.ctx(w), r.collect(w, tag, r.tr.DrainSelf)) })
	}
	if err := r.tr.AwaitPhase(); err != nil {
		return err
	}
	r.eachWorker(func(w int) { r.values[w] = r.collect(w, tag, r.tr.Drain) })
	if r.cfg.VClock != nil {
		r.cfg.VClock.Barrier()
	}
	return nil
}

func (r *Runtime[V]) ctx(w int) *Ctx { return &Ctx{Tick: r.tick, Worker: w} }

// outbox buffers emissions grouped by destination partition so each
// (sender, receiver, phase) triple costs one message.
type outbox[V any] struct {
	byDest [][]V
}

func newOutbox[V any](n int) *outbox[V] {
	return &outbox[V]{byDest: make([][]V, n)}
}

func (o *outbox[V]) emit(part int, v V) {
	o.byDest[part] = append(o.byDest[part], v)
}

// flush sends the buffered batches and charges the sender's network time.
// A batch addressed to a crashed worker is lost before it is sent — so the
// transport never meters it — but the sender paid for the attempt.
func (r *Runtime[V]) flush(w int, tag int, o *outbox[V]) {
	for dest, batch := range o.byDest {
		if len(batch) == 0 {
			continue
		}
		bytes := 0
		if r.job.SizeOf != nil {
			for _, v := range batch {
				bytes += r.job.SizeOf(v)
			}
		}
		if !r.failed[dest] {
			_ = r.tr.Send(cluster.Message{
				From:    cluster.NodeID(w),
				To:      cluster.NodeID(dest),
				Tag:     tag,
				Payload: batch,
				Bytes:   bytes,
			})
		}
		if r.cfg.VClock != nil && dest != w {
			// Collocated traffic bypasses the network: free.
			r.cfg.VClock.ChargeNetwork(cluster.NodeID(w), 1, int64(bytes))
		}
	}
}

// collect empties worker w's inbox through drain — the transport's Drain,
// or DrainSelf for just w's sends to itself — and concatenates the batches,
// which must all carry the given phase tag.
func (r *Runtime[V]) collect(w int, tag int, drain func(cluster.NodeID) []cluster.Message) []V {
	var out []V
	for _, m := range drain(cluster.NodeID(w)) {
		if m.Tag != tag {
			// A phase mismatch means a routing bug; fail loudly.
			panic(fmt.Sprintf("mapreduce: worker %d got tag %d during phase %d", w, m.Tag, tag))
		}
		out = append(out, m.Payload.([]V)...)
	}
	return out
}

// eachWorker runs fn for every locally computed partition whose worker is
// alive, concurrently. In a single-process runtime that is every partition;
// in a multi-process run each process covers only its LocalParts block and
// the transport's phase protocol keeps the processes in lockstep.
func (r *Runtime[V]) eachWorker(fn func(w int)) {
	var wg sync.WaitGroup
	for _, w := range r.local {
		if r.failed[w] { // a crashed worker runs nothing
			continue
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}
