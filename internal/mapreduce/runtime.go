package mapreduce

import (
	"fmt"
	"slices"
	"sync"

	"github.com/bigreddata/brace/internal/cluster"
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
	// epoch counts the epoch boundaries run so far. It is the master's
	// checkpoint cadence, so like the coordinator's it survives across
	// RunTicks calls and is not rewound by a recovery.
	epoch int
	// failed marks crashed workers. Written only between ticks (crash
	// injection, recover) and read-only inside phases, so it needs no lock.
	failed []bool

	// rollback is whether an injected failure can ever roll the run back —
	// the plan held failures at New and values can be cloned. Only then
	// are in-process checkpoints taken.
	rollback  bool
	ckpt      *checkpoint[V]
	recovered int // number of recoveries performed (observable in tests)
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
	local := cfg.LocalParts
	if local == nil {
		local = make([]int, cfg.Workers)
		for i := range local {
			local[i] = i
		}
	}
	for _, w := range local {
		if w < 0 || w >= cfg.Workers {
			panic(fmt.Sprintf("mapreduce: local partition %d out of range [0, %d)", w, cfg.Workers))
		}
	}
	return &Runtime[V]{
		job:    job,
		cfg:    cfg,
		tr:     tr,
		local:  local,
		values: make([][]V, cfg.Workers),
		failed: make([]bool, cfg.Workers),

		rollback: job.Clone != nil && !cfg.Failures.Empty(),
	}
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

// Workers returns the worker count.
func (r *Runtime[V]) Workers() int { return r.cfg.Workers }

// Transport exposes the message layer (traffic metrics).
func (r *Runtime[V]) Transport() transport.Transport { return r.tr }

// Recoveries returns how many checkpoint rollbacks have occurred.
func (r *Runtime[V]) Recoveries() int { return r.recovered }

// Reset rewinds the runtime to externally supplied state: the tick, the
// set of locally computed partitions, and their values (partitions absent
// from the map are cleared). The distributed worker uses it when the
// coordinator restores a run from its checkpoint — possibly with a
// different partition assignment than this process started with. The
// in-memory rollback point is dropped (a run with a failure plan re-seeds
// it from the restored state at its next RunTicks). Must not be called
// while RunTicks is executing.
func (r *Runtime[V]) Reset(tick uint64, local []int, values map[int][]V) {
	r.tick = tick
	if local == nil {
		local = make([]int, r.cfg.Workers)
		for i := range local {
			local[i] = i
		}
	}
	r.local = local
	for i := range r.values {
		r.values[i] = values[i]
	}
	r.ckpt = nil
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
	// Hold a rollback point from the start, so every crash is recoverable.
	if r.ckpt == nil {
		r.takeCheckpoint()
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

// epochBoundary is the master/worker synchronization point: external
// barrier hook, failure detection + recovery, coordinated checkpoint,
// application hook.
func (r *Runtime[V]) epochBoundary() error {
	r.epoch++
	if r.cfg.Barrier != nil {
		if err := r.cfg.Barrier(r.tick); err != nil {
			return err
		}
	}
	// Failure detection: the master's epoch heartbeat notices dead
	// workers; recovery re-executes from the last coordinated checkpoint.
	// Checkpoint and hooks re-run when the re-executed ticks arrive here
	// again.
	if slices.Contains(r.failed, true) {
		return r.recover()
	}
	if r.cfg.CheckpointEveryEpochs > 0 && r.epoch%r.cfg.CheckpointEveryEpochs == 0 {
		r.takeCheckpoint()
	}
	if r.cfg.OnEpoch != nil {
		r.cfg.OnEpoch(r.tick)
	}
	return nil
}

// takeCheckpoint clones every owned value into the in-process rollback
// point. Only an injected failure ever rolls back to it, so a run without
// a failure plan copies nothing.
func (r *Runtime[V]) takeCheckpoint() {
	if !r.rollback {
		return
	}
	ck := &checkpoint[V]{tick: r.tick, values: make([][]V, len(r.values))}
	for i, vs := range r.values {
		cp := make([]V, len(vs))
		for j, v := range vs {
			cp[j] = r.job.Clone(v)
		}
		ck.values[i] = cp
	}
	if r.cfg.SnapshotMaster != nil {
		ck.master = r.cfg.SnapshotMaster()
	}
	r.ckpt = ck
}

func (r *Runtime[V]) recover() error {
	if r.ckpt == nil {
		return fmt.Errorf("mapreduce %s: worker failed with no checkpoint available", r.job.Name)
	}
	for n := range r.failed {
		r.failed[n] = false
		r.tr.Drain(cluster.NodeID(n)) // discard in-flight messages from the failed epoch
	}
	for i, vs := range r.ckpt.values {
		cp := make([]V, len(vs))
		for j, v := range vs {
			cp[j] = r.job.Clone(v)
		}
		r.values[i] = cp
	}
	if r.cfg.RestoreMaster != nil {
		r.cfg.RestoreMaster(r.ckpt.master)
	}
	r.tick = r.ckpt.tick
	r.recovered++
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

type checkpoint[V any] struct {
	tick   uint64
	values [][]V
	master any
}
