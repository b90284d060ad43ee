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

	bufs []workerBufs[V] // per worker, reused by every phase
	errs []error         // per local partition, eachWorker's results
	cur  phaseSpec[V]    // the phase being run, read by each worker's steps
}

// phaseSpec is one phase of a tick: its message tag, the function every
// worker runs over its values, and the optional window (see phase).
type phaseSpec[V any] struct {
	tag    int
	fn     func(*Ctx, []V, Emit[V])
	window func(*Ctx, []V)
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
		bufs:   make([]workerBufs[V], cfg.Workers),
	}
	for w := range r.bufs {
		r.bufs[w] = newWorkerBufs[V](cfg.Workers)
	}
	if err := r.Reset(0, cfg.LocalParts, nil); err != nil {
		panic(err)
	}
	return r
}

// Load places initial values at a partition. Call before RunTicks. The
// runtime reads vs and never writes it; it may keep it as the partition's
// values until the first tick.
func (r *Runtime[V]) Load(part int, vs []V) {
	if r.values[part] == nil {
		r.values[part] = vs
		return
	}
	r.values[part] = append(slices.Clip(r.values[part]), vs...)
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
	r.errs = make([]error, len(local))
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
	if err := r.phase(phaseSpec[V]{tagMapOut, r.job.Map, r.job.Reduce1Early}); err != nil {
		return err
	}
	if err := r.phase(phaseSpec[V]{tagReduce1Out, r.job.Reduce1, nil}); err != nil {
		return err
	}
	if r.job.Reduce2 != nil {
		return r.phase(phaseSpec[V]{tagReduce2Out, r.job.Reduce2, nil})
	}
	return nil
}

// phase is the one shape every compute phase has: each live worker runs fn
// over its values into its outbox and sends the batches, the transport's
// phase ends, and every worker collects what was addressed to it — under
// its own barrier: all workers (local goroutines and, over TCP, remote
// processes) must finish sending before any worker collects, otherwise a
// fast worker's next-phase output could land in a slow worker's
// not-yet-drained inbox.
//
// A worker's batch to itself never enters the transport: collocated
// tasks hand it over in memory (§3.3), and it is metered as local traffic
// all the same. So the window, when set, can run between the transport's
// FlushPhase and AwaitPhase on just those self-sent values: the early
// (interior) pass computes while peer envelopes are still in flight.
//
// A worker's buffers are reused phase after phase (see workerBufs), so a
// steady-state phase allocates nothing. What a phase delivers stays valid
// through the next phase and, between ticks, until the next tick's map
// has run.
func (r *Runtime[V]) phase(ph phaseSpec[V]) error {
	r.cur = ph
	_ = r.eachWorker(stepCompute)
	if err := r.tr.FlushPhase(); err != nil {
		return err
	}
	if ph.window != nil {
		_ = r.eachWorker(stepWindow)
	}
	if err := r.tr.AwaitPhase(); err != nil {
		return err
	}
	if err := r.eachWorker(stepDeliver); err != nil {
		return err
	}
	if r.cfg.VClock != nil {
		r.cfg.VClock.Barrier()
	}
	return nil
}

// step is one of a worker's parts in a phase, run by eachWorker.
type step int

const (
	stepCompute step = iota // compute
	stepWindow              // runWindow
	stepDeliver             // deliver
)

func (r *Runtime[V]) run(s step, w int) error {
	switch s {
	case stepCompute:
		r.compute(w)
	case stepWindow:
		r.runWindow(w)
	default:
		return r.deliver(w)
	}
	return nil
}

// compute runs the phase's function on worker w's values and sends what
// it emitted to other partitions.
func (r *Runtime[V]) compute(w int) {
	b := &r.bufs[w]
	b.ctx = Ctx{Tick: r.tick, Worker: w}
	in := r.values[w]
	r.values[w] = nil // ownership moves through the dataflow
	for d := range b.out {
		b.out[d] = reuse(b.out[d])
	}
	r.cur.fn(&b.ctx, in, b.emit)
	// The input is consumed, so the buffer it came from is free to collect
	// into.
	b.in = reuse(b.in)
	r.flush(w, b.out)
}

// runWindow runs the phase's window on the batch worker w sent itself.
func (r *Runtime[V]) runWindow(w int) {
	b := &r.bufs[w]
	b.in = append(b.in, b.out[w]...)
	r.cur.window(&b.ctx, b.in)
}

// deliver makes worker w's values for the next phase: its batch to itself,
// unless the window took it, then everything peers sent it.
func (r *Runtime[V]) deliver(w int) error {
	b := &r.bufs[w]
	taken := len(b.in)
	if r.cur.window == nil {
		b.in = append(b.in, b.out[w]...)
	}
	var err error
	b.in, err = r.collect(w, b.in)
	r.values[w] = b.in[taken:]
	return err
}

// workerBufs is one worker's phase machinery: its Ctx, its outbox (out[d]
// is the batch for partition d, so each (sender, receiver, phase) triple
// costs one message) with the emit function filling it, and in, the
// buffer its values are collected into. Every phase reuses them.
type workerBufs[V any] struct {
	ctx  Ctx
	out  [][]V
	emit Emit[V]
	in   []V
}

func newWorkerBufs[V any](n int) workerBufs[V] {
	b := workerBufs[V]{out: make([][]V, n)}
	out := b.out
	b.emit = func(part int, v V) { out[part] = append(out[part], v) }
	return b
}

// reuse empties a buffer for refilling. It zeroes what the buffer held, so
// a reused buffer keeps nothing alive that the dataflow has dropped.
func reuse[V any](s []V) []V {
	clear(s)
	return s[:0]
}

// flush sends worker w's batches to other partitions and charges its
// network time; its batch to itself stays in its outbox, metered as local.
// A batch addressed to a crashed worker is lost before it is sent — so the
// transport never meters it — but the sender paid for the attempt. A sent
// batch stays the sender's buffer: receivers copy it out, and the sender
// reuses it next phase.
func (r *Runtime[V]) flush(w int, out [][]V) {
	for dest, batch := range out {
		if len(batch) == 0 {
			continue
		}
		bytes := len(batch) * r.job.ValueBytes
		if dest == w {
			// Collocated traffic bypasses the network: free.
			r.tr.Metrics().RecordSend(cluster.NodeID(w), cluster.NodeID(w), bytes, true)
			continue
		}
		if !r.failed[dest] {
			_ = r.tr.Send(cluster.Message{
				From:    cluster.NodeID(w),
				To:      cluster.NodeID(dest),
				Tag:     r.cur.tag,
				Payload: batch,
				Bytes:   bytes,
			})
		}
		if r.cfg.VClock != nil {
			r.cfg.VClock.ChargeNetwork(cluster.NodeID(w), 1, int64(bytes))
		}
	}
}

// MessageError is a data message a worker cannot accept: it carries
// another phase's tag, or a payload that is not a batch of the job's
// values. Only a broken peer or relay sends one, so it ends the run.
type MessageError struct {
	Job       string
	Worker    int            // the receiving partition
	From      cluster.NodeID // the sender the message names
	Tag, Want int            // the message's phase tag and the running phase's
	Payload   string         // the payload's dynamic type
}

func (e *MessageError) Error() string {
	return fmt.Sprintf("mapreduce %s: worker %d got a message from %d with tag %d and a %s payload during phase %d",
		e.Job, e.Worker, e.From, e.Tag, e.Payload, e.Want)
}

// collect empties worker w's inbox, appending the batches to buf, and
// returns it. Every message must carry the running phase's tag and a batch
// of values; the first that does not is a *MessageError.
func (r *Runtime[V]) collect(w int, buf []V) ([]V, error) {
	for _, m := range r.tr.Drain(cluster.NodeID(w)) {
		batch, ok := m.Payload.([]V)
		if m.Tag != r.cur.tag || !ok {
			return buf, &MessageError{Job: r.job.Name, Worker: w, From: m.From, Tag: m.Tag, Want: r.cur.tag, Payload: fmt.Sprintf("%T", m.Payload)}
		}
		buf = append(buf, batch...)
	}
	return buf, nil
}

// eachWorker runs step s for every locally computed partition whose worker
// is alive, concurrently, and returns the first error in partition order.
// In a single-process runtime that is every partition; in a multi-process
// run each process covers only its LocalParts block and the transport's
// phase protocol keeps the processes in lockstep. A lone partition runs on
// the calling goroutine.
func (r *Runtime[V]) eachWorker(s step) error {
	if len(r.local) == 1 {
		if w := r.local[0]; !r.failed[w] {
			return r.run(s, w)
		}
		return nil
	}
	var wg sync.WaitGroup
	for i, w := range r.local {
		r.errs[i] = nil
		if r.failed[w] { // a crashed worker runs nothing
			continue
		}
		wg.Add(1)
		go func(i, w int) {
			defer wg.Done()
			r.errs[i] = r.run(s, w)
		}(i, w)
	}
	wg.Wait()
	for _, err := range r.errs {
		if err != nil {
			return err
		}
	}
	return nil
}
