package mapreduce

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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

	bufs []workerBufs[V] // per worker, reused by every phase
	errs []error         // per local partition, eachWorker's results
	pool *runnerPool     // eachWorker's, made at its first step over several partitions
	cur  phaseSpec[V]    // the phase being run, read by each worker's steps
}

// runnerPool is eachWorker's shared state: the step its runners run, the
// counter they take local indexes by, the runners to wait for, and spawn,
// one runner's life, built once so that starting a runner allocates no
// closure.
type runnerPool struct {
	step  step
	next  atomic.Int64
	wg    sync.WaitGroup
	spawn func()
}

// phaseSpec is one phase of a tick: which one it is and the function
// every worker runs over its values.
type phaseSpec[V any] struct {
	phase Phase
	fn    func(*Ctx, []V, Emit[V])
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

// Reset rewinds the runtime to a master's checkpoint after the transport
// lost a phase (transport.ErrRestore), possibly onto other partitions: the
// tick, the locally computed partitions (nil: all), and their values
// (absent ones are cleared). Reset checks its arguments before it changes
// anything. Must not be called while RunTicks is executing.
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
// work that falls inside). It returns the first error, a negative n
// included; a lost phase is the transport's transport.ErrRestore, wrapped,
// and leaves the tick it interrupted to be rolled back through Reset.
func (r *Runtime[V]) RunTicks(n int) error {
	if n < 0 {
		return fmt.Errorf("mapreduce %s: negative tick count %d", r.job.Name, n)
	}
	target := r.tick + uint64(n)
	for r.tick < target {
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

// epochBoundary is the master/worker synchronization point: the external
// barrier hook, then the application hook.
func (r *Runtime[V]) epochBoundary() error {
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
	if err := r.phase(phaseSpec[V]{PhaseMap, r.job.Map}); err != nil {
		return err
	}
	if err := r.phase(phaseSpec[V]{PhaseReduce1, r.job.Reduce1}); err != nil {
		return err
	}
	if r.job.Reduce2 != nil {
		return r.phase(phaseSpec[V]{PhaseReduce2, r.job.Reduce2})
	}
	return nil
}

// phase is the one shape every compute phase has: each worker runs fn
// over its values into its outbox and sends the batches, the transport's
// phase ends, and every worker collects what was addressed to it — under
// its own barrier: all workers (this process's partitions, which
// eachWorker's runner pool steps, and, over TCP, remote processes) must
// finish sending before any worker collects, otherwise a fast worker's
// next-phase output could land in a slow worker's not-yet-drained inbox.
//
// A worker's batch to itself never enters the transport: collocated
// tasks hand it over in memory (§3.3), and it is metered as local traffic
// all the same.
//
// A worker's buffers are reused phase after phase (see workerBufs), so a
// steady-state phase allocates nothing. What a phase delivers stays valid
// through the next phase and, between ticks, until the next tick's map
// has run.
//
// A phase the transport loses still ends its virtual-clock superstep: its
// work was paid for, and the re-execution pays again.
func (r *Runtime[V]) phase(ph phaseSpec[V]) error {
	r.cur = ph
	_ = r.eachWorker(stepCompute)
	err := r.tr.FlushPhase()
	if err == nil {
		err = r.tr.AwaitPhase()
	}
	if err == nil {
		err = r.eachWorker(stepDeliver)
	}
	if r.cfg.VClock != nil {
		r.cfg.VClock.Barrier()
	}
	return err
}

// step is one of a worker's parts in a phase, run by eachWorker.
type step int

const (
	stepCompute step = iota // compute
	stepDeliver             // deliver
)

func (r *Runtime[V]) run(s step, w int) error {
	if s == stepCompute {
		r.compute(w)
		return nil
	}
	return r.deliver(w)
}

// compute runs the phase's function on worker w's values and sends what
// it emitted to other partitions.
func (r *Runtime[V]) compute(w int) {
	b := &r.bufs[w]
	b.ctx = Ctx{Tick: r.tick, Worker: w, Phase: r.cur.phase}
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

// deliver makes worker w's values for the next phase: its batch to
// itself, then everything peers sent it.
func (r *Runtime[V]) deliver(w int) error {
	b := &r.bufs[w]
	var err error
	b.in, err = r.collect(w, append(b.in, b.out[w]...))
	r.values[w] = b.in
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
// A sent batch stays the sender's buffer and travels as a pointer to its
// outbox slot, which boxes into the payload without allocating: receivers
// copy it out, and the sender reuses it next phase.
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
		_ = r.tr.Send(cluster.Message{
			From:    cluster.NodeID(w),
			To:      cluster.NodeID(dest),
			Tag:     int(r.cur.phase),
			Payload: &out[dest],
			Bytes:   bytes,
		})
		if r.cfg.VClock != nil {
			r.cfg.VClock.ChargeNetwork(cluster.NodeID(w), 1, int64(bytes))
		}
	}
}

// MessageError is a data message a worker cannot accept: it carries
// another phase's tag, a payload that is not a pointer to a batch of the
// job's values (*[]V, the shape flush sends), or a value Job.Check
// refuses. Only a broken peer or relay sends one, so it ends the run. Over
// TCP every payload decodes as a *[]*transport.Envelope, so a payload of
// another type can only come from an in-memory sender.
type MessageError struct {
	Job       string
	Worker    int            // the receiving partition
	From      cluster.NodeID // the sender the message names
	Tag, Want int            // the message's phase tag and the running phase's
	Payload   string         // the payload's dynamic type
	Reason    string         // why Job.Check refused a value; empty when the message itself was wrong
}

func (e *MessageError) Error() string {
	if e.Reason != "" {
		return fmt.Sprintf("mapreduce %s: worker %d refused a value from %d during phase %d: %s",
			e.Job, e.Worker, e.From, e.Want, e.Reason)
	}
	return fmt.Sprintf("mapreduce %s: worker %d got a message from %d with tag %d and a %s payload during phase %d",
		e.Job, e.Worker, e.From, e.Tag, e.Payload, e.Want)
}

// collect empties worker w's inbox, appending the batches to buf, and
// returns it. Every message must carry the running phase's tag and a
// pointer to a batch of values that Job.Check accepts; the first that does
// not is a *MessageError.
func (r *Runtime[V]) collect(w int, buf []V) ([]V, error) {
	for _, m := range r.tr.Drain(cluster.NodeID(w)) {
		p, ok := m.Payload.(*[]V)
		if m.Tag != int(r.cur.phase) || !ok || p == nil {
			return buf, r.messageError(w, m, "")
		}
		batch := *p
		if check := r.job.Check; check != nil {
			for _, v := range batch {
				if err := check(&r.bufs[w].ctx, v); err != nil {
					return buf, r.messageError(w, m, err.Error())
				}
			}
		}
		buf = append(buf, batch...)
	}
	return buf, nil
}

func (r *Runtime[V]) messageError(w int, m cluster.Message, reason string) *MessageError {
	return &MessageError{Job: r.job.Name, Worker: w, From: m.From, Tag: m.Tag, Want: int(r.cur.phase), Payload: fmt.Sprintf("%T", m.Payload), Reason: reason}
}

// eachWorker runs step s for every locally computed partition and returns
// the first error in partition order. In a single-process runtime that is
// every partition; in a multi-process run each process covers only its
// LocalParts block, which may be empty, and the transport's phase
// protocol keeps the processes in lockstep.
//
// A pool of min(GOMAXPROCS, len(local)) runners, the calling goroutine
// one of them, takes the partitions in order from a shared counter: on
// fewer cores than partitions a runner that finishes early takes the next
// partition instead of waiting for a goroutine the scheduler has not run
// yet. A lone partition runs on the calling goroutine.
func (r *Runtime[V]) eachWorker(s step) error {
	switch len(r.local) {
	case 0:
		return nil
	case 1:
		return r.run(s, r.local[0])
	}
	p := r.pool
	if p == nil {
		p = new(runnerPool)
		p.spawn = func() {
			defer p.wg.Done()
			r.runner(p.step)
		}
		r.pool = p
	}
	clear(r.errs)
	p.step = s
	p.next.Store(0)
	runners := min(runtime.GOMAXPROCS(0), len(r.local))
	p.wg.Add(runners - 1)
	for k := 1; k < runners; k++ {
		go p.spawn()
	}
	r.runner(s)
	p.wg.Wait()
	for _, err := range r.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runner is one runner of eachWorker's pool: it runs step s for the
// next local partition until none is left.
func (r *Runtime[V]) runner(s step) {
	for {
		i := int(r.pool.next.Add(1)) - 1
		if i >= len(r.local) {
			return
		}
		r.errs[i] = r.run(s, r.local[i])
	}
}
