package distrib

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net"
	"time"

	"github.com/bigreddata/brace/internal/detutil"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/transport"
)

// Run executes a distributed simulation from the coordinator: dial every
// worker daemon, handshake, then run the control loop — own the control
// plane (placement, load balancing, checkpoints, failure recovery) through
// a transport.Hub, which also relays the data plane of any peer link that
// is down — until every live worker reports its final state. The
// coordinator does no simulation compute: it is the master of §3.3,
// interacting with workers only at epoch boundaries.
func Run(o Options) (*Result, error) {
	if o.Registry != nil && len(o.Addrs) == 0 {
		for _, w := range o.Registry.Workers() {
			o.Addrs = append(o.Addrs, w.Addr)
		}
	}
	o.Agents = max(o.Agents, 0) // ≤ 0 asks for the scenario's default; validation and the wire spell it 0
	if err := o.validate(); err != nil {
		return nil, err
	}
	if o.RunID == "" {
		// Peer links address sessions by (run, process) on the target
		// daemon, so a run must have a distinguishable identity even when
		// the caller did not name one.
		o.RunID = randomRunID()
	}
	if o.DialTimeout == 0 {
		// One budget for startup and rejoin dials: a daemon worth waiting
		// 10s for at startup is worth the same wait after a restart.
		o.DialTimeout = DefaultDialTimeout
	}
	switch {
	case o.Heartbeat == 0:
		o.Heartbeat = DefaultHeartbeat
	case o.Heartbeat < 0:
		o.Heartbeat = 0 // disabled
	}
	adaptive := false
	switch {
	case o.EpochTimeout == 0:
		// No explicit deadline: auto-tune from the observed barrier
		// cadence, with the old fixed default as the floor.
		o.EpochTimeout = DefaultEpochTimeout
		adaptive = true
	case o.EpochTimeout < 0:
		o.EpochTimeout = 0 // disabled
	}

	// The tick-0 checkpoint: recovery can always rewind to the start.
	initial, err := initialState(o)
	if err != nil {
		return nil, err
	}
	now := time.Now()
	c := &coordinator{
		o:      o,
		m:      engine.NewMaster(initial, o.CheckpointEveryEpochs, o.LoadBalance, o.Balancer),
		place:  NewPlacement(o.Partitions, len(o.Addrs)),
		live:   make([]bool, len(o.Addrs)),
		seqs:   make([]int, len(o.Addrs)),
		gen:    1,
		stats:  make(map[int]*transport.EpochStats),
		finals: make(map[int]*transport.FinalReport),
		lv:     newLiveness(len(o.Addrs), o.Heartbeat*MissedHeartbeats, o.EpochTimeout, adaptive, now),
	}
	c.hub = transport.NewHub(o.Partitions, len(o.Addrs), c.place.Assign())
	defer c.hub.Close()

	// Dial and handshake every worker before attaching any to the hub,
	// and attach them all at once: a worker whose handshake completes
	// early starts ticking and sending immediately, and those frames must
	// wait in its socket until every relay destination exists.
	conns := make([]*transport.Conn, len(o.Addrs))
	for i, addr := range o.Addrs {
		conn, err := dialWorker(addr, o.hello(i, c.gen, c.place.Assign()), o.DialTimeout)
		if err != nil {
			for _, open := range conns[:i] {
				open.Close()
			}
			return nil, fmt.Errorf("distrib: worker %d (%s): %w", i, addr, err)
		}
		conn.SetWriteTimeout(c.writeTimeout())
		conns[i] = conn
	}
	now = time.Now()
	c.seqs = c.hub.AttachAll(conns)
	for i := range conns {
		c.live[i] = true
		c.lv.admit(i, now)
	}
	// The tick-0 checkpoint is the first observable state of the run.
	if o.OnCheckpoint != nil {
		o.OnCheckpoint(0, livePopulation(initial.Parts))
	}
	return c.run()
}

// writeTimeout bounds coordinator → worker sends. A stalled worker stops
// draining its socket; once the kernel buffers fill, an unbounded write
// would freeze the control loop — the very hang this machinery exists to
// break. The bound is generous: the full liveness window, floored so
// large restore frames always have time to flush.
func (c *coordinator) writeTimeout() time.Duration {
	wt := c.o.Heartbeat * MissedHeartbeats
	if c.o.EpochTimeout > wt {
		wt = c.o.EpochTimeout
	}
	if wt <= 0 {
		return 0
	}
	if floor := 5 * time.Second; wt < floor {
		wt = floor
	}
	return wt
}

// ckptRound is a checkpoint round in flight: its tick, the processes that
// reported, and the checkpoint the master holds once complete.
type ckptRound struct {
	tick uint64
	have map[int]bool
	done *engine.Checkpoint
}

// coordinator wraps the master (engine.Master: epoch decisions, checkpoint
// store, rollback) with what needs a network: the hub, liveness, placement,
// generations and which processes have reported. It runs single-threaded
// over the hub's event stream: the hub's relay goroutines move whatever
// data-plane traffic falls back to them without ever entering this loop.
type coordinator struct {
	o     Options
	m     *engine.Master
	hub   *transport.Hub
	place *Placement
	live  []bool
	seqs  []int // attach sequence per proc; fences stale disconnect events
	gen   int

	ckpt *ckptRound // checkpoint round in flight (nil: none)
	// lost holds the workers lost after they reported to ckpt, with the
	// cause; they recover once it completes (see lose).
	lost   map[int]error
	stats  map[int]*transport.EpochStats
	finals map[int]*transport.FinalReport

	// Liveness: the detector itself plus the start times of the rounds
	// currently in flight (zero = round inactive).
	lv          *liveness
	statsSince  time.Time
	ckptSince   time.Time
	finalsSince time.Time

	recoveries, rejoins, stallDrops, joins int

	ckptBytes     int64
	ckptFullParts int
}

func (c *coordinator) liveCount() int {
	n := 0
	for _, l := range c.live {
		if l {
			n++
		}
	}
	return n
}

// run consumes hub events until every live worker has reported its final
// state (success) or the run is unrecoverable, waking on the liveness
// interval to ping workers and enforce the stall deadlines.
func (c *coordinator) run() (*Result, error) {
	var timer <-chan time.Time
	if every := c.checkEvery(); every > 0 {
		t := time.NewTicker(every)
		defer t.Stop()
		timer = t.C
	}
	var joins <-chan RegisteredWorker
	if c.o.Registry != nil {
		joins = c.o.Registry.Events() // nil channel otherwise: the case never fires
	}
	for {
		select {
		case w := <-joins:
			if err := c.admit(w); err != nil {
				return nil, err
			}
		case <-c.o.Cancel:
			// Deliberate abort: drop every worker connection (the deferred
			// hub close does it) and report the cancellation. Workers
			// unwind through conn errors or their coordinator watchdogs.
			return nil, ErrCanceled
		case ev, ok := <-c.hub.Events():
			if !ok {
				return nil, fmt.Errorf("distrib: hub closed unexpectedly")
			}
			res, err := c.onEvent(ev)
			if res != nil || err != nil {
				return res, err
			}
		case now := <-timer:
			if err := c.onTimer(now); err != nil {
				return nil, err
			}
		}
	}
}

// checkEvery is the liveness wake-up period: the heartbeat interval when
// pinging, otherwise often enough to enforce the epoch deadline.
func (c *coordinator) checkEvery() time.Duration {
	if c.o.Heartbeat > 0 {
		return c.o.Heartbeat
	}
	if c.o.EpochTimeout > 0 {
		return c.o.EpochTimeout / 4
	}
	return 0
}

// onEvent handles one hub event. A non-nil Result ends the run.
func (c *coordinator) onEvent(ev transport.HubEvent) (*Result, error) {
	if ev.Frame == nil {
		if ev.Seq != 0 && ev.Seq < c.seqs[ev.Src] {
			return nil, nil // a connection we already replaced; the rejoined worker is fine
		}
		return nil, c.lose(ev.Src, ev.Err)
	}
	f := ev.Frame
	if f.Kind == transport.FrameError {
		// An application failure (bad handshake state, engine error) is
		// deterministic: recovery would just replay it. Abort.
		c.hub.Broadcast(&transport.Frame{Kind: transport.FrameError, Gen: c.gen, Err: f.Err})
		return nil, fmt.Errorf("distrib: worker %d failed: %s", ev.Src, f.Err)
	}
	if f.Kind == transport.FramePong {
		// Liveness evidence regardless of generation: a worker applying a
		// restore pongs from the old one, and it is no less alive for it.
		c.lv.pong(ev.Src, time.Now())
		return nil, nil
	}
	if f.Gen != c.gen || !c.live[ev.Src] {
		return nil, nil // stale generation or a zombie; fenced off
	}
	var err error
	switch f.Kind {
	case transport.FrameStats:
		err = c.onStats(ev.Src, f.Stats)
	case transport.FrameCheckpoint:
		err = c.onCheckpoint(ev.Src, f.Ckpt, ev.Bytes)
	case transport.FrameFinal:
		if f.Final == nil || f.Final.Proc != ev.Src {
			err = fmt.Errorf("distrib: worker %d sent a malformed final report", ev.Src)
			break
		}
		if len(c.finals) == 0 {
			c.finalsSince = time.Now()
		}
		c.finals[ev.Src] = f.Final
		if len(c.finals) == c.liveCount() {
			return c.finish()
		}
	default:
		err = &transport.ProtocolError{Kind: f.Kind, Where: fmt.Sprintf("coordinator control loop (worker %d)", ev.Src)}
	}
	return nil, err
}

// onTimer is the liveness beat: ping every live worker, then force-drop
// whoever the detector has declared stalled — missed heartbeat window,
// an overdue control-plane round, or a between-barriers laggard — into
// the ordinary recovery path. To the rest of the run a stall-drop is
// indistinguishable from a crash.
func (c *coordinator) onTimer(now time.Time) error {
	var dead []int
	if c.o.Heartbeat > 0 {
		ping := &transport.Frame{Kind: transport.FramePing, Gen: c.gen}
		for p := range c.live {
			if c.live[p] && c.hub.Send(p, ping) != nil {
				dead = append(dead, p)
			}
		}
	}
	stalled := map[int]string{}
	for _, p := range c.lv.silent(c.live, now) {
		stalled[p] = "missed heartbeat window"
	}
	if c.lv.overdue(c.statsSince, now) {
		for p := range c.live {
			if c.live[p] && c.stats[p] == nil {
				stalled[p] = "stats round overdue"
			}
		}
	}
	if c.ckpt != nil && c.lv.overdue(c.ckptSince, now) {
		for p := range c.live {
			if c.live[p] && !c.ckpt.have[p] {
				stalled[p] = "checkpoint round overdue"
			}
		}
	}
	if c.lv.overdue(c.finalsSince, now) {
		for p := range c.live {
			if c.live[p] && c.finals[p] == nil {
				stalled[p] = "final report overdue"
			}
		}
	}
	for _, p := range c.lv.laggards(c.live, c.hub.Progress(), now) {
		if _, dup := stalled[p]; !dup && c.live[p] {
			stalled[p] = "phase barrier overdue"
		}
	}
	// Sorted: with several simultaneous stalls the recovery order decides
	// survivor-absorb placement, which must not depend on map iteration.
	for _, p := range detutil.SortedKeys(stalled) {
		why := stalled[p]
		if _, waits := c.lost[p]; !c.live[p] || waits {
			continue // a recovery below may have rejoined or absorbed it, or it waits for the round
		}
		c.stallDrops++
		if err := c.recoverFrom(p, fmt.Errorf("distrib: worker %d stalled: %s", p, why)); err != nil {
			return err
		}
	}
	for _, p := range dead {
		if !c.live[p] {
			continue
		}
		if err := c.lose(p, fmt.Errorf("distrib: worker %d unreachable at heartbeat", p)); err != nil {
			return err
		}
	}
	return nil
}

func (c *coordinator) finish() (*Result, error) {
	res, err := assemble(c.finals)
	if err != nil {
		return nil, err
	}
	res.Recoveries = c.recoveries
	res.Rejoins = c.rejoins
	for _, d := range c.m.Log() {
		if d.Rebalanced {
			res.Rebalances++
		}
	}
	res.StallDrops = c.stallDrops
	res.Joins = c.joins
	traffic := c.hub.Traffic()
	res.RelayedDataFrames = traffic.DataFrames
	res.RelayedDataBytes = traffic.DataBytes
	res.CheckpointBytes = c.ckptBytes
	res.CheckpointFullParts = c.ckptFullParts
	res.Epochs = c.m.Log()
	return res, nil
}

// onStats records one worker's barrier statistics; when the round is
// complete the master makes its decisions — rebalance? checkpoint? — and
// every live worker gets the directive.
func (c *coordinator) onStats(src int, s *transport.EpochStats) error {
	if s == nil {
		return fmt.Errorf("distrib: worker %d sent empty stats", src)
	}
	for _, p := range detutil.SortedKeys(c.stats) {
		if prev := c.stats[p]; prev.Tick != s.Tick {
			return fmt.Errorf("distrib: lockstep violation: worker %d at tick %d, worker %d at %d",
				src, s.Tick, prev.Proc, prev.Tick)
		}
	}
	if len(c.stats) == 0 {
		c.statsSince = time.Now() // the round's deadline starts at its first frame
	}
	c.stats[src] = s
	if len(c.stats) < c.liveCount() {
		return nil
	}
	c.statsSince = time.Time{}
	c.lv.roundReset(time.Now())

	var parts []transport.PartStats
	for _, p := range detutil.SortedKeys(c.stats) {
		parts = append(parts, c.stats[p].Parts...)
	}
	c.stats = make(map[int]*transport.EpochStats)
	d, err := c.m.Barrier(s.Tick, parts)
	if err != nil {
		return fmt.Errorf("distrib: %w", err)
	}
	if d.Checkpoint {
		c.ckpt = &ckptRound{tick: d.Tick, have: make(map[int]bool)}
		c.ckptSince = time.Now()
	}
	if c.o.OnEpoch != nil {
		log := c.m.Log()
		c.o.OnEpoch(log[len(log)-1])
	}

	frame := &transport.Frame{Kind: transport.FrameDirective, Gen: c.gen, Dir: &d}
	var dead []int
	for p := range c.live {
		if !c.live[p] {
			continue
		}
		if err := c.hub.Send(p, frame); err != nil {
			dead = append(dead, p)
		}
	}
	for _, p := range dead {
		if err := c.recoverFrom(p, fmt.Errorf("distrib: worker %d unreachable at barrier", p)); err != nil {
			return err
		}
	}
	return nil
}

// onCheckpoint files one worker's checkpoint pieces with the master —
// which holds the decoded full pieces as they are — and, once every live
// worker has reported, closes the round: the master now holds the
// assembled state as its rollback point.
func (c *coordinator) onCheckpoint(src int, ck *transport.CheckpointMsg, bytes int) error {
	r := c.ckpt
	if ck == nil || r == nil || ck.Tick != r.tick {
		return nil // stale piece from an interrupted checkpoint round
	}
	c.ckptBytes += int64(bytes)
	done, err := c.m.File(ck.Parts...)
	if err != nil {
		return fmt.Errorf("distrib: worker %d: %w", src, err)
	}
	if done != nil {
		r.done = done
	}
	c.ckptFullParts += len(ck.Parts)
	r.have[src] = true
	if len(r.have) < c.liveCount() {
		return nil
	}
	if r.done == nil {
		return fmt.Errorf("distrib: checkpoint at tick %d is missing partitions after every worker reported", r.tick)
	}
	c.ckpt = nil
	c.ckptSince = time.Time{}
	c.lv.roundReset(time.Now())
	if c.o.OnCheckpoint != nil {
		c.o.OnCheckpoint(r.done.Tick, livePopulation(r.done.Parts))
	}
	if len(c.lost) > 0 {
		p := detutil.SortedKeys(c.lost)[0]
		return c.recoverFrom(p, c.lost[p])
	}
	return nil
}

// lose answers a worker's lost connection. A worker lost after it
// reported its pieces of the checkpoint round in flight is recovered once
// that round completes: every other worker ships its pieces whatever
// became of this one, and an in-process master, whose crash never
// interrupts a round already filed, rolls back to that checkpoint too.
// Any other loss recovers at once.
func (c *coordinator) lose(p int, cause error) error {
	if c.ckpt != nil && c.ckpt.have[p] {
		if c.lost == nil {
			c.lost = make(map[int]error)
		}
		c.lost[p] = cause
		return nil
	}
	return c.recoverFrom(p, cause)
}

// recoverFrom handles a worker connection death: re-admit the worker if
// its daemon still answers (its partitions stay put), otherwise re-place
// its partitions on the survivors; then bump the generation and restore
// every live worker from the last complete checkpoint. A failure while
// broadcasting restores feeds back into another round. The workers that
// waited for a checkpoint round (see lose) recover with it.
func (c *coordinator) recoverFrom(src int, cause error) error {
	dead := []int{src}
	for _, p := range detutil.SortedKeys(c.lost) {
		if p != src {
			dead = append(dead, p)
		}
	}
	c.lost = nil
	for len(dead) > 0 {
		next := dead[:0:0]
		changed := false
		for _, p := range dead {
			if !c.live[p] {
				continue // already handled (e.g. hub event raced a send error)
			}
			if c.recoveries >= maxRecoveries {
				return fmt.Errorf("distrib: giving up after %d recoveries (worker %d: %v)", c.recoveries, p, cause)
			}
			c.live[p] = false
			changed = true
			// Close the old connection before re-dialing. For a
			// socket-error death it is already gone; for a stall-drop it
			// is still open, and closing it both silences the zombie and
			// unwinds the stalled session so the daemon can accept the
			// rejoin dial.
			c.hub.Kill(p)
			newGen := c.gen + 1
			if conn, err := dialWorker(c.o.Addrs[p], c.o.hello(p, newGen, c.place.Assign()), c.o.DialTimeout); err == nil {
				conn.SetWriteTimeout(c.writeTimeout())
				c.live[p] = true
				c.seqs[p] = c.hub.Attach(p, conn)
				c.lv.admit(p, time.Now())
				c.rejoins++
			} else {
				c.place.Reassign(p, c.live)
				if c.o.OnWorkerDown != nil {
					c.o.OnWorkerDown(p, c.o.Addrs[p], cause)
				}
			}
		}
		if !changed {
			return nil
		}
		if c.liveCount() == 0 {
			return fmt.Errorf("distrib: all workers lost (last: %v)", cause)
		}

		// New generation: fence off every in-flight frame of the old one,
		// discard half-assembled barrier state, rewind to the checkpoint.
		c.gen++
		c.recoveries++
		dead = append(next, c.rewind()...)
		cause = fmt.Errorf("distrib: worker lost while broadcasting restore")
	}
	// The rejoin dial above can block this single-threaded loop for the
	// full DialTimeout with pongs queued but unprocessed; survivors
	// must not be judged by their pre-recovery timestamps when the timer
	// fires next.
	c.lv.graceAll(c.live, time.Now())
	return nil
}

// rewind restores the fleet onto the current placement from the master's
// last complete checkpoint under the (already bumped) generation: half-
// assembled barrier state is discarded, the master truncates its decision
// log to the restored tick, and every live worker gets a Restore carrying
// its partitions and the peer roster, so transports re-fence their peer
// links alongside their generation. Workers whose Restore could not be sent
// are returned for the caller's recovery loop.
func (c *coordinator) rewind() []int {
	assign := c.place.Assign()
	c.hub.SetAssign(assign)
	ck := c.m.Rewind()
	c.stats = make(map[int]*transport.EpochStats)
	c.finals = make(map[int]*transport.FinalReport)
	c.ckpt = nil
	c.statsSince, c.ckptSince, c.finalsSince = time.Time{}, time.Time{}, time.Time{}
	c.lv.roundReset(time.Now())

	var failed []int
	for p := range c.live {
		if !c.live[p] {
			continue
		}
		rest := &transport.Restore{
			Gen:    c.gen,
			Tick:   ck.Tick,
			Cuts:   append([]float64(nil), ck.Cuts...),
			Assign: assign,
			Live:   append([]bool(nil), c.live...),
			Peers:  append([]string(nil), c.o.Addrs...),
		}
		for _, q := range c.place.Owned(p) {
			rest.Parts = append(rest.Parts, ck.Parts[q])
		}
		if err := c.hub.Send(p, &transport.Frame{Kind: transport.FrameRestore, Gen: c.gen, Rest: rest}); err != nil {
			failed = append(failed, p)
		}
	}
	return failed
}

// admit places a worker that registered mid-run into the running fleet:
// the coordinator grows its tables, dials the newcomer one generation
// ahead — exactly a rejoin handshake, so the session parks for a Restore
// instead of ticking placeholder state — hands it its fair share of
// partitions through the same Join path a re-admitted worker uses, and
// rewinds everyone onto the grown placement from the last checkpoint.
func (c *coordinator) admit(w RegisteredWorker) error {
	for _, a := range c.o.Addrs {
		if a == w.Addr {
			return nil // already placed, or the initial registration's event
		}
	}
	proc := len(c.o.Addrs)
	c.o.Addrs = append(c.o.Addrs, w.Addr)
	c.live = append(c.live, false)
	c.seqs = append(c.seqs, 0)
	c.hub.Grow(proc + 1)
	c.lv.grow(proc+1, time.Now())

	conn, err := dialWorker(w.Addr, c.o.hello(proc, c.gen+1, c.place.Assign()), c.o.DialTimeout)
	if err != nil {
		// Vanished between registering and the dial: forget the slot ever
		// existed so a later registration can try again cleanly.
		c.o.Addrs = c.o.Addrs[:proc]
		c.live = c.live[:proc]
		c.seqs = c.seqs[:proc]
		return nil
	}
	conn.SetWriteTimeout(c.writeTimeout())
	c.live[proc] = true
	c.seqs[proc] = c.hub.Attach(proc, conn)
	c.lv.admit(proc, time.Now())
	c.place.Join(proc, c.live)
	c.joins++

	c.gen++
	failed := c.rewind()
	c.lv.graceAll(c.live, time.Now()) // the dial blocked the loop; see recoverFrom
	for _, p := range failed {
		if err := c.recoverFrom(p, fmt.Errorf("distrib: worker %d lost while admitting worker %d", p, proc)); err != nil {
			return err
		}
	}
	return nil
}

// randomRunID names a run whose caller named none. Collisions only matter
// within one daemon fleet at one moment, so 64 random bits are plenty.
func randomRunID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("run-%d", time.Now().UnixNano())
	}
	return "run-" + hex.EncodeToString(b[:])
}

// dialWorker connects to one worker daemon and completes the handshake:
// Hello out, Ack back, with the deadline covering both.
func dialWorker(addr string, h *transport.Hello, timeout time.Duration) (*transport.Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	nc.SetDeadline(time.Now().Add(timeout))
	c := transport.NewConn(nc)
	if err := c.Send(&transport.Frame{Kind: transport.FrameHello, Hello: h}); err != nil {
		c.Close()
		return nil, err
	}
	ack, err := c.Recv()
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("handshake: %w", err)
	}
	if ack.Kind != transport.FrameAck {
		c.Close()
		return nil, fmt.Errorf("handshake: unexpected frame kind %d", ack.Kind)
	}
	if ack.Err != "" {
		c.Close()
		return nil, fmt.Errorf("worker rejected run: %s", ack.Err)
	}
	nc.SetDeadline(time.Time{}) // the run itself is unbounded
	return c, nil
}
