// Package distrib runs a BRACE simulation across real OS processes: a
// coordinator (bracesim -distribute tcp) dials one or more worker daemons
// (bracesim-worker), hands each a Hello naming a registry scenario, the
// coordinator-owned partition assignment and the peer roster, and the
// workers exchange the per-phase envelope traffic directly over the TCP
// transport's peer mesh, with the coordinator as relay fallback.
//
// The design exploits what makes BRACE's dataflow distributable in the
// first place: behavior is *code*, reconstructible anywhere from the
// scenario registry plus (name, agents, extent, seed), so only data —
// agent envelopes — ever crosses the wire. Every process computes the
// partitions assigned to it through the same lockstep tick loop, and the
// transport's end-of-phase markers substitute for shared-memory barriers.
//
// The coordinator drives the master of the paper's §3.3, engine.Master —
// the same state machine an in-process engine runs — over the network: at
// every epoch barrier workers ship statistics up and wait for a directive
// down. The master runs the 1-D load balancer on those statistics (so
// `-lb` is bit-identical across transports), orders coordinated
// checkpoints whose state it holds, and hands that state back on a
// rollback. The coordinator adds what needs a network: when a worker
// connection dies it re-places the dead worker's partitions (re-admitting
// the worker if its daemon still answers), bumps the protocol generation,
// and restores every survivor from the master's last checkpoint so the
// run continues bit-identically to an unfailed one. For local-effect scenarios the
// result is bit-identical to an in-memory run at the same seed and
// partition count; the loopback tests assert exactly that, with and
// without injected faults.
package distrib

import (
	"errors"
	"flag"
	"fmt"
	"sort"
	"time"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/cluster"
	"github.com/bigreddata/brace/internal/detutil"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/partition"
	"github.com/bigreddata/brace/internal/scenario"
	"github.com/bigreddata/brace/internal/spatial"
	"github.com/bigreddata/brace/internal/transport"
)

// Options configures a coordinator-side distributed run.
type Options struct {
	// Addrs are the worker daemons' listen addresses; worker process i is
	// Addrs[i]. The coordinator computes the partition placement.
	Addrs []string
	// RunID scopes the run's worker sessions when the daemons serve many
	// concurrent coordinators (the bracesimd fleet): peer links address a
	// session by (RunID, process). Empty draws a random one.
	RunID string
	// Scenario is the registry name every process rebuilds locally.
	Scenario string
	// Agents, Extent, Seed size the scenario exactly as scenario.Config.
	Agents int
	Extent float64
	Seed   uint64
	// Partitions is the total mapreduce worker count (≥ len(Addrs)).
	Partitions int
	// Ticks to simulate.
	Ticks int
	// EpochTicks is the master interaction interval (0 = engine default).
	EpochTicks int
	// CheckpointEveryEpochs orders a coordinated checkpoint every k epochs
	// (0 = only the initial tick-0 rollback point is kept).
	CheckpointEveryEpochs int
	// Tunables are the deployment knobs: liveness timeouts.
	Tunables
	// Index selects the spatial index (zero value: the cell grid).
	Index spatial.Kind
	// LoadBalance enables the coordinator-driven 1-D load balancer: the
	// same engine.Master as the in-memory engine, run on the workers'
	// epoch statistics, with new strip cuts broadcast at epoch
	// barriers. Migrated agents travel through the ordinary data plane at
	// the next tick's map phase.
	LoadBalance bool
	// Balancer tunes load balancing; zero value means DefaultBalancer.
	Balancer partition.Balancer
	// Registry, when non-nil, is the coordinator-side worker registry:
	// Addrs may be left empty and are filled from registered workers, and
	// a worker that registers mid-run is admitted into the running
	// placement through the rejoin path.
	Registry *Registry

	// The fields below make the coordinator embeddable as a library — the
	// bracesimd service runs one coordinator per admitted run, each wired
	// to its own slice of a shared worker fleet.

	// Cancel, when non-nil, aborts the run as soon as it is closed: the
	// coordinator stops its event loop and drops every worker connection.
	// Workers unwind through their coordinator watchdogs.
	Cancel <-chan struct{}
	// OnEpoch, when non-nil, observes every control-plane barrier decision
	// as it is made (the same records Result.Epochs accumulates). Called
	// from the coordinator loop; it must not block.
	OnEpoch func(EpochDecision)
	// OnCheckpoint, when non-nil, observes every checkpoint the
	// coordinator installs — including the tick-0 initial state — as the
	// run's full live population: non-replica, non-dead envelopes,
	// ID-sorted. The slice and its envelopes alias coordinator-held
	// checkpoint state: the callback must encode or copy what it keeps and
	// must never mutate them. Called from the coordinator loop; it must
	// not block. This is the observation-stream tap: with
	// CheckpointEveryEpochs=1 and EpochTicks=1 it fires every tick.
	OnCheckpoint func(tick uint64, envs []*engine.Envelope)
	// OnWorkerDown, when non-nil, reports a worker that left the run for
	// good: its connection died (or it stalled) and the rejoin dial did
	// not bring it back, so its partitions moved to the survivors. A fleet
	// scheduler uses it to steer future placements away from the address.
	OnWorkerDown func(proc int, addr string, cause error)
}

// Tunables are the coordinator's deployment knobs: how it watches the
// fleet. They belong to where the run is deployed, not to what it
// simulates, so the bracesimd service sets them once for every run
// (service.Config embeds them) and both CLIs bind them through Bind. The
// zero value selects the defaults.
type Tunables struct {
	// Heartbeat is the coordinator's liveness ping interval. 0 means
	// DefaultHeartbeat; negative disables heartbeats. A worker silent for
	// MissedHeartbeats intervals is declared dead.
	Heartbeat time.Duration
	// EpochTimeout bounds every control-plane round and, via observed
	// marker progress, the gap between barriers. 0 selects adaptive
	// deadlines floored at DefaultEpochTimeout; an explicit positive value
	// is a fixed deadline; negative disables the deadline.
	EpochTimeout time.Duration
	// DialTimeout bounds dialing + handshaking each worker, at startup and
	// when re-admitting a dead one (0 = DefaultDialTimeout).
	DialTimeout time.Duration
	// Mesh does nothing: the peer mesh carries every run's data plane.
	// No flag binds it and nothing reads it; it is kept only until the
	// benchmark module, which still sets it, stops doing so.
	Mesh bool
}

// Bind registers the three deployment flags on fs; prefix leads each help
// line (bracesim says which mode the flag applies to).
func (t *Tunables) Bind(fs *flag.FlagSet, prefix string) {
	fs.DurationVar(&t.Heartbeat, "heartbeat", 0, fmt.Sprintf(
		"%sliveness ping interval; a worker silent for %d intervals is force-dropped (0 = default %v, negative = off)",
		prefix, MissedHeartbeats, DefaultHeartbeat))
	fs.DurationVar(&t.EpochTimeout, "epoch-timeout", 0, fmt.Sprintf(
		"%smax age of an epoch barrier round before laggards are force-dropped (0 = adaptive with a %v floor, negative = off)",
		prefix, DefaultEpochTimeout))
	fs.DurationVar(&t.DialTimeout, "dial-timeout", 0, fmt.Sprintf(
		"%sworker dial+handshake budget, also when re-admitting a dead worker (0 = default %v)", prefix, DefaultDialTimeout))
}

// Defaults for the coordinator's options, exported so every CLI
// (bracesim, bracesim-worker, bracesimd) derives its flag help from the
// values actually in force, and tests assert against them.
const (
	DefaultHeartbeat    = 2 * time.Second
	DefaultEpochTimeout = 60 * time.Second
	DefaultDialTimeout  = 10 * time.Second
)

// MissedHeartbeats is how many consecutive silent heartbeat intervals
// declare a worker dead: Heartbeat×MissedHeartbeats is the detection
// window.
const MissedHeartbeats = 5

// maxRecoveries bounds failure recoveries per run: a worker that keeps
// dying at the same replayed point must eventually fail the run instead
// of looping forever.
const maxRecoveries = 8

// ErrCanceled reports a run deliberately aborted through Options.Cancel.
var ErrCanceled = errors.New("distrib: run canceled")

// EpochDecision records what the master decided at one epoch barrier.
type EpochDecision = engine.EpochDecision

// Result is what a distributed run yields on the coordinator.
type Result struct {
	// Agents is the final live population, ID-sorted, assembled from the
	// workers' final reports.
	Agents agent.Population
	// Ticks is the tick count every worker completed.
	Ticks uint64
	// Net sums traffic totals across the surviving worker processes: each
	// delivery is metered once, by its sender, in an unfailed run. After
	// a recovery the counters report what the survivors *actually* put on
	// the wire — re-executed epochs count again, and whatever a dead
	// worker sent before dying is lost with it.
	Net cluster.NodeMetrics
	// Procs is the number of worker processes still in the run at the end.
	Procs int
	// Recoveries counts failure recoveries the coordinator performed.
	Recoveries int
	// Rejoins counts dead workers re-admitted after a re-dial.
	Rejoins int
	// Rebalances counts applied load-balancing repartitions.
	Rebalances int
	// StallDrops counts workers force-dropped by the liveness machinery
	// (missed heartbeats or a blown epoch-round deadline) rather than by
	// a socket error.
	StallDrops int
	// Joins counts workers admitted into the run after it started (a
	// mid-run registration placed through the join path).
	Joins int
	// RelayedDataFrames/RelayedDataBytes count the data-plane envelope
	// frames the coordinator relayed. In a healthy run both stay zero —
	// the loopback and chaos suites' evidence that envelopes really
	// traveled peer-to-peer — and any nonzero count under an injected
	// peer-link fault is the relay fallback working.
	RelayedDataFrames int64
	RelayedDataBytes  int64
	// CheckpointBytes is the wire size of every checkpoint frame workers
	// shipped, and CheckpointFullParts counts the partition snapshots they
	// carried: every piece is a partition's full state.
	CheckpointBytes     int64
	CheckpointFullParts int
	// CheckpointDeltaParts is always 0: checkpoints ship no deltas. It is
	// kept because the benchmark harness in bench/ still reports it.
	CheckpointDeltaParts int
	// Epochs records the control plane's per-barrier decisions.
	Epochs []EpochDecision
}

func (o *Options) validate() error {
	if len(o.Addrs) == 0 {
		return fmt.Errorf("distrib: no worker addresses")
	}
	if err := checkSize(o.Agents, o.Partitions); err != nil {
		return fmt.Errorf("distrib: %w", err)
	}
	if o.Partitions < len(o.Addrs) {
		return fmt.Errorf("distrib: %d partitions cannot cover %d worker processes", o.Partitions, len(o.Addrs))
	}
	if o.Ticks < 0 {
		return fmt.Errorf("distrib: negative tick count")
	}
	// Zero selects a default for each of these; a negative value is a
	// mistake, not a request for one.
	if o.EpochTicks < 0 || o.CheckpointEveryEpochs < 0 {
		return fmt.Errorf("distrib: negative epoch ticks %d or checkpoint interval %d",
			o.EpochTicks, o.CheckpointEveryEpochs)
	}
	if o.DialTimeout < 0 {
		return fmt.Errorf("distrib: negative dial timeout %v", o.DialTimeout)
	}
	if _, ok := scenario.Lookup(o.Scenario); !ok {
		return scenario.ErrUnknown(o.Scenario)
	}
	if err := o.Index.Check(); err != nil {
		return fmt.Errorf("distrib: %w", err)
	}
	return nil
}

// Size limits on a run, enforced wherever a size arrives from outside: the
// coordinator's options, the HTTP run spec (service.Manager) and a worker
// daemon's Hello. The coordinator allocates engine state per partition and
// every worker process seeds the full population, so a size is refused
// before anything is built from it.
const (
	MaxPartitions = 1024
	MaxAgents     = 1 << 22
)

// checkSize refuses a population or partition count outside the limits.
// Zero agents asks for the scenario's default.
func checkSize(agents, partitions int) error {
	if agents < 0 || agents > MaxAgents {
		return fmt.Errorf("%d agents outside the limit of %d", agents, MaxAgents)
	}
	if partitions < 0 || partitions > MaxPartitions {
		return fmt.Errorf("%d partitions outside the limit of %d", partitions, MaxPartitions)
	}
	return nil
}

// hello builds worker proc's handshake for the given generation and
// placement. Peers is the roster: Peers[i] is process i's daemon address,
// which the other workers' transports dial lazily for direct neighbor
// exchange.
func (o *Options) hello(proc, gen int, assign []int) *transport.Hello {
	return &transport.Hello{
		Proto:       transport.ProtoVersion,
		RunID:       o.RunID,
		Proc:        proc,
		NumProcs:    len(o.Addrs),
		Partitions:  o.Partitions,
		Assign:      assign,
		Gen:         gen,
		LoadBalance: o.LoadBalance,
		Scenario:    o.Scenario,
		Agents:      o.Agents,
		Extent:      o.Extent,
		Seed:        o.Seed,
		Ticks:       o.Ticks,
		EpochTicks:  o.EpochTicks,
		Index:       o.Index,
		Peers:       append([]string(nil), o.Addrs...),
	}
}

// initialState derives the run's tick-0 checkpoint on the coordinator: the
// initial strip cuts and per-partition envelopes, computed by the same
// engine constructor every worker runs, so recovery can always rewind to
// the exact start even when no periodic checkpoint has completed yet.
func initialState(o Options) (engine.Checkpoint, error) {
	sp, ok := scenario.Lookup(o.Scenario)
	if !ok {
		return engine.Checkpoint{}, scenario.ErrUnknown(o.Scenario)
	}
	m, pop, err := sp.New(scenario.Config{Agents: o.Agents, Seed: o.Seed, Extent: o.Extent})
	if err != nil {
		return engine.Checkpoint{}, err
	}
	eng, err := engine.NewDistributed(m, pop, engine.Options{
		Workers: o.Partitions,
		Index:   o.Index,
		Seed:    o.Seed,
	})
	if err != nil {
		return engine.Checkpoint{}, err
	}
	ck := engine.Checkpoint{Cuts: eng.Partition().Cuts(), Parts: make([]transport.PartState, o.Partitions)}
	for p := range ck.Parts {
		ck.Parts[p] = transport.PartState{Part: p, Full: true, Values: eng.ExportPartition(p)}
	}
	return ck, nil
}

// livePopulation flattens an assembled (all-Full) checkpoint into the
// run's live population: non-replica, non-dead envelopes across all
// partitions, ID-sorted. The result aliases the checkpoint's envelopes —
// OnCheckpoint observers get exactly this view.
func livePopulation(parts []transport.PartState) []*engine.Envelope {
	var out []*engine.Envelope
	for _, ps := range parts {
		for _, env := range ps.Values {
			if env != nil && !env.Replica && !env.A.Dead {
				out = append(out, env)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].A.ID < out[j].A.ID })
	return out
}

// ownedParts returns the partitions assign maps to proc, ascending. The
// result is non-nil even when empty: a worker that owns nothing must tick
// nothing, and the engine/runtime interpret a *nil* LocalParts as "all
// partitions" — the opposite meaning.
func ownedParts(assign []int, proc int) []int {
	out := make([]int, 0, len(assign))
	for p, pr := range assign {
		if pr == proc {
			out = append(out, p)
		}
	}
	return out
}

// assemble turns the live workers' final reports into a Result.
func assemble(finals map[int]*transport.FinalReport) (*Result, error) {
	res := &Result{Procs: len(finals)}
	first := true
	for _, proc := range detutil.SortedKeys(finals) {
		f := finals[proc]
		if first {
			res.Ticks = f.Ticks
			first = false
		} else if f.Ticks != res.Ticks {
			return nil, fmt.Errorf("distrib: worker %d stopped at tick %d, others at %d", proc, f.Ticks, res.Ticks)
		}
		for _, env := range f.Values {
			if !env.Replica && !env.A.Dead {
				res.Agents = append(res.Agents, env.A)
			}
		}
		n := f.Net
		res.Net.SentMsgs += n.SentMsgs
		res.Net.SentBytes += n.SentBytes
		res.Net.RecvMsgs += n.RecvMsgs
		res.Net.RecvBytes += n.RecvBytes
		res.Net.LocalMsgs += n.LocalMsgs
		res.Net.LocalBytes += n.LocalBytes
	}
	sort.Sort(res.Agents)
	return res, nil
}
