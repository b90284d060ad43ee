// The run manager: admission control, queueing, and the lifecycle of every
// simulation the daemon multiplexes over its fleet.
//
// One submitted run = one distrib coordinator, embedded as a library and
// wired to the slice of the fleet the scheduler reserved for it. Isolation
// falls out of the architecture: each run has its own coordinator
// goroutine, its own hub, its own TCP sessions (Hello.RunID scopes a session
// to a run), and its own recovery machinery — a tenant's failure,
// stall-drop or cancellation never crosses into another run. The only
// shared failure domain is a worker *process*; when one dies, every run
// placed on it recovers independently through its own coordinator, and the
// fleet marks the address down so future placements avoid it.
package service

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/bigreddata/brace/internal/distrib"
	"github.com/bigreddata/brace/internal/scenario"
	"github.com/bigreddata/brace/internal/spatial"
)

// Run states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	ErrNotFound     = errors.New("service: no such run")
	ErrQueueFull    = errors.New("service: run queue full")
	ErrShuttingDown = errors.New("service: shutting down")
)

// RunSpec is a submitted run, the JSON body of POST /v1/runs. Scenario
// parameters mirror the bracesim CLI; zero values take the same defaults.
type RunSpec struct {
	// Scenario names a registry entry; Agents/Extent/Seed size it exactly
	// as on the CLI.
	Scenario string  `json:"scenario"`
	Agents   int     `json:"agents,omitempty"`
	Extent   float64 `json:"extent,omitempty"`
	Seed     uint64  `json:"seed,omitempty"`
	// Ticks to simulate (required, > 0).
	Ticks int `json:"ticks"`
	// Workers is the run's worker budget: how many fleet daemons the run
	// is placed on (0 = the daemon's default). Admission control queues
	// the run until that many workers have a free session slot.
	Workers int `json:"workers,omitempty"`
	// Partitions is the mapreduce partition count (0 = Workers).
	Partitions int `json:"partitions,omitempty"`
	// EpochTicks is the epoch barrier interval (0 = engine default 10).
	// Together with CheckpointEpochs it sets the observation cadence:
	// the watch stream gets one frame per installed checkpoint.
	EpochTicks int `json:"epoch_ticks,omitempty"`
	// Index is "kd" (the default, also for "") or "scan".
	Index spatial.Kind `json:"index"`
	// LoadBalance enables the coordinator-driven 1-D balancer.
	LoadBalance bool `json:"lb,omitempty"`
	// CheckpointEpochs orders a coordinated checkpoint every k epochs
	// (0 = every epoch — the service default leans observable, unlike the
	// CLI's initial-checkpoint-only default).
	CheckpointEpochs int `json:"checkpoint_epochs,omitempty"`
}

// RunStatus is a run's externally visible state, the JSON body of
// GET /v1/runs/{id}.
type RunStatus struct {
	ID      string   `json:"id"`
	State   string   `json:"state"`
	Spec    RunSpec  `json:"spec"`
	Error   string   `json:"error,omitempty"`
	Workers []string `json:"workers,omitempty"`
	// LastTick is the latest epoch barrier the control plane completed;
	// Frames counts observation frames published so far.
	LastTick uint64 `json:"last_tick"`
	Epochs   int    `json:"epochs"`
	Frames   uint64 `json:"frames"`
	// Final results (done runs only).
	Ticks      uint64 `json:"ticks,omitempty"`
	Agents     int    `json:"agents,omitempty"`
	Recoveries int    `json:"recoveries,omitempty"`
	Rejoins    int    `json:"rejoins,omitempty"`
	Rebalances int    `json:"rebalances,omitempty"`
	StallDrops int    `json:"stall_drops,omitempty"`
	NetBytes   int64  `json:"net_bytes,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// Config tunes a Manager. The admission-control knobs — MaxRuns,
// QueueDepth, SessionsPerWorker, DefaultRunWorkers — bound how much work
// the daemon accepts and how densely it multiplexes the fleet.
type Config struct {
	// WorkerAddrs is the fleet: bracesim-worker daemon addresses.
	WorkerAddrs []string
	// MaxRuns caps concurrently *running* runs (0 = default 4); further
	// admitted runs queue.
	MaxRuns int
	// QueueDepth caps queued runs (0 = default 16); beyond it submissions
	// are rejected with ErrQueueFull.
	QueueDepth int
	// SessionsPerWorker caps concurrent run sessions per fleet worker
	// (0 = default 4).
	SessionsPerWorker int
	// DefaultRunWorkers is the worker budget for specs that omit one
	// (0 = the whole fleet).
	DefaultRunWorkers int
	// KeyframeEvery is the observation streams' keyframe cadence
	// (0 = DefaultKeyframeEvery).
	KeyframeEvery int

	// Tunables are the deployment knobs passed through to every run's
	// coordinator — liveness timeouts; zero values take the
	// distrib.Default* values. The cadence knobs come from each RunSpec.
	distrib.Tunables

	// Registry, when non-nil, is the worker registry the daemon's fleet
	// grows from: registered workers join the fleet as they announce
	// themselves, and every run coordinator gets the registry for mid-run
	// admissions. WorkerAddrs may be empty when a registry is set.
	Registry *distrib.Registry

	// Log receives run lifecycle lines (nil: silent).
	Log io.Writer
}

// Manager owns the fleet and every run. All public methods are safe for
// concurrent use by HTTP handlers.
type Manager struct {
	cfg   Config
	fleet *fleet

	mu      sync.Mutex
	runs    map[string]*run
	order   []string // submission order, for List
	queue   []*run   // admitted but not yet placed, FIFO
	running int
	nextID  int
	closed  bool
	wg      sync.WaitGroup
}

// run is the manager's per-run record. Its own mutex guards the mutable
// fields so coordinator hooks never contend with the manager lock.
type run struct {
	id     string
	stream *ObsStream
	cancel chan struct{}

	mu        sync.Mutex
	spec      RunSpec
	state     string
	errText   string
	workers   []string
	idxs      []int
	lastTick  uint64
	epochs    int
	result    *distrib.Result
	canceled  bool
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// NewManager builds a manager over the given fleet. With a Registry the
// fleet may start empty: workers join it as they register, and each
// registration pumps the queue in case a waiting run now fits.
func NewManager(cfg Config) (*Manager, error) {
	if len(cfg.WorkerAddrs) == 0 && cfg.Registry == nil {
		return nil, fmt.Errorf("service: no worker addresses and no registry")
	}
	if cfg.MaxRuns <= 0 {
		cfg.MaxRuns = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	m := &Manager{
		cfg:   cfg,
		fleet: newFleet(cfg.WorkerAddrs, cfg.SessionsPerWorker),
		runs:  make(map[string]*run),
	}
	if cfg.Registry != nil {
		for _, w := range cfg.Registry.Workers() {
			m.fleet.admit(w.Addr)
		}
		go func() {
			for w := range cfg.Registry.Events() {
				m.fleet.admit(w.Addr)
				m.mu.Lock()
				if !m.closed {
					m.pumpLocked()
				}
				m.mu.Unlock()
			}
		}()
	}
	return m, nil
}

// fleetSize is the current fleet width — static fleets fix it at
// construction, registry-fed fleets grow it as workers announce themselves.
func (m *Manager) fleetSize() int { return m.fleet.size() }

// normalize validates a spec and fills defaults. Validation failures are
// client errors (HTTP 400).
func (m *Manager) normalize(spec RunSpec) (RunSpec, error) {
	if _, ok := scenario.Lookup(spec.Scenario); !ok {
		return spec, scenario.ErrUnknown(spec.Scenario)
	}
	if spec.Ticks <= 0 {
		return spec, fmt.Errorf("service: ticks must be > 0")
	}
	// The daemons a run lands on are shared with other runs, so its size is
	// refused here, before anything is sized from it.
	if spec.Partitions > distrib.MaxPartitions {
		return spec, fmt.Errorf("service: %d partitions over the limit of %d", spec.Partitions, distrib.MaxPartitions)
	}
	if spec.Agents > distrib.MaxAgents {
		return spec, fmt.Errorf("service: %d agents over the limit of %d", spec.Agents, distrib.MaxAgents)
	}
	// Zero selects a default for each of these; a negative value is a
	// mistake, not a request for one.
	for _, f := range []struct {
		name string
		v    int
	}{
		{"agents", spec.Agents},
		{"epoch_ticks", spec.EpochTicks},
		{"checkpoint_epochs", spec.CheckpointEpochs},
	} {
		if f.v < 0 {
			return spec, fmt.Errorf("service: negative %s %d", f.name, f.v)
		}
	}
	fleetN := m.fleetSize()
	if spec.Workers == 0 {
		if spec.Workers = m.cfg.DefaultRunWorkers; spec.Workers <= 0 || spec.Workers > fleetN {
			spec.Workers = fleetN
		}
		// A spec that asks for fewer partitions than the default worker
		// budget (e.g. bracesim -submit -workers 2 against a wide fleet)
		// means a narrow run, not an invalid one.
		if spec.Partitions > 0 && spec.Partitions < spec.Workers {
			spec.Workers = spec.Partitions
		}
	}
	if spec.Workers < 1 || spec.Workers > fleetN {
		return spec, fmt.Errorf("service: worker budget %d outside fleet of %d", spec.Workers, fleetN)
	}
	if spec.Partitions == 0 {
		spec.Partitions = spec.Workers
	}
	if spec.Partitions < spec.Workers {
		return spec, fmt.Errorf("service: %d partitions cannot cover %d workers", spec.Partitions, spec.Workers)
	}
	if err := spec.Index.Check(); err != nil {
		return spec, err
	}
	if spec.CheckpointEpochs == 0 {
		spec.CheckpointEpochs = 1 // the service default: observable runs
	}
	return spec, nil
}

// Submit admits a run: it starts immediately when a running slot and
// enough fleet capacity exist, queues otherwise, and fails with
// ErrQueueFull when the queue is at depth.
func (m *Manager) Submit(spec RunSpec) (*RunStatus, error) {
	spec, err := m.normalize(spec)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrShuttingDown
	}
	m.nextID++
	r := &run{
		id:        fmt.Sprintf("run-%04d", m.nextID),
		spec:      spec,
		state:     StateQueued,
		stream:    NewObsStream(m.cfg.KeyframeEvery),
		cancel:    make(chan struct{}),
		submitted: time.Now(),
	}
	if !m.startLocked(r) {
		if len(m.queue) >= m.cfg.QueueDepth {
			return nil, ErrQueueFull
		}
		m.queue = append(m.queue, r)
	}
	m.runs[r.id] = r
	m.order = append(m.order, r.id)
	return r.status(), nil
}

// startLocked tries to place and launch a run; m.mu must be held.
func (m *Manager) startLocked(r *run) bool {
	if m.running >= m.cfg.MaxRuns {
		return false
	}
	addrs, idxs, err := m.fleet.place(r.spec.Workers)
	if err != nil {
		return false
	}
	r.mu.Lock()
	r.state = StateRunning
	r.workers = addrs
	r.idxs = idxs
	r.started = time.Now()
	r.mu.Unlock()
	m.running++
	m.wg.Add(1)
	go m.execute(r)
	if m.cfg.Log != nil {
		fmt.Fprintf(m.cfg.Log, "bracesimd: %s started: %s seed=%d ticks=%d on %v\n",
			r.id, r.spec.Scenario, r.spec.Seed, r.spec.Ticks, addrs)
	}
	return true
}

// execute runs one simulation to completion on its reserved fleet slice.
func (m *Manager) execute(r *run) {
	defer m.wg.Done()
	r.mu.Lock()
	spec, addrs := r.spec, r.workers
	r.mu.Unlock()
	res, err := distrib.Run(m.runOptions(r, spec, addrs))

	r.mu.Lock()
	r.result = res
	switch {
	case errors.Is(err, distrib.ErrCanceled):
		r.state = StateCanceled
	case err != nil:
		r.state = StateFailed
		r.errText = err.Error()
	default:
		r.state = StateDone
	}
	r.finished = time.Now()
	idxs := r.idxs
	state, errText := r.state, r.errText
	r.mu.Unlock()

	m.fleet.release(idxs)
	r.stream.Close()
	if m.cfg.Log != nil {
		if errText != "" {
			fmt.Fprintf(m.cfg.Log, "bracesimd: %s %s: %s\n", r.id, state, errText)
		} else {
			fmt.Fprintf(m.cfg.Log, "bracesimd: %s %s\n", r.id, state)
		}
	}

	m.mu.Lock()
	m.running--
	m.pumpLocked()
	m.mu.Unlock()
}

// runOptions is the coordinator configuration of run r on its reserved
// workers: the spec's scenario and cadence, the daemon's deployment knobs,
// and the hooks that feed the run's status and observation stream.
func (m *Manager) runOptions(r *run, spec RunSpec, addrs []string) distrib.Options {
	return distrib.Options{
		Addrs:                 addrs,
		RunID:                 r.id,
		Scenario:              spec.Scenario,
		Agents:                spec.Agents,
		Extent:                spec.Extent,
		Seed:                  spec.Seed,
		Partitions:            spec.Partitions,
		Ticks:                 spec.Ticks,
		EpochTicks:            spec.EpochTicks,
		CheckpointEveryEpochs: spec.CheckpointEpochs,
		Tunables:              m.cfg.Tunables,
		Index:                 spec.Index,
		LoadBalance:           spec.LoadBalance,
		Cancel:                r.cancel,
		OnCheckpoint:          r.stream.Publish,
		OnEpoch: func(d distrib.EpochDecision) {
			r.mu.Lock()
			r.lastTick = d.Tick
			r.epochs++
			r.mu.Unlock()
		},
		OnWorkerDown: func(proc int, addr string, cause error) {
			m.fleet.markDown(addr, cause)
			if m.cfg.Log != nil {
				fmt.Fprintf(m.cfg.Log, "bracesimd: %s: worker %s down: %v\n", r.id, addr, cause)
			}
		},
	}
}

// pumpLocked starts every queued run that fits. The scan covers the whole
// queue, not just its head: a wide run waiting for capacity must not block
// a narrow one that fits right now.
func (m *Manager) pumpLocked() {
	kept := m.queue[:0]
	for _, r := range m.queue {
		if !m.startLocked(r) {
			kept = append(kept, r)
		}
	}
	m.queue = kept
}

// Get returns a run's status.
func (m *Manager) Get(id string) (*RunStatus, error) {
	m.mu.Lock()
	r := m.runs[id]
	m.mu.Unlock()
	if r == nil {
		return nil, ErrNotFound
	}
	return r.status(), nil
}

// List returns every run's status in submission order.
func (m *Manager) List() []*RunStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*RunStatus, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.runs[id].status())
	}
	return out
}

// Cancel aborts a run: a queued run is removed from the queue, a running
// one's coordinator is told to stop (its workers unwind through connection
// errors and watchdogs). Canceling a finished run is a no-op.
func (m *Manager) Cancel(id string) (*RunStatus, error) {
	m.mu.Lock()
	r := m.runs[id]
	if r == nil {
		m.mu.Unlock()
		return nil, ErrNotFound
	}
	for i, q := range m.queue {
		if q == r {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			break
		}
	}
	m.mu.Unlock()

	r.mu.Lock()
	switch r.state {
	case StateQueued:
		r.state = StateCanceled
		r.finished = time.Now()
	case StateRunning:
		if !r.canceled {
			r.canceled = true
			close(r.cancel)
		}
	}
	st := r.state
	r.mu.Unlock()
	if st == StateCanceled {
		r.stream.Close()
	}
	return r.status(), nil
}

// Watch subscribes to a run's observation stream.
func (m *Manager) Watch(id string) (*Subscription, error) {
	m.mu.Lock()
	r := m.runs[id]
	m.mu.Unlock()
	if r == nil {
		return nil, ErrNotFound
	}
	return r.stream.Subscribe(), nil
}

// Fleet returns the fleet's worker states. Registry-fed workers get their
// self-reported peer-link counts overlaid on the scheduler's session view.
func (m *Manager) Fleet() []WorkerInfo {
	ws := m.fleet.snapshot()
	if m.cfg.Registry != nil {
		links := make(map[string]int)
		for _, w := range m.cfg.Registry.Workers() {
			links[w.Addr] = w.PeerLinks
		}
		for i := range ws {
			if n, ok := links[ws[i].Addr]; ok && ws[i].Registered {
				ws[i].PeerLinks = n
			}
		}
	}
	return ws
}

// Close cancels every run and waits for their coordinators to unwind.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	for _, id := range ids {
		m.Cancel(id)
	}
	m.wg.Wait()
}

// status snapshots a run for the API.
func (r *run) status() *RunStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := &RunStatus{
		ID:          r.id,
		State:       r.state,
		Spec:        r.spec,
		Error:       r.errText,
		Workers:     append([]string(nil), r.workers...),
		LastTick:    r.lastTick,
		Epochs:      r.epochs,
		Frames:      r.stream.Frames(),
		SubmittedAt: r.submitted,
	}
	if !r.started.IsZero() {
		t := r.started
		st.StartedAt = &t
	}
	if !r.finished.IsZero() {
		t := r.finished
		st.FinishedAt = &t
	}
	if res := r.result; res != nil {
		st.Ticks = res.Ticks
		st.Agents = len(res.Agents)
		st.Recoveries = res.Recoveries
		st.Rejoins = res.Rejoins
		st.Rebalances = res.Rebalances
		st.StallDrops = res.StallDrops
		st.NetBytes = res.Net.SentBytes + res.Net.LocalBytes
	}
	return st
}

// Result returns a finished run's full distrib result (nil while running).
func (m *Manager) Result(id string) (*distrib.Result, error) {
	m.mu.Lock()
	r := m.runs[id]
	m.mu.Unlock()
	if r == nil {
		return nil, ErrNotFound
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.result, nil
}
