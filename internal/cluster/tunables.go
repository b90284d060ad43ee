package cluster

import "time"

// Defaults for the shared tunables; exported so every CLI (bracesim,
// bracesim-worker, bracesimd) derives its flag help from the values
// actually in force, and tests assert against them.
const (
	DefaultHeartbeat           = 2 * time.Second
	DefaultHeartbeatMisses     = 5
	DefaultEpochTimeout        = 60 * time.Second
	DefaultDialTimeout         = 10 * time.Second
	DefaultCheckpointFullEvery = 8
	DefaultMaxRecoveries       = 8
)

// Tunables is the knob set shared by every layer that runs or hosts a
// simulation: the in-process engine, the distributed coordinator, and the
// bracesimd service all embed it, so a new knob (and its default) lands in
// exactly one place. Each layer reads the subset that applies to it — the
// engine ignores the network timeouts, a star-topology run ignores Mesh —
// and the zero value always means "use the default".
type Tunables struct {
	// EpochTicks is the master interaction interval (0 = engine default).
	EpochTicks int
	// CheckpointEveryEpochs orders a coordinated checkpoint every k epochs
	// (0 = only the initial tick-0 rollback point is kept).
	CheckpointEveryEpochs int
	// CheckpointFullEvery makes every Nth coordinated checkpoint a full
	// keyframe; the ones between ship field-level deltas against the
	// previous checkpoint. 1 ships full state every time; 0 means the
	// default (DefaultCheckpointFullEvery).
	CheckpointFullEvery int
	// Heartbeat is the coordinator's liveness ping interval. 0 means the
	// default (DefaultHeartbeat); negative disables heartbeats.
	Heartbeat time.Duration
	// HeartbeatMisses is how many consecutive silent intervals declare a
	// worker dead (0 = DefaultHeartbeatMisses). The product
	// Heartbeat×HeartbeatMisses is the detection window.
	HeartbeatMisses int
	// EpochTimeout bounds every control-plane round and, via observed
	// marker progress, the gap between barriers. 0 selects adaptive
	// deadlines floored at DefaultEpochTimeout; an explicit positive value
	// is a fixed deadline; negative disables the deadline.
	EpochTimeout time.Duration
	// DialTimeout bounds dialing + handshaking each worker (0 =
	// DefaultDialTimeout).
	DialTimeout time.Duration
	// RejoinTimeout bounds the re-dial + handshake when re-admitting a
	// dead worker. It defaults to DialTimeout: a daemon healthy enough
	// for the initial dial deserves the same budget to rejoin.
	RejoinTimeout time.Duration
	// MaxRecoveries bounds failure recoveries per run (0 = default):
	// a worker that keeps dying at the same replayed point must
	// eventually fail the run instead of looping forever.
	MaxRecoveries int
	// Mesh routes data-plane envelope traffic directly between worker
	// peers instead of relaying it through the coordinator hub; control
	// frames (stats, directives, checkpoints, pings) stay on the star.
	// Peer pairs that cannot reach each other fall back to the hub relay,
	// so the switch changes topology, never results.
	Mesh bool
}
