package distrib

import (
	"time"

	"github.com/bigreddata/brace/internal/transport"
)

// liveness is the coordinator's stall detector. Failure detection used to
// be socket-error-driven only: a worker that died cleanly reset its
// connection and recovery kicked in, but a SIGSTOPped or silently
// partitioned worker kept its socket open and hung the stats→directive
// barrier forever. liveness closes that hole with two clocks:
//
//   - Heartbeat: the coordinator pings every live worker each interval;
//     the worker's transport reader answers with a Pong even mid-phase.
//     A worker silent past the window is declared dead — this catches
//     frozen processes and one-way partitions.
//
//   - Epoch-round deadline: every control-plane round (stats collection,
//     checkpoint assembly, final reports) must complete within the
//     timeout of its first frame; the workers still missing are dropped.
//     For a stall *between* barriers — where no round ever starts because
//     every peer blocks on the laggard's phase marker — the hub's
//     observed marker progress identifies the laggard: it is strictly
//     behind, because the barrier protocol keeps healthy peers within one
//     marker of each other.
//
// With adaptive set (the default when the caller did not pick an explicit
// epoch timeout), the detector auto-tunes both deadlines from the observed
// control-round cadence: an EWMA over the intervals between roundReset
// calls. Tuning only ever *raises* a deadline above its configured base —
// a slow box whose barriers legitimately take tens of seconds (a barrier
// waits out the slowest peer's whole query pass, and an epoch barrier a
// checkpoint too) must not trip a timeout sized for a fast one, while the
// fixed bases keep today's behavior as the floor.
//
// All methods take the current time explicitly, so the bookkeeping is a
// pure function of its inputs and unit-testable without sleeping.
type liveness struct {
	window       time.Duration // max pong silence (0 = heartbeat disabled)
	epochTimeout time.Duration // max round/barrier age (0 = disabled)
	adaptive     bool          // raise deadlines with the observed cadence

	lastPong []time.Time

	// lastAdvance is the last time the data plane provably moved:
	// a marker progress change, a completed round, or a recovery.
	lastAdvance time.Time
	progress    []transport.ProcProgress

	// Observed control-round cadence (EWMA, adaptive mode only).
	cadence   time.Duration
	lastRound time.Time
}

// Deadline multipliers on the observed cadence (adaptive mode). A barrier
// round normally completes within one cadence; epochScale rounds of total
// silence is decisively stuck. The pong window scales gentler: pongs are
// answered mid-phase by the transport reader, and only the coordinator's
// single-threaded loop chewing a big round delays their processing.
const (
	epochScale = 8
	pongScale  = 2
)

func newLiveness(procs int, window, epochTimeout time.Duration, adaptive bool, now time.Time) *liveness {
	l := &liveness{
		window:       window,
		epochTimeout: epochTimeout,
		adaptive:     adaptive,
		lastPong:     make([]time.Time, procs),
		lastAdvance:  now,
		progress:     make([]transport.ProcProgress, procs),
	}
	for i := range l.lastPong {
		l.lastPong[i] = now
	}
	return l
}

// epochDeadline is the effective round/barrier deadline: the configured
// base, raised (never lowered) to epochScale observed cadences.
func (l *liveness) epochDeadline() time.Duration {
	if l.adaptive {
		if d := epochScale * l.cadence; d > l.epochTimeout {
			return d
		}
	}
	return l.epochTimeout
}

// pongWindow is the effective heartbeat-silence window: the configured
// base, raised (never lowered) to pongScale observed cadences.
func (l *liveness) pongWindow() time.Duration {
	if l.adaptive {
		if d := pongScale * l.cadence; d > l.window {
			return d
		}
	}
	return l.window
}

// grow widens the detector to procs worker slots (a mid-run join); new
// slots start with fresh clocks.
func (l *liveness) grow(procs int, now time.Time) {
	for len(l.lastPong) < procs {
		l.lastPong = append(l.lastPong, now)
		l.progress = append(l.progress, transport.ProcProgress{})
	}
}

// admit resets a worker's clocks when it (re)joins: a fresh connection
// earns a fresh grace period.
func (l *liveness) admit(p int, now time.Time) {
	l.lastPong[p] = now
	l.progress[p] = transport.ProcProgress{}
	l.lastAdvance = now
}

// pong records heartbeat evidence from worker p.
func (l *liveness) pong(p int, now time.Time) {
	l.lastPong[p] = now
}

// graceAll restarts every live worker's heartbeat clock. The control
// loop is single-threaded: a long synchronous step — the rejoin dial
// during a recovery can block for the full DialTimeout — stops pings
// and pong processing alike, so judging survivors by pre-blockage
// timestamps right after it would stall-drop healthy workers. Call it
// whenever the loop resumes from such a step.
func (l *liveness) graceAll(live []bool, now time.Time) {
	for p, alive := range live {
		if alive {
			l.lastPong[p] = now
		}
	}
	l.lastAdvance = now
}

// roundReset marks control-plane progress (a completed round, a recovery,
// a directive answered): the barrier clock starts over, and adaptive mode
// folds the interval since the previous round into the cadence EWMA. A
// recovery's round inflates one sample (it includes the rejoin dial);
// the 1/4-weight EWMA washes it out within a few ordinary rounds, and in
// the meantime the deadlines are merely more forgiving.
func (l *liveness) roundReset(now time.Time) {
	if l.adaptive && !l.lastRound.IsZero() {
		if iv := now.Sub(l.lastRound); iv > 0 {
			if l.cadence == 0 {
				l.cadence = iv
			} else {
				l.cadence = (3*l.cadence + iv) / 4
			}
		}
	}
	l.lastRound = now
	l.lastAdvance = now
}

// silent returns the live workers whose last Pong is older than the
// (effective) heartbeat window.
func (l *liveness) silent(live []bool, now time.Time) []int {
	if l.window <= 0 {
		return nil
	}
	w := l.pongWindow()
	var out []int
	for p, alive := range live {
		if alive && now.Sub(l.lastPong[p]) > w {
			out = append(out, p)
		}
	}
	return out
}

// overdue reports whether a round that started at since has blown the
// (effective) epoch timeout.
func (l *liveness) overdue(since time.Time, now time.Time) bool {
	return l.epochTimeout > 0 && !since.IsZero() && now.Sub(since) > l.epochDeadline()
}

// laggards checks the between-barriers stall case against a fresh marker
// progress snapshot. Any observed advance resets the clock; once the
// timeout passes with no advance at all, the live workers strictly behind
// the most advanced live worker are the stall suspects. When every live
// worker sits at the same marker there is no laggard to blame and nothing
// is returned — the heartbeat and the round deadlines cover those states.
func (l *liveness) laggards(live []bool, cur []transport.ProcProgress, now time.Time) []int {
	if l.epochTimeout <= 0 {
		return nil
	}
	advanced := false
	for p := range cur {
		if l.progress[p] != cur[p] {
			advanced = true
		}
	}
	copy(l.progress, cur)
	if advanced {
		l.lastAdvance = now
		return nil
	}
	if now.Sub(l.lastAdvance) <= l.epochDeadline() {
		return nil
	}
	var max transport.ProcProgress
	first := true
	for p, alive := range live {
		if !alive {
			continue
		}
		if first || max.Before(cur[p]) {
			max = cur[p]
			first = false
		}
	}
	var out []int
	for p, alive := range live {
		if alive && cur[p].Before(max) {
			out = append(out, p)
		}
	}
	return out
}
