package transport

// FaultAt is the fault-injection Transport wrapper of the recovery, stall
// and mesh chaos suites: it counts phase barriers and fires Do immediately
// before the Nth FlushPhase (or, with Await set, between that phase's
// FlushPhase and its AwaitPhase). What the fault is belongs to the caller,
// usually a method of the wrapped transport:
//
//   - Mem.Close is the in-process crash: the phase is lost, its AwaitPhase
//     returns ErrRestore, and the engine's master rolls the run back.
//   - TCP.Close severs the coordinator connection. To the coordinator this is
//     indistinguishable from the worker process dying mid-phase; to the
//     worker every subsequent transport operation fails, so its session
//     unwinds exactly like a crash while the daemon survives to accept a
//     re-admission dial.
//   - Stall freezes the session *without* closing the socket — a SIGSTOPped
//     or silently-partitioned worker. No error, no EOF: every peer blocks at
//     the barrier waiting for a marker that never comes, and only
//     heartbeat/deadline liveness can break the hang.
//   - CutPeer(dst) closes one outgoing peer link. The run must not notice:
//     traffic to dst falls back to the coordinator relay mid-epoch and the
//     count-based barrier stays exact.
//   - StallPeer(dst) makes that link fail *after* each write reaches the
//     socket, so a frame may arrive twice — directly and through the relay
//     re-send — and the receiver's sequence dedup must keep exactly one.
//
// Local-effect scenarios run two phases per tick (map, reduce₁) and
// non-local ones three, so Phase = 2·tick+1 hits a local-effect worker in
// the middle of that tick. The count runs on through a recovery, so a
// fault nested inside another counts the barriers the rollback re-executes.
// With Await the fault lands in the overlap window of the two-pass tick:
// the phase's sends and marker are already out, the interior pass has its
// inputs, but the boundary drain has not happened — so peers sail through
// this barrier and only the next one hangs.
type FaultAt struct {
	Transport
	// Phase is the 1-based phase barrier the fault fires at.
	Phase int
	// Await fires between the chosen phase's FlushPhase and its AwaitPhase
	// instead of before the FlushPhase.
	Await bool
	// Do is the fault.
	Do func()

	n int
}

// FlushPhase counts barriers and, without Await, fires at the chosen one.
func (f *FaultAt) FlushPhase() error {
	f.n++
	if f.n == f.Phase && !f.Await {
		f.Do()
	}
	return f.Transport.FlushPhase()
}

// AwaitPhase fires before waiting when Await is set and the chosen phase
// was just flushed.
func (f *FaultAt) AwaitPhase() error {
	if f.n == f.Phase && f.Await {
		f.Do()
	}
	return f.Transport.AwaitPhase()
}
