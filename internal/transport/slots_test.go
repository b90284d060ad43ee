package transport

import (
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/cluster"
)

// phaseBatch is the k-th Data batch of (gen, phase): replicas and owned
// rows interleaved, every value a function of its arguments, so a
// regenerated batch is what a decoded one must still read bit for bit.
func phaseBatch(gen int, phase uint64, k, rows int) []*Envelope {
	b := make([]*Envelope, rows)
	for i := range b {
		v := float64(gen)*1e6 + float64(phase)*1e3 + float64(k)*100 + float64(i)
		b[i] = &Envelope{
			A:       &agent.Agent{ID: agent.ID(v), State: []float64{v, -v, v / 7}, Effect: []float64{0, v}},
			Replica: i%3 != 1,
			SrcPart: int32(i % 2),
		}
	}
	return b
}

// slotConn is a receiving Conn whose decoder follows a clock, as a TCP
// transport's connections do, and a sender on the other end of a pipe.
type slotConn struct {
	t        *testing.T
	send, rc *Conn
	clock    *phaseClock
}

func newSlotConn(t *testing.T) *slotConn {
	a, b := net.Pipe()
	c := &slotConn{t: t, send: NewConn(a), rc: NewConn(b), clock: new(phaseClock)}
	c.rc.dec.clock = c.clock
	t.Cleanup(func() { c.send.Close(); c.rc.Close() })
	return c
}

// data sends the k-th Data batch of (gen, phase) and returns it decoded.
func (c *slotConn) data(gen int, phase uint64, k, rows int) []*Envelope {
	c.t.Helper()
	errc := make(chan error, 1)
	go func() {
		errc <- c.send.Send(&Frame{Kind: FrameData, Gen: gen, Phase: phase, Msg: cluster.Message{Payload: phaseBatch(gen, phase, k, rows)}})
	}()
	f, err := c.rc.Recv()
	if err == nil {
		err = <-errc
	}
	if err != nil {
		c.t.Fatal(err)
	}
	b, _ := batchOf(f.Msg.Payload)
	return b
}

// decoded is one batch the test keeps and re-checks.
type decoded struct {
	gen   int
	phase uint64
	k     int
	batch []*Envelope
}

func (d decoded) intact() bool {
	return sameBits(reflect.ValueOf(d.batch), reflect.ValueOf(phaseBatch(d.gen, d.phase, d.k, len(d.batch))))
}

func (d decoded) String() string {
	return fmt.Sprintf("batch %d of (gen %d, phase %d)", d.k, d.gen, d.phase)
}

// inside reports whether p points into the array s is a slice of.
func inside[T any](p unsafe.Pointer, s []T) bool {
	if cap(s) == 0 {
		return false
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	var zero T
	return uintptr(p) >= lo && uintptr(p) < lo+uintptr(cap(s))*unsafe.Sizeof(zero)
}

// inSlot reports whether any row, vector or batch slice of b lies in one
// of the arrays of slots.
func inSlot(b []*Envelope, slots [3]decodeSlot) bool {
	for _, s := range slots {
		if inside(unsafe.Pointer(unsafe.SliceData(b)), s.batch) {
			return true
		}
		for _, e := range b {
			if inside(unsafe.Pointer(e), s.rows) || inside(unsafe.Pointer(unsafe.SliceData(e.A.State)), s.floats) {
				return true
			}
		}
	}
	return false
}

// Phase p's replicas stay bit-identical while phases p+1 and p+2 decode on
// the same Conn, several frames a phase; phase p+3 refills p's slot, and
// once the slots have grown a phase's replicas allocate nothing.
func TestDecodeSlotsKeepThreePhases(t *testing.T) {
	c := newSlotConn(t)
	var kept []decoded
	for phase := uint64(1); phase <= 12; phase++ {
		c.clock.set(1, phase-1) // the receiver flushed phase-1 before any peer sends phase
		for k := 0; k < 3; k++ {
			b := c.data(1, phase, k, 10+int(phase)%4)
			kept = append(kept, decoded{1, phase, k, b})
		}
		for _, d := range kept {
			if d.phase+2 >= phase && !d.intact() {
				t.Fatalf("%v changed once phase %d decoded", d, phase)
			}
		}
	}
	// Phase 10 refilled the slot of phases 1, 4 and 7, from its start.
	if s, b10 := c.rc.dec.slots[1], kept[3*9].batch; s.phase != 10 || b10[0].A != &s.rows[0].a || &b10[0].A.State[0] != &s.floats[0] {
		t.Errorf("phase 10's first replica is not the first row of slot 1, keyed (%d, %d)", s.gen, s.phase)
	}
	for _, d := range kept {
		for _, e := range d.batch {
			if cap(e.A.State) != len(e.A.State) || cap(e.A.Effect) != len(e.A.Effect) {
				t.Fatalf("%v: a decoded vector is not capped", d)
			}
		}
	}
	// In steady state a Data frame's replica rows, their floats, its
	// batch slice and the payload pointing to it cost no allocation:
	// decoding into a grown slot makes four fewer than decoding into fresh
	// memory (a phase ahead of the clock).
	var bodies [][]byte
	for phase := uint64(13); phase <= 30; phase++ {
		b, err := encodeFrame(&Frame{Kind: FrameData, Gen: 1, Phase: phase, Msg: cluster.Message{Payload: phaseBatch(1, phase, 0, 12)}})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b)
	}
	phase := uint64(12)
	next := func() {
		c.clock.set(1, phase)
		phase++
		if _, err := decodeFrame(&c.rc.dec, bodies[phase-13], nil); err != nil {
			t.Fatal(err)
		}
	}
	next()
	next()
	next()
	reused := testing.AllocsPerRun(8, next)
	c.clock.set(1, 0)
	fresh := testing.AllocsPerRun(8, func() {
		if _, err := decodeFrame(&c.rc.dec, bodies[len(bodies)-1], nil); err != nil {
			t.Fatal(err)
		}
	})
	if reused+4 != fresh {
		t.Errorf("a Data frame allocates %v times into a grown slot and %v times into fresh memory, want 4 fewer", reused, fresh)
	}
}

// A late frame of an older (gen, phase) — a relayed duplicate, a
// straggler from an older generation — and a frame of a phase the clock
// has not reached decode into fresh memory and leave the slot as it was:
// the slot's batch stays intact, and the slot's next frame of its own
// phase lands right after it.
func TestDecodeSlotsRefuseLateAndEarlyFrames(t *testing.T) {
	c := newSlotConn(t)
	c.clock.set(2, 3)
	cur := decoded{2, 4, 0, c.data(2, 4, 0, 9)} // slot 1, keyed (2, 4)
	s := c.rc.dec.slots[1]
	for _, f := range []struct {
		gen   int
		phase uint64
	}{
		{2, 1},  // a duplicate of an older phase of the slot
		{1, 4},  // the slot's phase, an older generation
		{1, 7},  // an older generation, a later phase
		{2, 7},  // a phase the clock has not reached
		{3, 4},  // a generation this process has not reached
		{3, 1},  // the same, phase restarting
		{2, 10}, // far ahead
	} {
		late := decoded{f.gen, f.phase, 5, c.data(f.gen, f.phase, 5, 9)}
		if !cur.intact() {
			t.Fatalf("a frame of (gen %d, phase %d) changed the slot's batch", f.gen, f.phase)
		}
		if inSlot(late.batch, c.rc.dec.slots) {
			t.Fatalf("a frame of (gen %d, phase %d) decoded into a slot", f.gen, f.phase)
		}
		if got := c.rc.dec.slots[1]; got.gen != s.gen || got.phase != s.phase || got.nRows != s.nRows {
			t.Fatalf("a frame of (gen %d, phase %d) re-keyed slot 1 from (%d, %d) to (%d, %d)", f.gen, f.phase, s.gen, s.phase, got.gen, got.phase)
		}
		if !late.intact() {
			t.Fatalf("%v decoded wrong", late)
		}
	}
	next := c.data(2, 4, 1, 9)
	if !cur.intact() {
		t.Fatal("the slot's second frame changed its first")
	}
	if next[0].A != &c.rc.dec.slots[1].rows[s.nRows].a {
		t.Error("the slot's second frame of its phase did not follow its first")
	}
}

// Owned rows — migrants, here — never alias a slot: they outlive the
// phase that delivered them.
func TestDecodeSlotsLeaveOwnedRowsFresh(t *testing.T) {
	c := newSlotConn(t)
	for phase := uint64(1); phase <= 7; phase++ {
		c.clock.set(1, phase-1)
		b := c.data(1, phase, 0, 16)
		var owned, replicas []*Envelope
		for _, e := range b {
			if e.Replica {
				replicas = append(replicas, e)
			} else {
				owned = append(owned, e)
			}
		}
		if len(owned) == 0 || !inSlot(replicas, c.rc.dec.slots) {
			t.Fatalf("phase %d: %d owned rows, replicas in a slot: %v", phase, len(owned), inSlot(replicas, c.rc.dec.slots))
		}
		for _, e := range owned {
			if inSlot([]*Envelope{e}, c.rc.dec.slots) {
				t.Fatalf("phase %d: owned agent %d lies in a slot", phase, e.A.ID)
			}
		}
	}
}

// After a restore — a new generation, its phases restarting at 0 — frames
// neither read nor clobber the slots of the generation before: a frame of
// the new generation that arrives before this process restored decodes
// fresh, and once it has restored, the new generation's slots are new
// arrays. The old generation's last phases stay bit-identical, and the new
// generation's batches read what was sent.
func TestDecodeSlotsAcrossARestore(t *testing.T) {
	c := newSlotConn(t)
	var old []decoded
	for phase := uint64(1); phase <= 8; phase++ {
		c.clock.set(1, phase-1)
		old = append(old, decoded{1, phase, 0, c.data(1, phase, 0, 12)})
	}
	oldSlots := c.rc.dec.slots
	early := decoded{2, 1, 0, c.data(2, 1, 0, 12)} // a peer restored first
	var fresh []decoded
	c.clock.set(2, 0) // this process restores
	for phase := uint64(1); phase <= 5; phase++ {
		c.clock.set(2, phase-1)
		d := decoded{2, phase, 1, c.data(2, phase, 1, 12)}
		if !d.intact() {
			t.Fatalf("%v decoded wrong", d)
		}
		if inSlot(d.batch, oldSlots) {
			t.Fatalf("%v decoded into the old generation's slots", d)
		}
		fresh = append(fresh, d)
	}
	for _, d := range append(old[len(old)-3:], early) {
		if !d.intact() {
			t.Fatalf("%v changed after the restore", d)
		}
	}
	if inSlot(early.batch, c.rc.dec.slots) {
		t.Fatal("a frame of a generation ahead of the clock decoded into a slot")
	}
	if !inSlot(fresh[len(fresh)-1].batch, c.rc.dec.slots) {
		t.Error("the new generation decodes into no slot")
	}
}

// A connection that feeds no TCP transport — a hub's, a handshake's —
// has no clock, and its Data frames decode into fresh memory.
func TestDecodeWithoutAClockUsesNoSlot(t *testing.T) {
	c := newSlotConn(t)
	c.rc.dec.clock = nil
	var kept []decoded
	for phase := uint64(1); phase <= 6; phase++ {
		kept = append(kept, decoded{1, phase, 0, c.data(1, phase, 0, 6)})
	}
	for _, d := range kept {
		if !d.intact() || inSlot(d.batch, c.rc.dec.slots) {
			t.Fatalf("%v: intact %v, in a slot %v", d, d.intact(), inSlot(d.batch, c.rc.dec.slots))
		}
	}
	if s := c.rc.dec.slots; s[0].rows != nil || s[1].rows != nil || s[2].rows != nil {
		t.Error("a decoder without a clock grew a slot")
	}
}

// A TCP transport's decoders follow its phases: over the relay, each
// phase's replicas stay intact through the two phases after their own,
// and the third refills their slot.
func TestTCPDecodesReplicasIntoSlots(t *testing.T) {
	trs, _, _ := miniCluster(t, 2, 4) // proc0 owns {0,1}, proc1 owns {2,3}
	var got []decoded                 // what partition 0 received, per phase
	for phase := uint64(1); phase <= 9; phase++ {
		for i, tr := range trs {
			m := cluster.Message{From: cluster.NodeID(2 * i), To: cluster.NodeID(2 * (1 - i)), Payload: phaseBatch(1, phase, i, 8)}
			if err := tr.Send(m); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for _, tr := range trs {
			wg.Add(1)
			go func(tr *TCP) {
				defer wg.Done()
				if err := endPhase(tr); err != nil {
					t.Error(err)
				}
			}(tr)
		}
		wg.Wait()
		msgs := trs[0].Drain(0)
		trs[1].Drain(2)
		if len(msgs) != 1 {
			t.Fatalf("phase %d: partition 0 received %d messages, want 1", phase, len(msgs))
		}
		b, _ := batchOf(msgs[0].Payload)
		got = append(got, decoded{1, phase, 1, b})
		for _, d := range got[max(0, len(got)-3):] {
			if !d.intact() {
				t.Fatalf("%v changed once phase %d was delivered", d, phase)
			}
		}
	}
	for p := 3; p < len(got); p++ {
		if got[p].batch[0].A != got[p-3].batch[0].A {
			t.Fatalf("phase %d's replicas did not reuse phase %d's slot", p+1, p-2)
		}
	}
}
