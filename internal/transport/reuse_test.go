package transport

import (
	"reflect"
	"testing"

	"github.com/bigreddata/brace/internal/cluster"
)

// recvNext sends f and reads it back the way a reader loop does
// (Conn.next).
func (c *slotConn) recvNext(f *Frame) *Frame {
	c.t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- c.send.Send(f) }()
	got, _, err := c.rc.next()
	if err == nil {
		err = <-errc
	}
	if err != nil {
		c.t.Fatal(err)
	}
	return got
}

// A reader loop's Data and EndPhase frames decode into one reused Frame,
// and nothing a caller may keep goes with it: the control frames read
// between them on the same Conn stay whole through the later reads, a
// Data frame's message (what TCP.apply files in an inbox) keeps its batch
// through the next phase, and Recv hands out a fresh Frame every time.
func TestReusedFrameKeepsWhatCallersHold(t *testing.T) {
	c := newSlotConn(t)
	c.clock.set(1, 1)
	data := c.recvNext(&Frame{Kind: FrameData, Gen: 1, Phase: 1,
		Msg: cluster.Message{From: 2, To: 3, Tag: 1, Payload: ptr(phaseBatch(1, 1, 0, 6)), Bytes: 6}})
	msg := data.Msg

	wants := []*Frame{
		{Kind: FrameDirective, Gen: 1, Dir: &Directive{Tick: 10, NewCuts: []float64{1.5, 3}, Checkpoint: true}},
		{Kind: FrameFinal, Gen: 1, Final: &FinalReport{Proc: 1, Ticks: 10, Values: phaseBatch(1, 9, 1, 4)}},
		{Kind: FrameCheckpoint, Gen: 1, Ckpt: &CheckpointMsg{Proc: 1, Tick: 10, Parts: []PartState{
			{Part: 2, Full: true, Values: phaseBatch(1, 9, 2, 5)}, {Part: 3, Full: true, Values: phaseBatch(1, 9, 3, 2)}}}},
	}
	var kept []*Frame
	for _, w := range wants {
		kept = append(kept, c.recvNext(w))
	}

	c.clock.set(1, 2)
	next := c.recvNext(&Frame{Kind: FrameData, Gen: 1, Phase: 2,
		Msg: cluster.Message{From: 2, To: 3, Tag: 2, Payload: ptr(phaseBatch(1, 2, 0, 6)), Bytes: 6}})
	msg2 := next.Msg
	end := c.recvNext(&Frame{Kind: FrameEndPhase, Gen: 1, Phase: 2, Dst: 1, Count: 1})
	if next != data || end != data {
		t.Fatal("Data and EndPhase frames did not decode into the connection's one Frame; the test shows nothing")
	}

	for i, w := range wants {
		if kept[i] == data || !sameBits(reflect.ValueOf(kept[i]), reflect.ValueOf(w)) {
			t.Errorf("a kept %v frame changed under later reads: %+v", w.Kind, kept[i])
		}
	}
	if msg.From != 2 || msg.To != 3 || msg.Tag != 1 || msg.Bytes != 6 {
		t.Errorf("the first Data frame's message changed: %+v", msg)
	}
	if b, ok := batchOf(msg.Payload); !ok || !(decoded{1, 1, 0, b}).intact() {
		t.Error("the first Data frame's batch changed within its lifetime")
	}
	if b, ok := batchOf(msg2.Payload); !ok || !(decoded{1, 2, 0, b}).intact() {
		t.Error("the second Data frame's batch changed under the marker's read")
	}

	errc := make(chan error, 2)
	go func() {
		for k := 0; k < 2; k++ {
			errc <- c.send.Send(&Frame{Kind: FrameEndPhase, Gen: 1, Phase: 3})
		}
	}()
	a, errA := c.rc.Recv()
	b, errB := c.rc.Recv()
	if errA != nil || errB != nil || <-errc != nil || <-errc != nil {
		t.Fatal(errA, errB)
	}
	if a == b || a == data || b == data {
		t.Error("Recv handed out a Frame it reuses")
	}
}
