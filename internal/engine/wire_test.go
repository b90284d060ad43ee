package engine

import (
	"bytes"
	"math"
	"net"
	"testing"
	"time"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/cluster"
	"github.com/bigreddata/brace/internal/transport"
)

// memConn is a net.Conn over an in-memory buffer: what one Conn sends,
// the same Conn receives.
type memConn struct{ bytes.Buffer }

func (*memConn) Close() error                     { return nil }
func (*memConn) LocalAddr() net.Addr              { return nil }
func (*memConn) RemoteAddr() net.Addr             { return nil }
func (*memConn) SetDeadline(time.Time) error      { return nil }
func (*memConn) SetReadDeadline(time.Time) error  { return nil }
func (*memConn) SetWriteDeadline(time.Time) error { return nil }

// arenaBatch is a map phase's batch to one neighbour: n replicas from a
// worker's arena, as mapPhase emits them, and a few owned migrants. The
// state is a fish's (6 fields), the effects the identity (4 fields).
func arenaBatch(ar *replicaArena, n int, seed float64) []*Envelope {
	batch := make([]*Envelope, 0, n)
	for i := 0; i < n; i++ {
		a := &agent.Agent{ID: agent.ID(1000 + i),
			State:  []float64{seed + float64(i), seed - float64(i), 0.5, -0.25, float64(i % 3), 1},
			Effect: []float64{0, 0, 0, 1}}
		if i%25 == 0 {
			batch = append(batch, &Envelope{A: a, SrcPart: 3}) // a migrant
			continue
		}
		batch = append(batch, ar.replica(a, ar.snapshot(a), 3, nil))
	}
	return batch
}

func dataFrame(batch []*Envelope) *transport.Frame {
	return &transport.Frame{Kind: transport.FrameData, Src: 0, Gen: 1, Phase: 1, Dst: 1, Seq: 1,
		Msg: cluster.Message{From: 3, To: 4, Tag: 1, Payload: batch, Bytes: len(batch) * 88}}
}

func recvBatch(t *testing.T, conn *transport.Conn) []*Envelope {
	t.Helper()
	f, _, err := conn.RecvSized()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := f.Msg.Payload.(*[]*Envelope)
	if !ok || got == nil {
		t.Fatalf("payload decoded as %T", f.Msg.Payload)
	}
	return *got
}

// Envelope batches cross the wire bit for bit: replicas and owned rows
// mixed, dead agents, several source partitions, NaN payloads, −0 and
// infinities; an empty batch stays an empty batch.
func TestEnvelopeBatchRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff0_0000_0000_0bad)
	negZero := math.Copysign(0, -1)
	batch := []*Envelope{
		env(5, []float64{1, nan, negZero}, []float64{0, 2}, false, true, 1),
		env(6, []float64{math.Inf(1), 2, 3}, []float64{0, 2}, true, false, 2),
		env(1<<62, []float64{math.Inf(-1), 2, 3}, []float64{0, 3}, false, true, 1),
	}
	conn := transport.NewConn(&memConn{})
	for _, b := range [][]*Envelope{batch, {}} {
		if err := conn.Send(dataFrame(b)); err != nil {
			t.Fatal(err)
		}
		got := recvBatch(t, conn)
		if got == nil {
			t.Fatal("an empty batch decoded as nil")
		}
		envsEqual(t, b, got)
	}
}

// Send encodes the whole batch before it returns: the map phase refills
// its replica arena next tick, overwriting every replica it sent, and
// the receiver must still see the values as they were at Send.
func TestSendCopiesBatchBeforeReturning(t *testing.T) {
	var ar replicaArena
	batch := arenaBatch(&ar, 250, 7)
	want := CloneEnvelopes(batch)
	conn := transport.NewConn(&memConn{})
	if err := conn.Send(dataFrame(batch)); err != nil {
		t.Fatal(err)
	}
	ar.reset()
	arenaBatch(&ar, 250, -99) // the next map phase reuses every slot
	for _, e := range batch {
		e.A.State[0], e.A.Effect[0], e.SrcPart = -1, -1, -1
	}
	envsEqual(t, want, recvBatch(t, conn))
}

// blockBytes is the size of envs' rows on the wire: a frame carrying them
// less the same frame carrying an empty batch.
func blockBytes(t *testing.T, envs []*Envelope) int {
	t.Helper()
	conn := transport.NewConn(&memConn{})
	size := func(batch []*Envelope) int {
		if err := conn.Send(dataFrame(batch)); err != nil {
			t.Fatal(err)
		}
		_, n, err := conn.RecvSized()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	return size(envs) - size(nil)
}
