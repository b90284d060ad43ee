package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/cluster"
)

// oneRow is a one-envelope batch whose agent carries v as its ID and its
// one state field.
func oneRow(v float64) []*Envelope {
	return []*Envelope{{A: &agent.Agent{ID: agent.ID(v), State: []float64{v}}}}
}

// encodeFrame is one frame's body, as Send writes it after the length
// prefix.
func encodeFrame(f *Frame) ([]byte, error) {
	var e encoder
	e.frame(f)
	return e.b, e.err
}

var negZero = math.Copysign(0, -1)

// nanPayload is a NaN whose payload bits a float comparison would lose.
var nanPayload = math.Float64frombits(0x7ff8_dead_beef_0001)

// sampleBatch mixes replicas and owned rows, a dead agent, two source
// partitions, a constant column and the float values comparisons lose.
func sampleBatch() []*Envelope {
	return []*Envelope{
		{A: &agent.Agent{ID: 7, State: []float64{1, negZero, nanPayload}, Effect: []float64{0, 1}}, Replica: true, SrcPart: 3},
		{A: &agent.Agent{ID: 9, State: []float64{math.Inf(1), 2, 3}, Effect: []float64{0, 1}, Dead: true}, SrcPart: 3},
		{A: &agent.Agent{ID: 1 << 60, State: []float64{math.Inf(-1), 2, math.NaN()}, Effect: []float64{0, 1}}, Replica: true, SrcPart: -1},
	}
}

// sampleFrames is one frame of every kind with every field its kind
// carries populated.
func sampleFrames() []*Frame {
	hdr := func(k FrameKind) *Frame {
		return &Frame{Kind: k, Src: 2, Gen: 3, Phase: 1 << 40, Dst: -1, Count: 17, Seq: 1<<64 - 1,
			Msg: cluster.Message{From: 4, To: 5, Tag: -6, Bytes: 1 << 33}}
	}
	data := hdr(FrameData)
	data.Msg.Payload = sampleBatch()
	row := hdr(FrameData)
	row.Msg.Payload = oneRow(5)
	empty := hdr(FrameData)
	empty.Msg.Payload = []*Envelope{}
	hello := hdr(FrameHello)
	hello.Hello = &Hello{Proto: ProtoVersion, RunID: "run-1", Proc: 1, NumProcs: 2, Partitions: 4,
		Assign: []int{0, 0, 1, 1}, Gen: 2, LoadBalance: true, Scenario: "fish", Agents: 2000,
		Extent: negZero, Seed: 1<<63 + 5, Ticks: 600, EpochTicks: 3, Index: 1, Peers: []string{"a:1", ""}}
	ack := hdr(FrameAck)
	ack.Err = "refused: ü"
	fail := hdr(FrameError)
	fail.Err = "engine exploded"
	final := hdr(FrameFinal)
	final.Final = &FinalReport{Proc: 1, Ticks: 99, Values: sampleBatch(),
		Net: cluster.NodeMetrics{SentMsgs: 1, SentBytes: 2, RecvMsgs: 3, RecvBytes: 4, LocalMsgs: 5, LocalBytes: -6}}
	noValues := hdr(FrameFinal)
	noValues.Final = &FinalReport{Proc: 1}
	ownedOnly := hdr(FrameFinal)
	ownedOnly.Final = &FinalReport{Proc: 1, Values: sampleBatch()[1:2]}
	stats := hdr(FrameStats)
	stats.Stats = &EpochStats{Proc: 1, Tick: 12, Parts: []PartStats{{Part: 2, Cost: 1 << 40, Xs: []float64{nanPayload, 3}}, {Part: 3}}}
	dir := hdr(FrameDirective)
	dir.Dir = &Directive{Tick: 12, NewCuts: []float64{negZero, 10}, Checkpoint: true, CkptSeq: 4, CkptFull: true}
	ckpt := hdr(FrameCheckpoint)
	ckpt.Ckpt = &CheckpointMsg{Proc: 1, Tick: 12, Parts: []PartState{
		{Part: 2, Full: true, Values: sampleBatch()},
		{Part: 3, Base: 4, Delta: []byte{1, 2, 0, 255}},
		{Part: 4, Full: true, Values: []*Envelope{}},
	}}
	rest := hdr(FrameRestore)
	rest.Rest = &Restore{Gen: 4, Tick: 12, Cuts: []float64{5}, Assign: []int{1, 0}, Live: []bool{true, false, true},
		Parts: []PartState{{Part: 1, Full: true, Values: sampleBatch()}}, CkptSeq: 4, Peers: []string{"x:1", "y:2"}}
	peer := hdr(FramePeerHello)
	peer.Peer = &PeerHello{RunID: "run-1", From: 1, To: 0, Gen: 3}
	reg := hdr(FrameRegister)
	reg.Reg = &Registration{Addr: "127.0.0.1:7101", Sessions: 2, PeerLinks: 5}
	noBody := hdr(FrameRestore)
	return []*Frame{data, row, empty, hdr(FrameEndPhase), hello, ack, fail, final, noValues, ownedOnly,
		stats, dir, ckpt, rest, hdr(FramePing), hdr(FramePong), peer, reg, noBody}
}

// sameBits is reflect.DeepEqual with floats compared bit for bit, so that
// NaN payloads and −0 count as values, and with a nil and an empty
// envelope batch the same value: they share one encoding.
func sameBits(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() || a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() && a.Type() != reflect.TypeOf([]*Envelope(nil)) {
			return false
		}
		fallthrough
	case reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	kinds := map[FrameKind]bool{}
	for _, want := range sampleFrames() {
		kinds[want.Kind] = true
		body, err := encodeFrame(want)
		if err != nil {
			t.Fatalf("%v: encode: %v", want.Kind, err)
		}
		var d decoder
		got, err := decodeFrame(&d, body)
		if err != nil {
			t.Fatalf("%v: decode: %v", want.Kind, err)
		}
		if !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Errorf("%v frame changed on the wire:\n got %+v\nwant %+v", want.Kind, got, want)
		}
	}
	for k := FrameHello; k <= FrameRegister; k++ {
		if !kinds[k] {
			t.Errorf("no sample %v frame", k)
		}
	}
}

// A decoded batch puts its replicas in one block of envelope rows and one
// of floats, and its owned rows in another pair, with every vector
// capped.
func TestBlockSeparatesOwnedFromReplicas(t *testing.T) {
	body, err := encodeFrame(sampleFrames()[0])
	if err != nil {
		t.Fatal(err)
	}
	var d decoder
	f, err := decodeFrame(&d, body)
	if err != nil {
		t.Fatal(err)
	}
	b := f.Msg.Payload.([]*Envelope) // replica, owned, replica
	addr := func(p any) uintptr { return reflect.ValueOf(p).Pointer() }
	within := func(p, lo uintptr, n int) bool { return p >= lo && p < lo+uintptr(n) }
	rowSize := int(unsafe.Sizeof(envRow{}))
	if addr(b[2])-addr(b[0]) != uintptr(rowSize) || addr(b[2].A)-addr(b[0].A) != uintptr(rowSize) {
		t.Error("the replicas' envelopes and agents are not one block")
	}
	if within(addr(b[1]), addr(b[0]), 2*rowSize) || within(addr(b[1].A), addr(b[0].A), 2*rowSize) {
		t.Error("the owned envelope sits in the replicas' block")
	}
	if addr(b[2].A.State) != addr(b[0].A.State)+5*8 {
		t.Error("the replicas' vectors are not one block")
	}
	if within(addr(b[1].A.State), addr(b[0].A.State), 10*8) {
		t.Error("the owned agent's vectors sit in the replicas' block")
	}
	for _, e := range b {
		if cap(e.A.State) != len(e.A.State) || cap(e.A.Effect) != len(e.A.Effect) {
			t.Fatal("decoded vectors are not capped")
		}
	}
}

// A nil and an empty batch have one encoding, in every field that carries
// a batch, and it decodes as an empty batch, never nil.
func TestNilAndEmptyBatchEncodeAlike(t *testing.T) {
	frames := func(batch []*Envelope) []*Frame {
		return []*Frame{
			{Kind: FrameData, Msg: cluster.Message{Payload: batch}},
			{Kind: FrameFinal, Final: &FinalReport{Proc: 1, Values: batch}},
			{Kind: FrameCheckpoint, Ckpt: &CheckpointMsg{Parts: []PartState{{Part: 2, Values: batch}}}},
		}
	}
	nils, empties := frames(nil), frames([]*Envelope{})
	for i := range nils {
		a, errA := encodeFrame(nils[i])
		b, errB := encodeFrame(empties[i])
		if errA != nil || errB != nil {
			t.Fatalf("%v: encode: %v, %v", nils[i].Kind, errA, errB)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%v: a nil batch encodes as %x, an empty one as %x", nils[i].Kind, a, b)
		}
		var d decoder
		f, err := decodeFrame(&d, a)
		if err != nil {
			t.Fatalf("%v: decode: %v", nils[i].Kind, err)
		}
		var got []*Envelope
		switch f.Kind {
		case FrameData:
			got = f.Msg.Payload.([]*Envelope)
		case FrameFinal:
			got = f.Final.Values
		default:
			got = f.Ckpt.Parts[0].Values
		}
		if got == nil || len(got) != 0 {
			t.Errorf("%v: the batch decoded as %#v, want an empty batch", f.Kind, got)
		}
	}
}

func TestEncodeRefusesWhatItCannotCarry(t *testing.T) {
	for name, f := range map[string]*Frame{
		"unknown kind": {Kind: 0},
		"ragged block": {Kind: FrameData, Msg: cluster.Message{Payload: []*Envelope{
			{A: &agent.Agent{ID: 1, State: []float64{1}}}, {A: &agent.Agent{ID: 2, State: []float64{1, 2}}}}}},
		"nil agent":    {Kind: FrameData, Msg: cluster.Message{Payload: []*Envelope{{}}}},
		"nil envelope": {Kind: FrameFinal, Final: &FinalReport{Values: []*Envelope{nil}}},
		"wide block": {Kind: FrameData, Msg: cluster.Message{Payload: []*Envelope{
			{A: &agent.Agent{ID: 1, State: make([]float64, maxBlockWidth+1)}}}}},
	} {
		if _, err := encodeFrame(f); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}

// Over TCP a Data frame carries an envelope batch and nothing else. Any
// other payload fails at Send, and no bytes reach the connection, whether
// it is sent through the transport or a bare Conn.
func TestSendRefusesNonEnvelopePayload(t *testing.T) {
	tr, coord := directPair(t, 1, 2, 2, []int{0, 1})
	for _, payload := range []any{nil, []float64{1}, "text", []Envelope{}} {
		if err := tr.Send(cluster.Message{From: 1, To: 0, Tag: 1, Payload: payload, Bytes: 8}); err == nil {
			t.Errorf("Send of a %T payload succeeded", payload)
		}
	}
	if err := tr.Send(cluster.Message{From: 1, To: 0, Tag: 2, Payload: oneRow(2), Bytes: 8}); err != nil {
		t.Fatal(err)
	}
	if f := recvWithin(t, coord, 5*time.Second); f == nil || f.Kind != FrameData || f.Msg.Tag != 2 {
		t.Fatalf("the coordinator's first frame is %+v, want the envelope batch", f)
	}

	// net.Pipe is unbuffered and nothing reads w: a Send that wrote a
	// byte would block.
	c, w := net.Pipe()
	defer c.Close()
	defer w.Close()
	if err := NewConn(c).Send(&Frame{Kind: FrameData, Msg: cluster.Message{Payload: []float64{1}}}); err == nil {
		t.Error("Conn.Send of a []float64 payload succeeded")
	}
}

// v11Body is a v11 binary's Data frame: the v12 encoding of an envelope
// batch with the payload's old codec tag (1, the engine's) in front.
func v11Body(t testing.TB) []byte {
	body, err := encodeFrame(sampleFrames()[0])
	if err != nil {
		t.Fatal(err)
	}
	return slices.Insert(body, frameHeaderLen, 1)
}

// Every truncation of every sample frame, a few corrupted bytes and a v11
// peer's Data frame are refused with a *ProtocolError.
func TestDecodeRefusesMalformedFrames(t *testing.T) {
	for _, f := range sampleFrames() {
		body, err := encodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(body); n++ {
			var d decoder
			if _, err := decodeFrame(&d, body[:n]); !isProtocolError(err) {
				t.Fatalf("%v cut at %d of %d bytes: %v", f.Kind, n, len(body), err)
			}
		}
		var d decoder
		if _, err := decodeFrame(&d, append(body, 0)); !isProtocolError(err) {
			t.Fatalf("%v with a trailing byte: %v", f.Kind, err)
		}
	}
	body, _ := encodeFrame(sampleFrames()[0])
	// sampleBatch's flags column, after the count, the two widths and
	// three IDs: a mode byte, then one byte a row.
	flags := frameHeaderLen + 4 + 2 + 3*8
	for name, mut := range map[string]func() []byte{
		"unknown kind":     func() []byte { b := slices.Clone(body); b[0] = 200; return b },
		"count too large":  func() []byte { b := slices.Clone(body); b[frameHeaderLen+3] = 0xff; return b },
		"unknown row flag": func() []byte { b := slices.Clone(body); b[flags+1] = 0x80; return b },
		"unknown mode":     func() []byte { b := slices.Clone(body); b[flags] = 7; return b },
		"v11 Data frame":   func() []byte { return v11Body(t) },
	} {
		var d decoder
		if _, err := decodeFrame(&d, mut()); !isProtocolError(err) {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// frameHeaderLen is the fixed header's size: kind, then ten 8- or 4-byte
// numbers.
const frameHeaderLen = 1 + 8*9 + 4

func isProtocolError(err error) bool {
	var pe *ProtocolError
	return errors.As(err, &pe)
}

// A length prefix that claims far more than the peer sends costs the
// receiver about what was sent, not the claimed size.
func TestLyingLengthPrefixCostsWhatWasSent(t *testing.T) {
	c, w := net.Pipe()
	defer c.Close()
	fc := NewConn(c)
	go func() {
		var msg [14]byte
		binary.BigEndian.PutUint32(msg[:4], 1<<30) // 1 GiB claimed, 10 bytes sent
		w.Write(msg[:])
		w.Close()
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := fc.Recv()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Recv = %v, want a short-frame error", err)
	}
	if allocated := after.TotalAlloc - before.TotalAlloc; allocated > 1<<20 {
		t.Errorf("a 10-byte frame claiming 1 GiB allocated %d bytes", allocated)
	}
}

// readBody grows its buffer across many steps for a frame far larger than
// its first chunk, and keeps it for the next frame.
func TestLargeFrameCrossesChunks(t *testing.T) {
	coord, worker := connPair(t)
	batch := make([]*Envelope, 3*recvChunk/40) // 40 bytes a row: ID and 4 state fields
	for i := range batch {
		x := float64(i)
		batch[i] = &Envelope{A: &agent.Agent{ID: agent.ID(i), State: []float64{x, -x, x / 2, x * x}}}
	}
	f := &Frame{Kind: FrameData, Msg: cluster.Message{Payload: batch}}
	for i := 0; i < 2; i++ {
		go worker.Send(f)
		got := recvWithin(t, coord, 5*time.Second)
		if got == nil || !sameBits(reflect.ValueOf(got.Msg.Payload), reflect.ValueOf(any(batch))) {
			t.Fatalf("round %d: large payload did not survive", i)
		}
	}
}

// FuzzDecodeFrame feeds arbitrary bytes to the frame decoder as a peer's
// frame body. It must refuse them with a *ProtocolError or return a
// frame that encodes back to exactly those bytes; it must never panic,
// and it must allocate no more than a constant factor of the input.
func FuzzDecodeFrame(f *testing.F) {
	for _, fr := range sampleFrames() {
		body, err := encodeFrame(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	// A v10 peer's gob stream starts somewhere else entirely; a v11
	// peer's Data frame has a codec tag before its batch.
	f.Add([]byte{0x3f, 0xff, 0x81, 0x03, 0x01, 0x01, 0x05, 'F', 'r', 'a', 'm', 'e'})
	f.Add(v11Body(f))
	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		var d decoder
		runtime.ReadMemStats(&before)
		fr, err := decodeFrame(&d, body)
		runtime.ReadMemStats(&after)
		// A block row of 8 ID bytes may fan out into an agent with
		// 2·maxBlockWidth floats.
		if allocated, limit := after.TotalAlloc-before.TotalAlloc, 64<<10+(600*uint64(len(body))); allocated > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(body), allocated, limit)
		}
		if err != nil {
			if !isProtocolError(err) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		again, err := encodeFrame(fr)
		if err != nil {
			t.Fatalf("decoded frame does not encode: %v", err)
		}
		if !bytes.Equal(again, body) {
			t.Fatalf("decoded frame re-encodes to different bytes:\n in %x\nout %x", body, again)
		}
	})
}
