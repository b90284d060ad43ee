package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/bigreddata/brace/internal/agent"
)

// Envelope is the one record BRACE's dataflow moves between nodes: an
// agent copy plus routing metadata (App. A). Between ticks only owned
// copies exist; during a tick the map task adds replicas for every
// partition whose visible region contains the agent. Batches of them are
// the wire's one payload type: a Data frame's Message.Payload,
// PartState.Values and FinalReport.Values each travel as one column block.
type Envelope struct {
	A *agent.Agent
	// Replica marks copies distributed for reading (and, in non-local
	// mode, for collecting partial effect aggregates); the one non-replica
	// copy per agent carries the authoritative state.
	Replica bool
	// SrcPart is the partition that produced this record. reduce₂ folds
	// partial aggregates in ascending SrcPart order, making the global ⊕
	// deterministic for a fixed partitioning.
	SrcPart int32
}

// encoder appends a frame to a byte slice: fixed-width little-endian
// numbers, u32-length-prefixed strings and slices, column blocks. Errors
// are sticky: after the first, writes are no-ops and the frame is not sent.
type encoder struct {
	b   []byte
	err error
	// envelopes' scratch, kept with the pooled buffer: the column being
	// written.
	col []uint64
}

// fail records err as the encoding's outcome unless one is already set.
func (e *encoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

func (e *encoder) u8(v uint8) { e.b = append(e.b, v) }

func (e *encoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *encoder) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *encoder) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *encoder) int(v int)    { e.u64(uint64(int64(v))) }
func (e *encoder) f64(v float64) {
	e.u64(math.Float64bits(v))
}

// count writes a slice or string length, refusing one the decoder's u32
// could not carry.
func (e *encoder) count(n int) {
	if n > math.MaxUint32 {
		e.fail(fmt.Errorf("transport: %d elements exceed the wire's u32 count", n))
	}
	e.u32(uint32(n))
}

func (e *encoder) str(s string) {
	e.count(len(s))
	e.b = append(e.b, s...)
}

func (e *encoder) bytes(v []byte) {
	e.count(len(v))
	e.b = append(e.b, v...)
}

func (e *encoder) ints(v []int) {
	e.count(len(v))
	for _, x := range v {
		e.int(x)
	}
}

func (e *encoder) strs(v []string) {
	e.count(len(v))
	for _, s := range v {
		e.str(s)
	}
}

// floats writes a length-prefixed float vector, bit for bit.
func (e *encoder) floats(v []float64) {
	e.count(len(v))
	for _, x := range v {
		e.f64(x)
	}
}

// Column block layout constants. A column's mode byte says whether its
// rows all hold one bit pattern, sent once (colConst), or travel in full.
const (
	colConst uint8 = 0
	colFull  uint8 = 1

	flagReplica = 1 << 0
	flagDead    = 1 << 1

	// maxBlockWidth bounds a block's state and effect widths (each is one
	// byte on the wire). It also bounds how many values one decoded ID
	// can fan out to, keeping a block's allocation linear in its bytes.
	maxBlockWidth = math.MaxUint8
)

// envelopes writes a batch as one column block: the row count and the
// state and effect widths; the ID column; the flags column (replica,
// dead); the SrcPart column; one little-endian float64 column per state
// field, then one per effect field. A column other than the IDs whose
// rows are all bit-identical travels as one value — effects are the
// identity after every update, so at map time and at barriers the effect
// columns cost a few bytes each. Every agent must have the same state and
// effect widths. A batch of no rows, nil or empty, is its count alone.
func (e *encoder) envelopes(batch []*Envelope) {
	n := len(batch)
	e.count(n)
	if n == 0 {
		return
	}
	// One pass over the rows gathers the flags and sources; each float
	// column is then gathered into e.col in turn.
	col := slices.Grow(e.col[:0], 2*n)[:2*n]
	e.col = col
	for i, x := range batch {
		if x == nil || x.A == nil {
			e.fail(fmt.Errorf("transport: envelope %d has no agent", i))
			return
		}
		var flags uint64
		if x.Replica {
			flags |= flagReplica
		}
		if x.A.Dead {
			flags |= flagDead
		}
		col[i], col[n+i] = flags, uint64(uint32(x.SrcPart))
	}
	ns, ne := len(batch[0].A.State), len(batch[0].A.Effect)
	if ns > maxBlockWidth || ne > maxBlockWidth {
		e.fail(fmt.Errorf("transport: %d state and %d effect fields exceed the block's %d", ns, ne, maxBlockWidth))
		return
	}
	for _, x := range batch {
		if a := x.A; len(a.State) != ns || len(a.Effect) != ne {
			e.fail(fmt.Errorf("transport: agent %d has %d state and %d effect fields, the block %d and %d",
				a.ID, len(a.State), len(a.Effect), ns, ne))
			return
		}
	}
	e.u8(uint8(ns))
	e.u8(uint8(ne))
	at := len(e.b)
	e.b = slices.Grow(e.b, 8*n)[:at+8*n]
	for i, x := range batch {
		binary.LittleEndian.PutUint64(e.b[at+8*i:], uint64(x.A.ID))
	}
	e.column(col[:n], 1)
	e.column(col[n:], 4)
	col = col[:n]
	for j := 0; j < ns; j++ {
		for i, x := range batch {
			col[i] = math.Float64bits(x.A.State[j])
		}
		e.column(col, 8)
	}
	for j := 0; j < ne; j++ {
		for i, x := range batch {
			col[i] = math.Float64bits(x.A.Effect[j])
		}
		e.column(col, 8)
	}
}

// column writes one column of width-byte values: a mode byte, then one
// value if all are equal, else every value.
func (e *encoder) column(vals []uint64, width int) {
	same := true
	for _, v := range vals[1:] {
		if v != vals[0] {
			same = false
			break
		}
	}
	if same {
		e.u8(colConst)
		switch width {
		case 1:
			e.u8(uint8(vals[0]))
		case 4:
			e.u32(uint32(vals[0]))
		default:
			e.u64(vals[0])
		}
		return
	}
	e.u8(colFull)
	at := len(e.b)
	e.b = slices.Grow(e.b, width*len(vals))[:at+width*len(vals)]
	col := e.b[at:]
	switch width {
	case 1:
		for i, v := range vals {
			col[i] = uint8(v)
		}
	case 4:
		for i, v := range vals {
			binary.LittleEndian.PutUint32(col[4*i:], uint32(v))
		}
	default:
		for i, v := range vals {
			binary.LittleEndian.PutUint64(col[8*i:], v)
		}
	}
}

// decoder reads a frame out of its body with bounds checks on every
// read: a truncated or lying field becomes a *ProtocolError, never a
// panic, and every count is checked against the bytes left before
// anything is allocated for it. Errors are sticky: after the first,
// reads return zero values.
type decoder struct {
	b    []byte
	off  int
	err  error
	kind FrameKind
	// envelopes' per-frame scratch, kept with the connection: place[i]
	// places row i, as index k into the replica block or ^k into the
	// owned one.
	place []int32
	// slots hold the replica memory of the last three phases' Data
	// frames, slot phase mod 3, for a decoder whose connection feeds a TCP
	// transport; clock is that transport's flushed (gen, phase), nil on
	// any other connection, whose frames all decode into fresh memory.
	slots [3]decodeSlot
	clock *phaseClock
}

// phaseClock is the (generation, phase) a TCP transport's FlushPhase last
// reached: every phase up to it has finished computing in this process.
// Its decoders read it to tell when a slot's replicas can have no reader
// left.
type phaseClock struct {
	mu    sync.Mutex
	gen   int
	phase uint64
}

func (c *phaseClock) set(gen int, phase uint64) {
	c.mu.Lock()
	c.gen, c.phase = gen, phase
	c.mu.Unlock()
}

func (c *phaseClock) get() (gen int, phase uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen, c.phase
}

// decodeSlot is the reused memory for one phase's replica rows on one
// connection: the rows, their floats and the batch slices of every Data
// frame of (gen, phase). Each array grows to the phase's high-water mark,
// by at least a quarter and otherwise to exactly what the phase needs, so
// in steady state a Data frame's replicas allocate nothing.
type decodeSlot struct {
	gen    int
	phase  uint64
	rows   []envRow
	floats []float64
	batch  []*Envelope
	// How much of each array the slot's phase has used.
	nRows, nFloats, nBatch int
}

// slotFor returns the slot a Data frame of (gen, phase) decodes its
// replicas into, or nil for fresh memory.
//
// A replica decoded in phase p is read until this process's compute of
// phase p+1 — or p+2, when reduce₂ folds a partial a co-resident reduce₁
// forwarded — has finished, so a slot keyed (gen, p) may be refilled by
// phase p+3 once the clock shows phase p+2 flushed. A peer sends phase
// p+3 only after it has seen this process's p+2 marker, which goes out
// after that flush, so every frame of the current generation passes the
// clock's test; a frame that fails it — of another generation, or of a
// phase the clock has not reached — decodes into fresh memory. So does a
// frame older than its slot's (a relayed duplicate): the slot's rows may
// still be read. A new generation's first frame leaves the old
// generation's arrays to whoever still holds them.
func (d *decoder) slotFor(gen int, phase uint64) *decodeSlot {
	if d.clock == nil {
		return nil
	}
	if g, flushed := d.clock.get(); gen != g || phase > flushed+1 {
		return nil
	}
	s := &d.slots[phase%uint64(len(d.slots))]
	switch {
	case s.gen != gen:
		*s = decodeSlot{gen: gen, phase: phase}
	case phase < s.phase:
		return nil
	case phase > s.phase:
		s.phase = phase
		s.nRows, s.nFloats, s.nBatch = 0, 0, 0
	}
	return s
}

// grab returns the next n values of *buf after the *used its phase has
// taken, capped. When they do not fit, *buf becomes a new array of at
// least 1.25× the old length: the values already handed out stay where
// they are, in the old array, and the new one is used from *used on.
func grab[T any](buf *[]T, used *int, n int) []T {
	need := *used + n
	if need > len(*buf) {
		*buf = make([]T, max(need, len(*buf)+len(*buf)/4))
	}
	v := (*buf)[*used:need:need]
	*used = need
	return v
}

// fail records a decoding error for the frame being read unless one is
// already set; the frame is then refused with a *ProtocolError.
func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = &ProtocolError{Kind: d.kind, Where: "frame decoder", Reason: fmt.Sprintf(format, args...)}
	}
}

// take returns the next n body bytes, or nil after failing the frame.
func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b)-d.off {
		d.fail("truncated at byte %d (want %d more, %d left)", d.off, n, len(d.b)-d.off)
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

func (d *decoder) u8() uint8 {
	if v := d.take(1); v != nil {
		return v[0]
	}
	return 0
}

func (d *decoder) bool() bool {
	switch v := d.u8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bool byte %d", v)
		return false
	}
}

func (d *decoder) u32() uint32 {
	if v := d.take(4); v != nil {
		return binary.LittleEndian.Uint32(v)
	}
	return 0
}

func (d *decoder) u64() uint64 {
	if v := d.take(8); v != nil {
		return binary.LittleEndian.Uint64(v)
	}
	return 0
}

func (d *decoder) int() int     { return int(int64(d.u64())) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

// count reads a length whose elements take at least min bytes each on
// the wire, failing the frame if the body cannot hold that many.
func (d *decoder) count(min int) int {
	n := int(d.u32())
	if d.err == nil && n*min > len(d.b)-d.off {
		d.fail("count %d of %d-byte elements exceeds the %d bytes left", n, min, len(d.b)-d.off)
		return 0
	}
	return n
}

func (d *decoder) str() string { return string(d.take(d.count(1))) }

// bytes reads a byte string; empty ones decode as nil.
func (d *decoder) bytes() []byte {
	v := d.take(d.count(1))
	if len(v) == 0 {
		return nil
	}
	return append([]byte(nil), v...)
}

func (d *decoder) ints() []int {
	n := d.count(8)
	if n == 0 {
		return nil
	}
	v := make([]int, n)
	for i := range v {
		v[i] = d.int()
	}
	return v
}

func (d *decoder) strs() []string {
	n := d.count(4)
	if n == 0 {
		return nil
	}
	v := make([]string, n)
	for i := range v {
		v[i] = d.str()
	}
	return v
}

// floats reads a vector encoder.floats wrote; an empty one decodes as
// nil.
func (d *decoder) floats() []float64 {
	n := d.count(8)
	if n == 0 || d.err != nil {
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = d.f64()
	}
	return v
}

// envRow is one decoded envelope and the agent it points to, so that a
// block of rows is one allocation.
type envRow struct {
	env Envelope
	a   agent.Agent
}

// column views one fixed-width column of a block in the frame body.
type column struct {
	raw   []byte
	width int
	full  bool
}

func (c column) at(i int) uint64 {
	v := c.raw
	if c.full {
		v = v[i*c.width : (i+1)*c.width]
	}
	switch c.width {
	case 1:
		return uint64(v[0])
	case 4:
		return uint64(binary.LittleEndian.Uint32(v))
	default:
		return binary.LittleEndian.Uint64(v)
	}
}

// column reads one column's mode byte and values. encoder.envelopes
// writes a column in full only when its rows differ, so a full column
// whose rows are all equal is refused: every accepted block re-encodes to
// its bytes.
func (d *decoder) column(n, width int) column {
	mode := d.u8()
	switch {
	case d.err != nil:
		return column{}
	case mode == colConst:
		return column{raw: d.take(width), width: width}
	case mode != colFull:
		d.fail("column mode %d", mode)
		return column{}
	}
	c := column{raw: d.take(n * width), width: width, full: true}
	if d.err == nil {
		same := true
		for i := 1; i < n && same; i++ {
			same = c.at(i) == c.at(0)
		}
		if same {
			d.fail("constant column of %d rows sent in full", n)
		}
	}
	return c
}

// envelopes reads a batch encoder.envelopes wrote. Its rows come from two
// blocks of memory — one []envRow and one []float64 for the replicas, the
// same again for the owned rows — so a long-lived owned envelope (a
// migrant, a checkpoint or final value) never pins a frame's worth of
// replicas. Every vector is capped, so an append through one cannot spill
// into its neighbour, and nothing aliases the frame body. A block of no
// rows decodes as an empty batch, never nil.
//
// With a slot (a Data frame on a TCP transport's connection, slotFor), the
// replica rows, their floats and the batch slice come from the slot's
// arrays; the owned rows are fresh memory all the same.
func (d *decoder) envelopes(slot *decodeSlot) []*Envelope {
	n := d.count(8) // the ID column alone is 8 bytes a row
	if n == 0 {
		return []*Envelope{}
	}
	ns, ne := int(d.u8()), int(d.u8())
	ids := d.take(8 * n)
	flags := d.column(n, 1)
	srcs := d.column(n, 4)
	if d.err != nil {
		return nil
	}
	place := d.place[:0]
	var replicas, owned int32
	for i := 0; i < n; i++ {
		f := uint8(flags.at(i))
		switch {
		case f&^(flagReplica|flagDead) != 0:
			d.fail("row %d flags %#x", i, f)
			return nil
		case f&flagReplica != 0:
			place = append(place, replicas)
			replicas++
		default:
			place = append(place, ^owned)
			owned++
		}
	}
	d.place = place
	// Row i's vector is its block's floats [k·w, (k+1)·w), state then
	// effect.
	w := ns + ne
	own := make([]envRow, owned)
	var rep []envRow
	var repf, ownf []float64
	var out []*Envelope
	if slot != nil {
		rep = grab(&slot.rows, &slot.nRows, int(replicas))
		repf = grab(&slot.floats, &slot.nFloats, w*int(replicas))
		out = grab(&slot.batch, &slot.nBatch, n)
	} else {
		rep, repf, out = make([]envRow, replicas), make([]float64, w*int(replicas)), make([]*Envelope, n)
	}
	if w > 0 {
		ownf = make([]float64, w*int(owned))
	}
	for i, k := range place {
		rows, fl := rep, repf
		if k < 0 {
			k, rows, fl = ^k, own, ownf
		}
		r, f := &rows[k], uint8(flags.at(i))
		r.a = agent.Agent{ID: agent.ID(binary.LittleEndian.Uint64(ids[8*i:])), Dead: f&flagDead != 0}
		at := int(k) * w
		if ns > 0 {
			r.a.State = fl[at : at+ns : at+ns]
		}
		if ne > 0 {
			r.a.Effect = fl[at+ns : at+w : at+w]
		}
		r.env = Envelope{A: &r.a, Replica: f&flagReplica != 0, SrcPart: int32(uint32(srcs.at(i)))}
		out[i] = &r.env
	}
	for j := 0; j < w; j++ {
		c := d.column(n, 8)
		if d.err != nil {
			return nil
		}
		if !c.full {
			v := math.Float64frombits(binary.LittleEndian.Uint64(c.raw))
			for i := j; i < len(repf); i += w {
				repf[i] = v
			}
			for i := j; i < len(ownf); i += w {
				ownf[i] = v
			}
			continue
		}
		for i, k := range place {
			v := math.Float64frombits(binary.LittleEndian.Uint64(c.raw[8*i:]))
			if k >= 0 {
				repf[int(k)*w+j] = v
			} else {
				ownf[int(^k)*w+j] = v
			}
		}
	}
	return out
}
