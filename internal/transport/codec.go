package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/bigreddata/brace/internal/agent"
)

// Codec carries one concrete type through a frame's interface-typed
// fields: Message.Payload, PartState.Values and FinalReport.Values. A
// value whose type no registered codec claims cannot be sent.
type Codec interface {
	// Append writes v to e and reports whether v has this codec's type.
	Append(e *Encoder, v any) bool
	// Read decodes one value Append wrote. It must copy what it keeps:
	// the decoder's bytes are the connection's reused frame buffer.
	Read(d *Decoder) (any, error)
}

var (
	codecMu sync.RWMutex
	codecs  [256]Codec // by wire tag; tag 0 is the nil value
)

// RegisterCodec installs c under a wire tag in 1–255. The package owning
// a payload type registers it from an init function: internal/engine
// registers its envelope batches, which this package cannot import.
// Registering a tag twice panics.
func RegisterCodec(tag uint8, c Codec) {
	codecMu.Lock()
	defer codecMu.Unlock()
	if tag == 0 || codecs[tag] != nil {
		panic(fmt.Sprintf("transport: codec tag %d is reserved or taken", tag))
	}
	codecs[tag] = c
}

func codecFor(tag uint8) Codec {
	codecMu.RLock()
	defer codecMu.RUnlock()
	return codecs[tag]
}

// Encoder appends a frame to a byte slice: fixed-width little-endian
// numbers, u32-length-prefixed strings and slices, column blocks. Errors
// are sticky: after the first, writes are no-ops and the frame is not sent.
type Encoder struct {
	b   []byte
	err error
	// Block's scratch, kept with the pooled buffer: a block's agents and
	// the column being written.
	rows []*agent.Agent
	col  []uint64
}

// fail records err as the encoding's outcome unless one is already set.
func (e *Encoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

func (e *Encoder) u8(v uint8) { e.b = append(e.b, v) }

func (e *Encoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *Encoder) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *Encoder) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *Encoder) int(v int)    { e.u64(uint64(int64(v))) }
func (e *Encoder) f64(v float64) {
	e.u64(math.Float64bits(v))
}

// count writes a slice or string length, refusing one the decoder's u32
// could not carry.
func (e *Encoder) count(n int) {
	if n > math.MaxUint32 {
		e.fail(fmt.Errorf("transport: %d elements exceed the wire's u32 count", n))
	}
	e.u32(uint32(n))
}

func (e *Encoder) str(s string) {
	e.count(len(s))
	e.b = append(e.b, s...)
}

func (e *Encoder) bytes(v []byte) {
	e.count(len(v))
	e.b = append(e.b, v...)
}

func (e *Encoder) ints(v []int) {
	e.count(len(v))
	for _, x := range v {
		e.int(x)
	}
}

func (e *Encoder) strs(v []string) {
	e.count(len(v))
	for _, s := range v {
		e.str(s)
	}
}

// floats writes a length-prefixed float vector, bit for bit.
func (e *Encoder) floats(v []float64) {
	e.count(len(v))
	for _, x := range v {
		e.f64(x)
	}
}

// value writes an interface-typed field: tag 0 for nil, otherwise the tag
// of the registered codec that claims v, then its encoding.
func (e *Encoder) value(v any) {
	if v == nil {
		e.u8(0)
		return
	}
	codecMu.RLock()
	defer codecMu.RUnlock()
	for tag, c := range codecs {
		if c == nil {
			continue
		}
		at := len(e.b)
		e.u8(uint8(tag))
		if c.Append(e, v) {
			return
		}
		e.b = e.b[:at]
	}
	e.fail(fmt.Errorf("transport: no codec registered for %T", v))
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

// Block writes n envelopes as one column block: the row count and the
// state and effect widths; the ID column; the flags column (replica,
// dead); the SrcPart column; one little-endian float64 column per state
// field, then one per effect field. A column other than the IDs whose
// rows are all bit-identical travels as one value — effects are the
// identity after every update, so at map time and at barriers the effect
// columns cost a few bytes each. row(i) returns envelope i's agent,
// replica flag and source partition; every agent must have the same
// state and effect widths.
func (e *Encoder) Block(n int, row func(i int) (a *agent.Agent, replica bool, src int32)) {
	e.count(n)
	if n == 0 {
		e.u8(0)
		e.u8(0)
		return
	}
	// One pass over the rows gathers the agents, flags and sources;
	// each float column is then gathered into e.col in turn.
	rows := e.rows[:0]
	col := slices.Grow(e.col[:0], 2*n)[:2*n]
	for i := 0; i < n; i++ {
		a, replica, src := row(i)
		if a == nil {
			clear(rows)
			e.fail(fmt.Errorf("transport: block row %d has no agent", i))
			return
		}
		var flags uint64
		if replica {
			flags |= flagReplica
		}
		if a.Dead {
			flags |= flagDead
		}
		col[i], col[n+i] = flags, uint64(uint32(src))
		rows = append(rows, a)
	}
	e.rows, e.col = rows, col
	defer clear(rows) // the pooled scratch must not pin the batch's agents
	ns, ne := len(rows[0].State), len(rows[0].Effect)
	if ns > maxBlockWidth || ne > maxBlockWidth {
		e.fail(fmt.Errorf("transport: %d state and %d effect fields exceed the block's %d", ns, ne, maxBlockWidth))
		return
	}
	for _, a := range rows {
		if len(a.State) != ns || len(a.Effect) != ne {
			e.fail(fmt.Errorf("transport: agent %d has %d state and %d effect fields, the block %d and %d",
				a.ID, len(a.State), len(a.Effect), ns, ne))
			return
		}
	}
	e.u8(uint8(ns))
	e.u8(uint8(ne))
	at := len(e.b)
	e.b = slices.Grow(e.b, 8*n)[:at+8*n]
	for i, a := range rows {
		binary.LittleEndian.PutUint64(e.b[at+8*i:], uint64(a.ID))
	}
	e.column(col[:n], 1)
	e.column(col[n:], 4)
	col = col[:n]
	for j := 0; j < ns; j++ {
		for i, a := range rows {
			col[i] = math.Float64bits(a.State[j])
		}
		e.column(col, 8)
	}
	for j := 0; j < ne; j++ {
		for i, a := range rows {
			col[i] = math.Float64bits(a.Effect[j])
		}
		e.column(col, 8)
	}
}

// column writes one column of width-byte values: a mode byte, then one
// value if all are equal, else every value.
func (e *Encoder) column(vals []uint64, width int) {
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

// Decoder reads a frame out of its body with bounds checks on every
// read: a truncated or lying field becomes a *ProtocolError, never a
// panic, and every count is checked against the bytes left before
// anything is allocated for it. Errors are sticky: after the first,
// reads return zero values.
type Decoder struct {
	b    []byte
	off  int
	err  error
	kind FrameKind
	// Block's per-frame scratch, kept with the connection.
	slot []int32
}

// fail records a decoding error for the frame being read unless one is
// already set; the frame is then refused with a *ProtocolError.
func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = &ProtocolError{Kind: d.kind, Where: "frame decoder", Reason: fmt.Sprintf(format, args...)}
	}
}

// take returns the next n body bytes, or nil after failing the frame.
func (d *Decoder) take(n int) []byte {
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

func (d *Decoder) u8() uint8 {
	if v := d.take(1); v != nil {
		return v[0]
	}
	return 0
}

func (d *Decoder) bool() bool {
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

func (d *Decoder) u32() uint32 {
	if v := d.take(4); v != nil {
		return binary.LittleEndian.Uint32(v)
	}
	return 0
}

func (d *Decoder) u64() uint64 {
	if v := d.take(8); v != nil {
		return binary.LittleEndian.Uint64(v)
	}
	return 0
}

func (d *Decoder) int() int     { return int(int64(d.u64())) }
func (d *Decoder) f64() float64 { return math.Float64frombits(d.u64()) }

// count reads a length whose elements take at least min bytes each on
// the wire, failing the frame if the body cannot hold that many.
func (d *Decoder) count(min int) int {
	n := int(d.u32())
	if d.err == nil && n*min > len(d.b)-d.off {
		d.fail("count %d of %d-byte elements exceeds the %d bytes left", n, min, len(d.b)-d.off)
		return 0
	}
	return n
}

func (d *Decoder) str() string { return string(d.take(d.count(1))) }

// bytes reads a byte string; empty ones decode as nil.
func (d *Decoder) bytes() []byte {
	v := d.take(d.count(1))
	if len(v) == 0 {
		return nil
	}
	return append([]byte(nil), v...)
}

func (d *Decoder) ints() []int {
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

func (d *Decoder) strs() []string {
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

// floats reads a vector Encoder.floats wrote; an empty one decodes as
// nil.
func (d *Decoder) floats() []float64 {
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

// value reads an interface-typed field Encoder.value wrote.
func (d *Decoder) value() any {
	tag := d.u8()
	if tag == 0 || d.err != nil {
		return nil
	}
	c := codecFor(tag)
	if c == nil {
		d.fail("no codec registered for value tag %d", tag)
		return nil
	}
	v, err := c.Read(d)
	if err != nil {
		d.fail("%v", err)
		return nil
	}
	return v
}

// Block is one decoded column block. Its agents come from two blocks of
// memory — one []agent.Agent and one []float64 for the replicas, the same
// again for the owned rows — so a long-lived owned agent (a migrant, a
// checkpoint or final value) never pins a frame's worth of replicas.
// Every vector is capped, so an append through one cannot spill into its
// neighbour. Rows come back in order through Next. A Block views the
// frame body and is valid only inside the Codec.Read that decoded it.
type Block struct {
	n, replicas int
	flags, srcs column
	rep, own    []agent.Agent
	// slot[i] places row i: index k into rep, or ^k into own.
	slot []int32
	next int
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

// Len is the block's row count; Replicas counts the rows flagged replica.
func (b *Block) Len() int      { return b.n }
func (b *Block) Replicas() int { return b.replicas }

// Next returns the next row: its agent, replica flag and source
// partition.
func (b *Block) Next() (a *agent.Agent, replica bool, src int32) {
	i := b.next
	b.next++
	src = int32(uint32(b.srcs.at(i)))
	if k := b.slot[i]; k >= 0 {
		return &b.rep[k], true, src
	} else {
		return &b.own[^k], false, src
	}
}

// column reads one column's mode byte and values. Encoder.Block writes a
// column in full only when its rows differ, so a full column whose rows
// are all equal is refused: every accepted block re-encodes to its bytes.
func (d *Decoder) column(n, width int) column {
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

// Block reads a column block Encoder.Block wrote.
func (d *Decoder) Block() (Block, error) {
	n := d.count(8) // the ID column alone is 8 bytes a row
	ns, ne := int(d.u8()), int(d.u8())
	if d.err != nil {
		return Block{}, d.err
	}
	b := Block{n: n}
	if n == 0 {
		if ns != 0 || ne != 0 {
			d.fail("empty block with widths %d and %d", ns, ne)
		}
		return b, d.err
	}
	ids := d.take(8 * n)
	b.flags = d.column(n, 1)
	b.srcs = d.column(n, 4)
	if d.err != nil {
		return Block{}, d.err
	}
	slot := d.slot[:0]
	var owned int32
	for i := 0; i < n; i++ {
		f := uint8(b.flags.at(i))
		switch {
		case f&^(flagReplica|flagDead) != 0:
			d.fail("row %d flags %#x", i, f)
			return Block{}, d.err
		case f&flagReplica != 0:
			slot = append(slot, int32(b.replicas))
			b.replicas++
		default:
			slot = append(slot, ^owned)
			owned++
		}
	}
	d.slot, b.slot = slot, slot
	// Two blocks of agents and vectors; row i's vector is its block's
	// floats [k·w, (k+1)·w), state then effect.
	w := ns + ne
	b.rep, b.own = make([]agent.Agent, b.replicas), make([]agent.Agent, owned)
	var repf, ownf []float64
	if w > 0 {
		repf, ownf = make([]float64, w*b.replicas), make([]float64, w*int(owned))
	}
	for i, k := range slot {
		var a *agent.Agent
		fl := repf
		if k >= 0 {
			a = &b.rep[k]
		} else {
			k = ^k
			a, fl = &b.own[k], ownf
		}
		a.ID = agent.ID(binary.LittleEndian.Uint64(ids[8*i:]))
		a.Dead = uint8(b.flags.at(i))&flagDead != 0
		at := int(k) * w
		if ns > 0 {
			a.State = fl[at : at+ns : at+ns]
		}
		if ne > 0 {
			a.Effect = fl[at+ns : at+w : at+w]
		}
	}
	for j := 0; j < w; j++ {
		c := d.column(n, 8)
		if d.err != nil {
			return Block{}, d.err
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
		for i, k := range slot {
			v := math.Float64frombits(binary.LittleEndian.Uint64(c.raw[8*i:]))
			if k >= 0 {
				repf[int(k)*w+j] = v
			} else {
				ownf[int(^k)*w+j] = v
			}
		}
	}
	return b, nil
}
