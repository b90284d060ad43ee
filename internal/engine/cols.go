// The query window: struct-of-arrays state access for every model.
//
// A closure-style window hands the model one *agent.Agent at a time, so a
// query phase pays an indirect call plus two pointer dereferences per
// visible neighbor, and the accumulator lives in a heap-escaping closure
// frame. Cols instead exposes the reducer's ID-sorted copy set as
// contiguous per-field float64 columns: the model asks once for the
// visible row set and then streams the columns directly, with its
// accumulators in registers.
//
// Cols and its closure view (Cols.Env) are views over one probe core
// (queryEnv.rows): the candidate source, the distance arithmetic, the
// ascending-agent-ID row order and the probe accounting exist once.
package engine

import "github.com/bigreddata/brace/internal/agent"

// Cols is the query window over a part's copy set (queryEnv), with its
// probes returning rows. Rows index the copy set, in ascending agent-ID
// order. The defined type (rather than embedding) keeps the two method
// sets independent — Cols.Assign takes a row, Env.Assign takes an agent.
type Cols queryEnv

// State returns the column of the given state field, one entry per row.
// A field other than the position is gathered on its first read in a
// tick, so a model pays only for the columns it reads.
func (c *Cols) State(field int) []float64 {
	q := (*queryEnv)(c)
	if !q.cols.have[field] {
		q.cols.gather(field, q.copies)
	}
	return q.cols.cols[field]
}

// Visible returns the rows within the visibility bound of self's position,
// including self, in ascending agent-ID order (Env.ForEachVisible's
// agents). The slice is valid until the next probe on this env, and
// read-only: it may be the candidate block later probes filter.
func (c *Cols) Visible() []int32 { return (*queryEnv)(c).visible() }

// Nearby is Visible restricted to the given radius (its magnitude cropped
// to the visibility bound).
func (c *Cols) Nearby(radius float64) []int32 { return (*queryEnv)(c).nearby(radius) }

// Env returns the closure-style view onto the same probe core, for a
// query phase that runs part of its work per agent: Env().Self() is the
// agent at the self row, and its probes are charged exactly as the row
// probes. A model may mix the two views within one call.
func (c *Cols) Env() Env { return (*queryEnv)(c) }

// Assign folds value into the row's effect field using the schema's
// combinator. A row other than self is a non-local assignment: it panics
// unless the model declares HasNonLocalEffects. Effects stay in the
// per-agent vectors (the update phase and the wire format read them
// there), so this writes through to the row's agent.
func (c *Cols) Assign(row int32, effectIndex int, value float64) {
	q := (*queryEnv)(c)
	q.Assign(q.copies[row], effectIndex, value)
}

// colSet is a part's state columns over the rows of its copy set. The
// position columns are gathered at build, since the grid reads them; any
// other column on its first Cols.State read.
type colSet struct {
	cols [][]float64
	have []bool // have[f] reports that cols[f] holds the current build's rows
}

// build starts a tick's columns over the ID-sorted copies: the position
// columns are gathered, the others wait for their first read.
func (cs *colSet) build(s *agent.Schema, copies []*agent.Agent) {
	nf := s.NumState()
	cs.cols, cs.have = resize(cs.cols, nf), resize(cs.have, nf)
	clear(cs.have)
	cs.gather(s.PosX, copies)
	cs.gather(s.PosY, copies)
}

// gather (re)fills column f from the copies.
func (cs *colSet) gather(f int, copies []*agent.Agent) {
	col := resize(cs.cols[f], len(copies))
	for i, a := range copies {
		col[i] = a.State[f]
	}
	cs.cols[f], cs.have[f] = col, true
}
