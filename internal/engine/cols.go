// Columnar query phase: struct-of-arrays state access for hot models.
//
// The classic Env hands the model one *agent.Agent at a time through a
// closure, so a query phase pays an indirect call plus two pointer
// dereferences per visible neighbor, and the accumulator lives in a
// heap-escaping closure frame. The columnar path instead exposes the
// reducer's ID-sorted copy set as contiguous per-field float64 columns:
// the model asks once for the visible row set and then streams the columns
// directly, with its accumulators in registers.
//
// Both paths are views over one probe core (queryEnv.rows): the candidate
// source, the distance arithmetic, the ascending-agent-ID row order and the
// probe accounting exist once, so a columnar query phase is bit-identical
// to the classic one, down to the rows charged to the load balancer and
// the Visited gauge.
package engine

import "github.com/bigreddata/brace/internal/agent"

// ColumnarModel is implemented by models whose query phase can run against
// column slices instead of per-agent callbacks. The engines use QueryCols
// in place of Query whenever the model implements it and has only local
// effects; the two must compute identical effect values (the equivalence
// suite enforces this bit-for-bit for every registered scenario).
type ColumnarModel interface {
	Model
	// QueryCols runs the query phase for the agent at row self. Rows index
	// the reducer's copy set: env.State(f)[row] is copies[row].State[f],
	// with any halo (peer-sent) copies appended after the core rows.
	QueryCols(env *Cols, self int32)
}

// Cols is the columnar query window: the same queryEnv the classic Env path
// uses, with its probes returning rows instead of iterating them. The
// defined type (rather than embedding) keeps the two method sets
// independent — Cols.Assign takes a row, Env.Assign takes an agent.
type Cols queryEnv

// State returns the column of the given state field, one entry per row
// (core copies in ascending agent-ID order, then halo copies).
func (c *Cols) State(field int) []float64 { return c.cols[field] }

// Rows returns the total row count (core + halo).
func (c *Cols) Rows() int { return len(c.cols[0]) }

// Visible returns the rows within the visibility bound of self's position,
// including self, in ascending agent-ID order — the columnar mirror of
// Env.ForEachVisible. The slice is valid until the next probe on this env.
func (c *Cols) Visible() []int32 { return (*queryEnv)(c).visible() }

// Nearby is Visible restricted to the given radius (cropped to the
// visibility bound) — the columnar mirror of Env.Nearby.
func (c *Cols) Nearby(radius float64) []int32 { return (*queryEnv)(c).nearby(radius) }

// Assign folds value into the row's effect field using the schema's
// combinator — the columnar mirror of Env.Assign. Effects stay in the
// per-agent vectors (the update phase and the wire format read them
// there), so this writes through to the row's agent.
func (c *Cols) Assign(row int32, effectIndex int, value float64) {
	q := (*queryEnv)(c)
	q.Assign(q.agentAt(row), effectIndex, value)
}

// columnarModel resolves the engines' columnar fast path: the model must
// opt in and have only local effects (the non-local dataflow ships and
// folds envelopes per partition; its query phases stay on the classic
// path).
func columnarModel(m Model) ColumnarModel {
	if cm, ok := m.(ColumnarModel); ok && !modelNonLocal(m) {
		return cm
	}
	return nil
}

// gatherCols (re)fills per-state-field columns from the ID-sorted copies.
func gatherCols(cols [][]float64, s *agent.Schema, copies []*agent.Agent) [][]float64 {
	nf := s.NumState()
	if cap(cols) < nf {
		cols = make([][]float64, nf)
	}
	cols = cols[:nf]
	n := len(copies)
	for f := 0; f < nf; f++ {
		col := resize(cols[f], n)
		for i, a := range copies {
			col[i] = a.State[f]
		}
		cols[f] = col
	}
	return cols
}

// appendHaloCols extends the columns with the halo copies' state, giving
// halo row j the global row index len(copies)+j.
func appendHaloCols(cols [][]float64, halo []*agent.Agent) [][]float64 {
	for f := range cols {
		col := cols[f]
		for _, a := range halo {
			col = append(col, a.State[f])
		}
		cols[f] = col
	}
	return cols
}
