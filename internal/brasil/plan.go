package brasil

// The column plan: BRASIL's query-phase compile target (Program.Query),
// the "data-flow representation" of the paper's abstract for one node.
// The closure plan (compile.go) walks a tree of Go closures once per
// visible neighbour; the column plan runs each outermost foreach loop as a
// schedule of column ops over the probe's rows instead:
//
//   - the loop probes once (Cols.Visible, or Cols.Nearby at the radius
//     index selection installed), exactly as the closure plan's Env call;
//   - expressions that do not depend on the loop variable (the self's
//     fields, outer locals, constants) are uniform: evaluated once per probe
//     by the closure compiler;
//   - every other expression is a column op over the rows — a gather of a
//     state field, dist, arithmetic, a comparison — writing one frame
//     buffer; structurally equal subexpressions share one op (CSE), so
//     dist(this, p) written twice costs one math.Hypot per row;
//   - if statements become masks: every row evaluates both branches (loop
//     bodies are pure — sema forbids rand() and effect reads in a loop),
//     and an assign folds only the rows its mask selects;
//   - one fold per assign combines the selected rows into the self's
//     effect, starting from its current value, in row (ascending ID) order.
//     When two assigns share a field the folds run row by row, in
//     statement order, so every field sees the closure plan's sequence of
//     combines either way.
//
// Each row performs the closure plan's IEEE operations on the same operands
// in the same order, so the two plans agree bit for bit, NaN payloads
// aside: Go fixes no operand order for a commutative op on two NaNs, and
// no BRASIL operation reads a payload. A loop the plan cannot express —
// one with a nested foreach or a non-local assign — keeps its closure plan
// (errFallback).

import (
	"errors"
	"math"
	"strconv"

	"github.com/bigreddata/brace/internal/agent"
)

// errFallback marks a loop the column plan cannot express.
var errFallback = errors.New("brasil: loop needs the closure plan")

// opKind is a column op. Unless noted, an op reads operand buffers a, b, c
// and writes buffer dst, row by row.
type opKind uint8

const (
	opGather  opKind = iota // dst[i] = State(a)[rows[i]]
	opBcast                 // dst[i] = uni[a]
	opSelf                  // dst[i] = rows[i] == self
	opNotSelf               // dst[i] = rows[i] != self
	opNeg
	opNot
	opAdd
	opSub
	opMul
	opDiv
	opLt
	opLe
	opGt
	opGe
	opEq
	opNe
	opAnd
	opOr
	opHypot
	opCond // dst[i] = b[i] if a[i] != 0, else c[i]
	opFn1  // dst[i] = fn1(a[i])
	opFn2  // dst[i] = fn2(a[i], b[i])
)

var binaryOps = map[string]opKind{
	"+": opAdd, "-": opSub, "*": opMul, "/": opDiv,
	"<": opLt, "<=": opLe, ">": opGt, ">=": opGe, "==": opEq, "!=": opNe,
	"&&": opAnd, "||": opOr,
}

// The builtins, and %, that a column op calls per row through a function
// value: the closure plan calls the same functions, so the bits agree.
var (
	fns1 = map[string]func(float64) float64{
		"abs": math.Abs, "sqrt": math.Sqrt, "floor": math.Floor,
		"exp": math.Exp, "log": math.Log, "sin": math.Sin, "cos": math.Cos,
	}
	fns2 = map[string]func(float64, float64) float64{
		"%": math.Mod, "min": math.Min, "max": math.Max, "pow": math.Pow,
	}
)

type colOp struct {
	kind    opKind
	dst     int32
	a, b, c int32
	fn1     func(float64) float64
	fn2     func(float64, float64) float64
	// uni marks the uniform operand of an arithmetic op whose other
	// operand is a column: uniA or uniB, which then names a uniform slot.
	uni uint8
}

const (
	uniA = 1 + iota
	uniB
)

// pval is a plan value: a uniform slot (fr.uni) or a column buffer
// (fr.bufs).
type pval struct {
	uni bool
	i   int32
}

// effFold combines one assign's value into the self's effect field over the
// rows its mask selects (every row without one).
type effFold struct {
	eff    int
	comb   agent.Combinator
	sum    bool
	val    pval
	masked bool
	mask   pval
}

// loopPlan is one outermost foreach loop's column plan. Its uniform
// slots are the Program's, so constants are written once per frame.
type loopPlan struct {
	radius cexpr // the probe radius, nil for a visibility probe
	// Per-probe uniform evaluations: the self's state fields, then the
	// other uniforms in dependency order.
	selfs []selfRead
	pre   []cstmt
	ops   []colOp   // column ops, in dependency order
	folds []effFold // in statement order
	nbuf  int
	// rowwise is set when two assigns share an effect field: the folds
	// then run row by row instead of one field at a time.
	rowwise bool
}

// selfRead copies the self's state field idx to a uniform slot.
type selfRead struct {
	slot int32
	idx  int
}

// uniConst is a constant uniform slot, written when a frame is made.
type uniConst struct {
	slot int32
	v    float64
}

// run is the loop's statement under the column plan.
func (pl *loopPlan) run(fr *frame) {
	var rows []int32
	if pl.radius != nil {
		rows = fr.cols.Nearby(pl.radius(fr))
	} else {
		rows = fr.cols.Visible()
	}
	n := len(rows)
	if n == 0 {
		return
	}
	state := fr.self.State
	for _, r := range pl.selfs {
		fr.uni[r.slot] = state[r.idx]
	}
	for _, s := range pl.pre {
		s(fr)
	}
	if need := pl.nbuf * n; cap(fr.slab) < need {
		fr.slab = make([]float64, need+need/2)
	}
	for k := range fr.bufs[:pl.nbuf] {
		fr.bufs[k] = fr.slab[k*n : k*n+n]
	}
	for i := range pl.ops {
		fr.exec(&pl.ops[i], rows)
	}
	if pl.rowwise {
		pl.foldRows(fr, n)
		return
	}
	for i := range pl.folds {
		fr.fold(&pl.folds[i], n)
	}
}

// exec runs one column op over the probe's rows.
func (fr *frame) exec(o *colOp, rows []int32) {
	bufs := fr.bufs
	d := bufs[o.dst]
	switch o.kind {
	case opGather:
		col := fr.cols.State(int(o.a))
		rows = rows[:len(d)]
		for i, r := range rows {
			d[i] = col[r]
		}
		return
	case opBcast:
		u := fr.uni[o.a]
		for i := range d {
			d[i] = u
		}
		return
	case opSelf, opNotSelf:
		self, eq := fr.selfRow, o.kind == opSelf
		rows = rows[:len(d)]
		for i, r := range rows {
			d[i] = b2f((r == self) == eq)
		}
		return
	}
	if o.uni != 0 {
		fr.execUniform(o, d)
		return
	}
	a := bufs[o.a][:len(d)]
	switch o.kind {
	case opNeg:
		for i, x := range a {
			d[i] = -x
		}
		return
	case opNot:
		for i, x := range a {
			d[i] = b2f(x == 0)
		}
		return
	case opFn1:
		for i, x := range a {
			d[i] = o.fn1(x)
		}
		return
	}
	b := bufs[o.b][:len(d)]
	switch o.kind {
	case opAdd:
		for i := range d {
			d[i] = a[i] + b[i]
		}
	case opSub:
		for i := range d {
			d[i] = a[i] - b[i]
		}
	case opMul:
		for i := range d {
			d[i] = a[i] * b[i]
		}
	case opDiv:
		for i := range d {
			d[i] = a[i] / b[i]
		}
	case opLt:
		for i := range d {
			d[i] = b2f(a[i] < b[i])
		}
	case opLe:
		for i := range d {
			d[i] = b2f(a[i] <= b[i])
		}
	case opGt:
		for i := range d {
			d[i] = b2f(a[i] > b[i])
		}
	case opGe:
		for i := range d {
			d[i] = b2f(a[i] >= b[i])
		}
	case opEq:
		for i := range d {
			d[i] = b2f(a[i] == b[i])
		}
	case opNe:
		for i := range d {
			d[i] = b2f(a[i] != b[i])
		}
	case opAnd:
		for i := range d {
			d[i] = b2f(a[i] != 0 && b[i] != 0)
		}
	case opOr:
		for i := range d {
			d[i] = b2f(a[i] != 0 || b[i] != 0)
		}
	case opFn2:
		for i := range d {
			d[i] = o.fn2(a[i], b[i])
		}
	case opHypot:
		for i := range d {
			d[i] = math.Hypot(a[i], b[i])
		}
	case opCond:
		c := bufs[o.c][:len(d)]
		for i := range d {
			if a[i] != 0 {
				d[i] = b[i]
			} else {
				d[i] = c[i]
			}
		}
	}
}

// execUniform runs an arithmetic op with one uniform operand, which keeps
// its side: u-x stays u-x.
func (fr *frame) execUniform(o *colOp, d []float64) {
	if o.uni == uniA {
		u, b := fr.uni[o.a], fr.bufs[o.b][:len(d)]
		switch o.kind {
		case opAdd:
			for i, x := range b {
				d[i] = u + x
			}
		case opSub:
			for i, x := range b {
				d[i] = u - x
			}
		case opMul:
			for i, x := range b {
				d[i] = u * x
			}
		case opDiv:
			for i, x := range b {
				d[i] = u / x
			}
		}
		return
	}
	a, u := fr.bufs[o.a][:len(d)], fr.uni[o.b]
	switch o.kind {
	case opAdd:
		for i, x := range a {
			d[i] = x + u
		}
	case opSub:
		for i, x := range a {
			d[i] = x - u
		}
	case opMul:
		for i, x := range a {
			d[i] = x * u
		}
	case opDiv:
		for i, x := range a {
			d[i] = x / u
		}
	}
}

// fold folds one assign over the probe's n rows into its field.
func (fr *frame) fold(f *effFold, n int) {
	masked := f.masked
	if masked && f.mask.uni {
		if fr.uni[f.mask.i] == 0 {
			return
		}
		masked = false
	}
	eff := fr.self.Effect
	v := eff[f.eff]
	switch {
	case f.val.uni && !masked:
		u := fr.uni[f.val.i]
		for i := 0; i < n; i++ {
			v = f.combine(v, u)
		}
	case f.val.uni:
		u := fr.uni[f.val.i]
		for _, m := range fr.bufs[f.mask.i] {
			if m != 0 {
				v = f.combine(v, u)
			}
		}
	case f.sum && !masked:
		for _, x := range fr.bufs[f.val.i] {
			v += x
		}
	case f.sum:
		xs := fr.bufs[f.val.i]
		ms := fr.bufs[f.mask.i][:len(xs)]
		for i, x := range xs {
			if ms[i] != 0 {
				v += x
			}
		}
	case !masked:
		for _, x := range fr.bufs[f.val.i] {
			v = f.comb.Combine(v, x)
		}
	default:
		xs := fr.bufs[f.val.i]
		ms := fr.bufs[f.mask.i][:len(xs)]
		for i, x := range xs {
			if ms[i] != 0 {
				v = f.comb.Combine(v, x)
			}
		}
	}
	eff[f.eff] = v
}

func (f *effFold) combine(acc, v float64) float64 {
	if f.sum {
		return acc + v
	}
	return f.comb.Combine(acc, v)
}

// foldRows applies every assign row by row, in statement order: the
// schedule when two assigns share a field, whose combines then interleave
// exactly as the closure plan's do.
func (pl *loopPlan) foldRows(fr *frame, n int) {
	eff := fr.self.Effect
	for i := 0; i < n; i++ {
		for k := range pl.folds {
			f := &pl.folds[k]
			if f.masked && fr.value(f.mask, i) == 0 {
				continue
			}
			eff[f.eff] = f.combine(eff[f.eff], fr.value(f.val, i))
		}
	}
}

// value reads a plan value at row i.
func (fr *frame) value(v pval, i int) float64 {
	if v.uni {
		return fr.uni[v.i]
	}
	return fr.bufs[v.i][i]
}

// planner lowers one outermost foreach loop to a loopPlan.
type planner struct {
	c    *compiler
	pl   *loopPlan
	memo map[string]pval // CSE: structural key → value
	// Loop-local consts by slot: the key of the initializer (a const is
	// its value; "" for a slot outside the loop), and whether it is a
	// column.
	localKey []string
	colLocal []bool
}

// planLoop compiles fe, an outermost foreach loop, to a column plan, or
// returns errFallback when the plan cannot express it.
func (c *compiler) planLoop(fe *Foreach) (*loopPlan, error) {
	pp := &planner{
		c:        c,
		pl:       &loopPlan{},
		memo:     map[string]pval{},
		localKey: make([]string, c.ck.NLocals),
		colLocal: make([]bool, c.ck.NLocals),
	}
	if fe.Radius != nil {
		r, err := c.expr(fe.Radius, false)
		if err != nil {
			return nil, err
		}
		pp.pl.radius = r
	}
	if err := pp.stmts(fe.Body, nil); err != nil {
		return nil, err
	}
	folds := pp.pl.folds
	for i := range folds {
		for _, g := range folds[:i] {
			if g.eff == folds[i].eff {
				pp.pl.rowwise = true
			}
		}
	}
	return pp.pl, nil
}

// stmts lowers loop-body statements executed on the rows where mask is
// nonzero (every row when mask is nil).
func (pp *planner) stmts(ss []Stmt, mask Expr) error {
	ck := pp.c.ck
	var m pval // mask's value, lowered at the first assign
	lowered := false
	for _, s := range ss {
		switch st := s.(type) {
		case *VarDecl:
			slot := ck.Locals[st]
			v, k, err := pp.expr(st.Init)
			if err != nil {
				return err
			}
			pp.localKey[slot] = k
			if v.uni {
				// Uniform expressions that read the const compile to
				// closures over fr.locals.
				u := v.i
				pp.pl.pre = append(pp.pl.pre, func(fr *frame) { fr.locals[slot] = fr.uni[u] })
			} else {
				pp.colLocal[slot] = true
			}

		case *AssignEffect:
			if st.On != nil {
				if _, isThis := st.On.(*This); !isThis {
					return errFallback
				}
			}
			v, _, err := pp.expr(st.Value)
			if err != nil {
				return err
			}
			idx := ck.EffectIdx[st.Field]
			comb, _ := agent.CombinatorByName(ck.Fields[st.Field].Comb)
			f := effFold{eff: idx, comb: comb, sum: comb == agent.Sum, val: v}
			if mask != nil {
				if !lowered {
					if m, _, err = pp.expr(mask); err != nil {
						return err
					}
					lowered = true
				}
				f.masked, f.mask = true, m
			}
			pp.pl.folds = append(pp.pl.folds, f)

		case *If:
			then, els := st.Cond, Expr(&Unary{Op: "!", X: st.Cond, Pos: st.Pos})
			if mask != nil {
				then = &Binary{Op: "&&", L: mask, R: then, Pos: st.Pos}
				els = &Binary{Op: "&&", L: mask, R: els, Pos: st.Pos}
			}
			if err := pp.stmts(st.Then, then); err != nil {
				return err
			}
			if err := pp.stmts(st.Else, els); err != nil {
				return err
			}

		case *Foreach:
			return errFallback
		}
	}
	return nil
}

// varying reports whether e depends on the loop variable, directly or
// through a column const.
func (pp *planner) varying(e Expr) bool {
	switch ex := e.(type) {
	case *Ref:
		ri := pp.c.ck.Refs[ex]
		return ri.kind == refAgent || ri.kind == refLocal && pp.colLocal[ri.index]
	case *FieldRef:
		return pp.varying(ex.On)
	case *Unary:
		return pp.varying(ex.X)
	case *Binary:
		return pp.varying(ex.L) || pp.varying(ex.R)
	case *Call:
		for _, a := range ex.Args {
			if pp.varying(a) {
				return true
			}
		}
	}
	return false
}

// key is e's structural CSE key: equal keys compute equal values for every
// row. this.f and a bare f share one, and a const is its initializer.
// expr builds the same keys bottom-up as it lowers.
func (pp *planner) key(e Expr) string {
	ck := pp.c.ck
	switch ex := e.(type) {
	case *Num:
		return "#" + strconv.FormatUint(math.Float64bits(ex.Val), 16)
	case *This:
		return "this"
	case *Ref:
		ri := ck.Refs[ex]
		switch ri.kind {
		case refAgent:
			return "a" + strconv.Itoa(ri.index)
		case refLocal:
			if k := pp.localKey[ri.index]; k != "" {
				return k
			}
			return "l" + strconv.Itoa(ri.index)
		case refEffect:
			return "e" + strconv.Itoa(ri.index)
		}
		return "s" + strconv.Itoa(ri.index)
	case *FieldRef:
		return fieldKey(pp.key(ex.On), ck.FieldOf[ex])
	case *Unary:
		return "(" + ex.Op + " " + pp.key(ex.X) + ")"
	case *Binary:
		return "(" + ex.Op + " " + pp.key(ex.L) + " " + pp.key(ex.R) + ")"
	case *Call:
		if ex.Name == "dist" {
			return pp.distKey(pp.key(ex.Args[0]), pp.key(ex.Args[1]))
		}
		k := "(" + ex.Name
		for _, a := range ex.Args {
			k += " " + pp.key(a)
		}
		return k + ")"
	}
	return "?"
}

// xy returns the position fields as state references.
func (pp *planner) xy() (x, y refInfo) {
	ck := pp.c.ck
	return refInfo{kind: refState, index: ck.StateIdx["x"]}, refInfo{kind: refState, index: ck.StateIdx["y"]}
}

func fieldKey(on string, ri refInfo) string {
	f := "s" + strconv.Itoa(ri.index)
	if ri.kind == refEffect {
		f = "e" + strconv.Itoa(ri.index)
	}
	if on == "this" {
		return f
	}
	return on + "." + f
}

func subKey(a, b string) string { return "(- " + a + " " + b + ")" }

// distKey is the key of dist(a, b) for agents keyed ka and kb.
func (pp *planner) distKey(ka, kb string) string {
	x, y := pp.xy()
	return "(hypot " + subKey(fieldKey(ka, x), fieldKey(kb, x)) + " " + subKey(fieldKey(ka, y), fieldKey(kb, y)) + ")"
}

// expr lowers e to a plan value and returns it with its key, sharing the
// value of any structurally equal expression lowered before.
func (pp *planner) expr(e Expr) (pval, string, error) {
	ck := pp.c.ck
	if !pp.varying(e) {
		k := pp.key(e)
		if v, ok := pp.memo[k]; ok {
			return v, k, nil
		}
		switch ex := e.(type) {
		case *Num:
			return pp.constant(k, ex.Val), k, nil
		case *Ref:
			if ri := ck.Refs[ex]; ri.kind == refState {
				return pp.field("this", ri), k, nil
			}
		case *FieldRef:
			if ri := ck.FieldOf[ex]; ri.kind == refState {
				return pp.field("this", ri), k, nil
			}
		}
		ce, err := pp.c.expr(e, false)
		if err != nil {
			return pval{}, "", err
		}
		return pp.uniform(k, ce), k, nil
	}
	switch ex := e.(type) {
	case *Ref:
		// A column const: lowered with its declaration.
		k := pp.localKey[ck.Refs[ex].index]
		return pp.memo[k], k, nil

	case *FieldRef:
		// The loop variable's field (sema allows only state there).
		kon, ri := pp.key(ex.On), ck.FieldOf[ex]
		return pp.field(kon, ri), fieldKey(kon, ri), nil

	case *Unary:
		x, kx, err := pp.expr(ex.X)
		if err != nil {
			return pval{}, "", err
		}
		kind := opNeg
		if ex.Op == "!" {
			kind = opNot
		}
		k := "(" + ex.Op + " " + kx + ")"
		return pp.op(k, colOp{kind: kind, a: pp.col(x)}), k, nil

	case *Binary:
		if pp.c.isAgent(ex.L) || pp.c.isAgent(ex.R) {
			// this vs the loop variable compares rows (IDs are unique in a
			// pass); the loop variable vs itself is constant.
			k := pp.key(e)
			_, lThis := ex.L.(*This)
			_, rThis := ex.R.(*This)
			eq := ex.Op == "=="
			switch {
			case !lThis && !rThis:
				return pp.constant(k, b2f(eq)), k, nil
			case eq:
				return pp.op(k, colOp{kind: opSelf}), k, nil
			}
			return pp.op(k, colOp{kind: opNotSelf}), k, nil
		}
		l, kl, err := pp.expr(ex.L)
		if err != nil {
			return pval{}, "", err
		}
		r, kr, err := pp.expr(ex.R)
		if err != nil {
			return pval{}, "", err
		}
		k := "(" + ex.Op + " " + kl + " " + kr + ")"
		if f, ok := fns2[ex.Op]; ok {
			return pp.op(k, colOp{kind: opFn2, a: pp.col(l), b: pp.col(r), fn2: f}), k, nil
		}
		return pp.binary(k, binaryOps[ex.Op], l, r), k, nil

	case *Call:
		if ex.Name == "dist" {
			ka, kb := pp.key(ex.Args[0]), pp.key(ex.Args[1])
			k := pp.distKey(ka, kb)
			return pp.dist(k, ka, kb), k, nil
		}
		var args [3]int32
		k := "(" + ex.Name
		for i, a := range ex.Args {
			v, ka, err := pp.expr(a)
			if err != nil {
				return pval{}, "", err
			}
			args[i] = pp.col(v)
			k += " " + ka
		}
		k += ")"
		o := colOp{kind: opCond, a: args[0], b: args[1], c: args[2], fn1: fns1[ex.Name], fn2: fns2[ex.Name]}
		switch {
		case o.fn1 != nil:
			o.kind = opFn1
		case o.fn2 != nil:
			o.kind = opFn2
		}
		return pp.op(k, o), k, nil
	}
	return pval{}, "", errFallback
}

// dist lowers dist(a, b), keyed k, for agents keyed ka and kb to the
// closure plan's arithmetic, Hypot(a.x-b.x, a.y-b.y), whose differences
// other expressions may share.
func (pp *planner) dist(k, ka, kb string) pval {
	x, y := pp.xy()
	var diff [2]int32
	for i, f := range []refInfo{x, y} {
		a, b := pp.field(ka, f), pp.field(kb, f)
		diff[i] = pp.col(pp.binary(subKey(fieldKey(ka, f), fieldKey(kb, f)), opSub, a, b))
	}
	return pp.op(k, colOp{kind: opHypot, a: diff[0], b: diff[1]})
}

// field is the state field f of the agent keyed kon: a uniform of the
// self, or a gather of the loop variable.
func (pp *planner) field(kon string, f refInfo) pval {
	k := fieldKey(kon, f)
	if v, ok := pp.memo[k]; ok {
		return v
	}
	if kon == "this" {
		s := pp.slot()
		pp.pl.selfs = append(pp.pl.selfs, selfRead{slot: s, idx: f.index})
		return pp.memoize(k, pval{uni: true, i: s})
	}
	return pp.op(k, colOp{kind: opGather, a: int32(f.index)})
}

// uniform installs a per-probe evaluation of ce under key k.
func (pp *planner) uniform(k string, ce cexpr) pval {
	s := pp.slot()
	pp.pl.pre = append(pp.pl.pre, func(fr *frame) { fr.uni[s] = ce(fr) })
	return pp.memoize(k, pval{uni: true, i: s})
}

// constant installs the constant v under key k.
func (pp *planner) constant(k string, v float64) pval {
	s := pp.slot()
	pp.c.p.consts = append(pp.c.p.consts, uniConst{slot: s, v: v})
	return pp.memoize(k, pval{uni: true, i: s})
}

// slot allocates a uniform slot of the Program.
func (pp *planner) slot() int32 {
	s := int32(pp.c.p.nuni)
	pp.c.p.nuni++
	return s
}

func (pp *planner) memoize(k string, v pval) pval {
	pp.memo[k] = v
	return v
}

// op installs the column op o under key k (or returns the one already
// there), giving it the next buffer.
func (pp *planner) op(k string, o colOp) pval {
	if v, ok := pp.memo[k]; ok {
		return v
	}
	o.dst = int32(pp.pl.nbuf)
	pp.pl.nbuf++
	pp.pl.ops = append(pp.pl.ops, o)
	return pp.memoize(k, pval{i: o.dst})
}

// binary installs l op r under key k. Arithmetic with one uniform operand
// reads its slot instead of a broadcast.
func (pp *planner) binary(k string, kind opKind, l, r pval) pval {
	if kind >= opAdd && kind <= opDiv && l.uni != r.uni {
		o := colOp{kind: kind, a: l.i, b: r.i, uni: uniB}
		if l.uni {
			o.uni = uniA
		}
		return pp.op(k, o)
	}
	return pp.op(k, colOp{kind: kind, a: pp.col(l), b: pp.col(r)})
}

// col returns v as a column buffer, broadcasting a uniform once per probe.
func (pp *planner) col(v pval) int32 {
	if !v.uni {
		return v.i
	}
	return pp.op("bcast "+strconv.Itoa(int(v.i)), colOp{kind: opBcast, a: v.i}).i
}
