package brasil

import (
	"fmt"
	"math"
	"sync"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/engine"
)

// CompileOptions selects the optional optimizer pass (§4.2); constant
// folding and index selection always run.
type CompileOptions struct {
	// Invert applies effect inversion (Theorem 2/3) when the script has
	// non-local effect assignments, letting the engine run the cheaper
	// single-reduce dataflow. Compilation fails if the script is not
	// invertible (see Invert).
	Invert bool
}

// Program is a compiled BRASIL script: an engine.Model plus compiler
// metadata.
type Program struct {
	checked  *Checked
	schema   *agent.Schema
	query    []cstmt
	updates  []cexpr     // by state index
	crops    []*RangeTag // by state index
	nonLocal bool
	inverted bool
	// foreach[k] makes the k-th foreach loop's body callback for a frame.
	foreach []func(*frame) func(*agent.Agent)

	frames sync.Pool
}

// frame is the interpreter's activation record. Frames are pooled; the
// Program is shared by all workers, each call takes its own frame.
type frame struct {
	self   *agent.Agent
	agents []*agent.Agent
	locals []float64
	state  []float64 // update-phase scratch for simultaneous assignment
	env    engine.Env
	u      *engine.UpdateCtx
	// iters[k] is the k-th foreach loop's body callback, bound to this
	// frame once when the pool makes it: a callback made per loop would
	// escape through the Env and allocate every query phase.
	iters []func(*agent.Agent)
}

type cexpr func(*frame) float64
type cstmt func(*frame)
type aexpr func(*frame) *agent.Agent

// Compile parses, checks, optimizes and compiles a BRASIL source file: effect
// inversion when asked, then constant folding and the distance-guard →
// range-probe rewrite (index selection).
func Compile(src string, opt CompileOptions) (*Program, error) {
	cl, err := Parse(src)
	if err != nil {
		return nil, err
	}
	ck, err := Check(cl)
	if err != nil {
		return nil, err
	}
	inverted := opt.Invert && ck.HasNonLocal
	if inverted {
		cl2, err := Invert(ck)
		if err != nil {
			return nil, err
		}
		ck, err = Check(cl2)
		if err != nil {
			return nil, fmt.Errorf("brasil: inverted script failed re-check: %w", err)
		}
		if ck.HasNonLocal {
			return nil, fmt.Errorf("brasil: inversion left non-local assignments behind")
		}
	}
	foldClass(ck.Class)
	selectIndexes(ck)
	return compileChecked(ck, inverted)
}

// compileChecked compiles a checked (and optimized) class into a Program.
func compileChecked(ck *Checked, inverted bool) (*Program, error) {
	p := &Program{checked: ck, nonLocal: ck.HasNonLocal, inverted: inverted}
	p.schema = buildSchema(ck)
	c := &compiler{ck: ck, p: p}

	// Query script.
	for _, s := range ck.Class.Run.Body {
		st, err := c.stmt(s)
		if err != nil {
			return nil, err
		}
		p.query = append(p.query, st)
	}

	// Update rules, by state index, evaluated simultaneously against the
	// old state (Fig. 2 semantics: `x : (x+vx)` uses tick-start values).
	p.updates = make([]cexpr, len(ck.StateIdx))
	p.crops = make([]*RangeTag, len(ck.StateIdx))
	for _, f := range ck.Class.Fields {
		if !f.IsState {
			continue
		}
		e, err := c.expr(f.Update, true)
		if err != nil {
			return nil, err
		}
		idx := ck.StateIdx[f.Name]
		p.updates[idx] = e
		p.crops[idx] = f.Range
	}

	p.frames.New = func() any {
		fr := &frame{
			agents: make([]*agent.Agent, ck.NAgents),
			locals: make([]float64, ck.NLocals),
			state:  make([]float64, len(ck.StateIdx)),
			iters:  make([]func(*agent.Agent), len(p.foreach)),
		}
		for k, mk := range p.foreach {
			fr.iters[k] = mk(fr)
		}
		return fr
	}
	return p, nil
}

func buildSchema(ck *Checked) *agent.Schema {
	s := agent.NewSchema(ck.Class.Name)
	for _, f := range ck.Class.Fields {
		if f.IsState {
			s.AddState(f.Name, f.Public)
		} else {
			comb, _ := agent.CombinatorByName(f.Comb)
			s.AddEffect(f.Name, f.Public, comb)
		}
	}
	s.SetPosition("x", "y")
	s.SetVisibility(ck.Visibility)
	s.SetReach(ck.Reach)
	return s
}

// Schema implements engine.Model.
func (p *Program) Schema() *agent.Schema { return p.schema }

// HasNonLocalEffects implements engine.NonLocalModel.
func (p *Program) HasNonLocalEffects() bool { return p.nonLocal }

// Inverted reports whether effect inversion was applied.
func (p *Program) Inverted() bool { return p.inverted }

// Checked exposes the analysis result (for tools and tests).
func (p *Program) Checked() *Checked { return p.checked }

// Query implements engine.Model by interpreting the compiled run() plan.
func (p *Program) Query(self *agent.Agent, env engine.Env) {
	fr := p.frames.Get().(*frame)
	fr.self = self
	fr.env = env
	fr.u = nil
	for _, s := range p.query {
		s(fr)
	}
	fr.self, fr.env = nil, nil
	p.frames.Put(fr)
}

// Update implements engine.Model: evaluate every update rule against the
// old state, apply #range crops, then commit.
func (p *Program) Update(self *agent.Agent, u *engine.UpdateCtx) {
	fr := p.frames.Get().(*frame)
	fr.self = self
	fr.u = u
	newState := fr.state
	for i, e := range p.updates {
		newState[i] = e(fr)
		if r := p.crops[i]; r != nil {
			d := newState[i] - self.State[i]
			if d < r.Lo {
				d = r.Lo
			}
			if d > r.Hi {
				d = r.Hi
			}
			newState[i] = self.State[i] + d
		}
	}
	copy(self.State, newState)
	fr.self, fr.u = nil, nil
	p.frames.Put(fr)
}

var (
	_ engine.Model         = (*Program)(nil)
	_ engine.NonLocalModel = (*Program)(nil)
)

// compiler lowers checked AST to closures.
type compiler struct {
	ck *Checked
	p  *Program
}

func (c *compiler) stmt(s Stmt) (cstmt, error) {
	switch st := s.(type) {
	case *VarDecl:
		slot := c.ck.Locals[st]
		init, err := c.expr(st.Init, false)
		if err != nil {
			return nil, err
		}
		return func(fr *frame) { fr.locals[slot] = init(fr) }, nil

	case *AssignEffect:
		idx := c.ck.EffectIdx[st.Field]
		val, err := c.expr(st.Value, false)
		if err != nil {
			return nil, err
		}
		if st.On == nil {
			return func(fr *frame) { fr.env.Assign(fr.self, idx, val(fr)) }, nil
		}
		target, err := c.agentExpr(st.On)
		if err != nil {
			return nil, err
		}
		return func(fr *frame) { fr.env.Assign(target(fr), idx, val(fr)) }, nil

	case *If:
		cond, err := c.expr(st.Cond, false)
		if err != nil {
			return nil, err
		}
		var then, els []cstmt
		for _, x := range st.Then {
			cs, err := c.stmt(x)
			if err != nil {
				return nil, err
			}
			then = append(then, cs)
		}
		for _, x := range st.Else {
			cs, err := c.stmt(x)
			if err != nil {
				return nil, err
			}
			els = append(els, cs)
		}
		return func(fr *frame) {
			if cond(fr) != 0 {
				for _, s := range then {
					s(fr)
				}
			} else {
				for _, s := range els {
					s(fr)
				}
			}
		}, nil

	case *Foreach:
		depth := c.ck.Agents[st]
		var body []cstmt
		for _, x := range st.Body {
			cs, err := c.stmt(x)
			if err != nil {
				return nil, err
			}
			body = append(body, cs)
		}
		var radius cexpr
		if st.Radius != nil {
			r, err := c.expr(st.Radius, false)
			if err != nil {
				return nil, err
			}
			radius = r
		}
		k := len(c.p.foreach)
		c.p.foreach = append(c.p.foreach, func(fr *frame) func(*agent.Agent) {
			return func(nb *agent.Agent) {
				fr.agents[depth] = nb
				for _, s := range body {
					s(fr)
				}
			}
		})
		return func(fr *frame) {
			iter := fr.iters[k]
			if radius != nil {
				fr.env.Nearby(radius(fr), iter)
			} else {
				fr.env.ForEachVisible(iter)
			}
			fr.agents[depth] = nil
		}, nil
	}
	return nil, fmt.Errorf("brasil: unknown statement %T", s)
}

// agentExpr compiles an agent-typed expression.
func (c *compiler) agentExpr(e Expr) (aexpr, error) {
	switch ex := e.(type) {
	case *This:
		return func(fr *frame) *agent.Agent { return fr.self }, nil
	case *Ref:
		ri, ok := c.ck.Refs[ex]
		if !ok || ri.kind != refAgent {
			return nil, errAt(ex.Pos, "%q is not an agent variable", ex.Name)
		}
		slot := ri.index
		return func(fr *frame) *agent.Agent { return fr.agents[slot] }, nil
	}
	return nil, fmt.Errorf("brasil: not an agent expression: %T", e)
}

func (c *compiler) isAgent(e Expr) bool {
	switch ex := e.(type) {
	case *This:
		return true
	case *Ref:
		ri, ok := c.ck.Refs[ex]
		return ok && ri.kind == refAgent
	}
	return false
}

// expr compiles a numeric expression; inUpdate selects update-rule
// resolution (bare names are always the agent's own fields there).
func (c *compiler) expr(e Expr, inUpdate bool) (cexpr, error) {
	switch ex := e.(type) {
	case *Num:
		v := ex.Val
		return func(*frame) float64 { return v }, nil

	case *Ref:
		if inUpdate {
			if f, ok := c.ck.Fields[ex.Name]; ok {
				if f.IsState {
					idx := c.ck.StateIdx[ex.Name]
					return func(fr *frame) float64 { return fr.self.State[idx] }, nil
				}
				idx := c.ck.EffectIdx[ex.Name]
				return func(fr *frame) float64 { return fr.self.Effect[idx] }, nil
			}
			return nil, errAt(ex.Pos, "undefined name %q in update rule", ex.Name)
		}
		ri, ok := c.ck.Refs[ex]
		if !ok {
			return nil, errAt(ex.Pos, "unresolved name %q", ex.Name)
		}
		switch ri.kind {
		case refLocal:
			slot := ri.index
			return func(fr *frame) float64 { return fr.locals[slot] }, nil
		case refState:
			idx := ri.index
			return func(fr *frame) float64 { return fr.self.State[idx] }, nil
		case refEffect:
			idx := ri.index
			return func(fr *frame) float64 { return fr.self.Effect[idx] }, nil
		default:
			return nil, errAt(ex.Pos, "agent variable %q used as a number", ex.Name)
		}

	case *FieldRef:
		on, err := c.agentExpr(ex.On)
		if err != nil {
			return nil, err
		}
		ri := c.ck.FieldOf[ex]
		idx := ri.index
		if ri.kind == refState {
			return func(fr *frame) float64 { return on(fr).State[idx] }, nil
		}
		return func(fr *frame) float64 { return on(fr).Effect[idx] }, nil

	case *Unary:
		x, err := c.expr(ex.X, inUpdate)
		if err != nil {
			return nil, err
		}
		if ex.Op == "-" {
			return func(fr *frame) float64 { return -x(fr) }, nil
		}
		return func(fr *frame) float64 { return b2f(x(fr) == 0) }, nil

	case *Binary:
		if (ex.Op == "==" || ex.Op == "!=") && (c.isAgent(ex.L) || c.isAgent(ex.R)) {
			l, err := c.agentExpr(ex.L)
			if err != nil {
				return nil, err
			}
			r, err := c.agentExpr(ex.R)
			if err != nil {
				return nil, err
			}
			eq := ex.Op == "=="
			return func(fr *frame) float64 {
				la, ra := l(fr), r(fr)
				same := la != nil && ra != nil && la.ID == ra.ID
				return b2f(same == eq)
			}, nil
		}
		l, err := c.expr(ex.L, inUpdate)
		if err != nil {
			return nil, err
		}
		r, err := c.expr(ex.R, inUpdate)
		if err != nil {
			return nil, err
		}
		switch ex.Op {
		case "+":
			return func(fr *frame) float64 { return l(fr) + r(fr) }, nil
		case "-":
			return func(fr *frame) float64 { return l(fr) - r(fr) }, nil
		case "*":
			return func(fr *frame) float64 { return l(fr) * r(fr) }, nil
		case "/":
			return func(fr *frame) float64 { return l(fr) / r(fr) }, nil
		case "%":
			return func(fr *frame) float64 { return math.Mod(l(fr), r(fr)) }, nil
		case "<":
			return func(fr *frame) float64 { return b2f(l(fr) < r(fr)) }, nil
		case "<=":
			return func(fr *frame) float64 { return b2f(l(fr) <= r(fr)) }, nil
		case ">":
			return func(fr *frame) float64 { return b2f(l(fr) > r(fr)) }, nil
		case ">=":
			return func(fr *frame) float64 { return b2f(l(fr) >= r(fr)) }, nil
		case "==":
			return func(fr *frame) float64 { return b2f(l(fr) == r(fr)) }, nil
		case "!=":
			return func(fr *frame) float64 { return b2f(l(fr) != r(fr)) }, nil
		case "&&":
			return func(fr *frame) float64 { return b2f(l(fr) != 0 && r(fr) != 0) }, nil
		case "||":
			return func(fr *frame) float64 { return b2f(l(fr) != 0 || r(fr) != 0) }, nil
		}
		return nil, errAt(ex.Pos, "unknown operator %q", ex.Op)

	case *Call:
		return c.call(ex, inUpdate)

	case *This:
		return nil, errAt(ex.Pos, "this used as a number")
	}
	return nil, fmt.Errorf("brasil: unknown expression %T", e)
}

func (c *compiler) call(ex *Call, inUpdate bool) (cexpr, error) {
	switch ex.Name {
	case "rand":
		return func(fr *frame) float64 { return fr.u.RNG.Float64() }, nil
	case "dist":
		a, err := c.agentExpr(ex.Args[0])
		if err != nil {
			return nil, err
		}
		b, err := c.agentExpr(ex.Args[1])
		if err != nil {
			return nil, err
		}
		xi, yi := c.ck.StateIdx["x"], c.ck.StateIdx["y"]
		return func(fr *frame) float64 {
			aa, bb := a(fr), b(fr)
			return math.Hypot(aa.State[xi]-bb.State[xi], aa.State[yi]-bb.State[yi])
		}, nil
	}
	args := make([]cexpr, len(ex.Args))
	for i, a := range ex.Args {
		e, err := c.expr(a, inUpdate)
		if err != nil {
			return nil, err
		}
		args[i] = e
	}
	switch ex.Name {
	case "abs":
		return func(fr *frame) float64 { return math.Abs(args[0](fr)) }, nil
	case "sqrt":
		return func(fr *frame) float64 { return math.Sqrt(args[0](fr)) }, nil
	case "floor":
		return func(fr *frame) float64 { return math.Floor(args[0](fr)) }, nil
	case "exp":
		return func(fr *frame) float64 { return math.Exp(args[0](fr)) }, nil
	case "log":
		return func(fr *frame) float64 { return math.Log(args[0](fr)) }, nil
	case "sin":
		return func(fr *frame) float64 { return math.Sin(args[0](fr)) }, nil
	case "cos":
		return func(fr *frame) float64 { return math.Cos(args[0](fr)) }, nil
	case "min":
		return func(fr *frame) float64 { return math.Min(args[0](fr), args[1](fr)) }, nil
	case "max":
		return func(fr *frame) float64 { return math.Max(args[0](fr), args[1](fr)) }, nil
	case "pow":
		return func(fr *frame) float64 { return math.Pow(args[0](fr), args[1](fr)) }, nil
	case "cond":
		return func(fr *frame) float64 {
			c, a, b := args[0](fr), args[1](fr), args[2](fr)
			if c != 0 {
				return a
			}
			return b
		}, nil
	}
	return nil, errAt(ex.Pos, "unknown function %q", ex.Name)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
