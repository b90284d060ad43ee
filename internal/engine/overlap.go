// The two-pass tick, the engine's one reduceᵗ₁. A bulk-synchronous tick
// wastes the map phase's network window: every worker blocks at the phase
// barrier until all peer envelopes arrive, even though most of its owned
// agents cannot see across a partition cut and need nothing from the wire.
// The split reduce computes those agents while boundary envelopes are in
// flight:
//
//	map (distribute/replicate)  ──FlushPhase──►  peers' markers in flight
//	  early pass: build core index over self-sent envelopes,
//	              classify interior vs boundary, probe interior
//	──AwaitPhase──►  phase drained
//	  late pass:  probe boundary + halo-owned agents against core ∪ halo,
//	              then update all owned agents, or ship non-local
//	              partials to reduceᵗ₂
//
// The split changes scheduling, never results: interior agents are
// exactly those whose visibility disc lies strictly inside the strip, so
// their candidate sets cannot contain a peer-sent copy, and the late
// pass's blocks join core and halo candidates by ID rank (haloJoin, the
// rank bitset in queryEnv.build) — the same ascending-ID visible sequence
// one index over every copy produces. Update order is immaterial
// (state-effect pattern; per-agent RNG is a function of (seed, tick, ID)),
// and so is the order of local-effect query phases, which part.query runs
// grouped by grid cell. An unsplit tick probes every owned agent in the
// late pass; a non-local model's in ascending ID order, the order its
// Assigns fold in.
package engine

import (
	"cmp"
	"slices"

	"github.com/bigreddata/brace/internal/cluster"
	"github.com/bigreddata/brace/internal/mapreduce"
)

// neverTick is the "no tick" sentinel for noSplitTick.
const neverTick = ^uint64(0)

// overlapBufs carries one partition's state from the early to the late
// pass of a tick. Reused every tick; purely allocation avoidance.
type overlapBufs struct {
	split    bool        // this tick's interior pass ran
	core     []*Envelope // every self-sent envelope, ID-sorted: core[slot]
	owned    int         // owned agents: core's, then the migrants'
	boundary []int32     // owned rows deferred to the late pass
	visited  int64       // the tick's Visited so far: both passes

	halo haloJoin // every peer-sent copy, ID-sorted, indexed for the boundary probes
}

// reduce1Early is the interior pass of reduceᵗ₁, running in the window
// between the map phase's local flush and the peer barrier on exactly the
// envelopes this partition sent to itself. Owned agents always self-send —
// an agent's owner at map time is the partition that just updated it —
// except on the one tick right after a live cut change, so self is the
// full owned set whenever the split is allowed. The pass builds the core
// index over self and probes the agents whose visibility disc lies
// strictly inside the partition's strip: those can never see a peer-sent
// copy, so their query phases are exact without the halo.
func (e *Distributed) reduce1Early(ctx *mapreduce.Ctx, self []*Envelope) {
	w := ctx.Worker
	ob := &e.obufs[w]
	ownedSlots := e.prepare(w, self)
	ob.core, ob.owned = self, len(ownedSlots)
	ob.visited = 0
	vis := e.schema.Visibility
	ob.split = ctx.Tick != e.noSplitTick && !e.nonLocal && vis > 0
	ob.boundary = ob.boundary[:0]
	if !ob.split {
		// Every probe waits for the halo: right after a cut change owned
		// agents may still be in flight, unbounded visibility crosses every
		// cut, and non-local effects must fold in one ascending-ID sweep.
		ob.boundary = append(ob.boundary, ownedSlots...)
		return
	}

	// Classify by the exact visibility bound: a foreign agent is at least
	// as far as its distance to this partition's region, so strictly more
	// than vis from every face of Region(w) means nothing outside can be
	// visible. Strict, because a foreign agent at exactly distance vis is
	// visible (the radius comparisons are closed). A strip's y bounds are
	// ±Inf, so the y terms hold for every finite position and the test
	// reduces to the two cuts. Sound because Strips.Locate compares x
	// against the exact cut values Region returns. The interior slots are
	// compacted in place: each lands at or before the index it is read from.
	region := e.part.Region(w)
	p := e.parts[w]
	interior := ownedSlots[:0]
	for _, slot := range ownedSlots {
		pos := p.copies[slot].Pos(e.schema)
		if pos.X-region.Min.X > vis && region.Max.X-pos.X > vis &&
			pos.Y-region.Min.Y > vis && region.Max.Y-pos.Y > vis {
			interior = append(interior, slot)
		} else {
			ob.boundary = append(ob.boundary, slot)
		}
	}
	ob.visited += p.query(interior, nil)
}

// reduce1Late finishes reduceᵗ₁ once the map phase has fully drained. rest
// holds everything peers sent this partition: replica copies and, on the
// tick right after a cut change, owned agents arriving from their previous
// owners. The halo is indexed once (haloJoin.build: ID ranks against the
// core, a cell grid over the positions), boundary and halo-owned query
// phases probe core and halo together, and the tick's compute — every
// candidate the partition's Visited gauge counted in both passes, plus the
// owned agents — is charged to the virtual clock
// as one superstep. Then local effects update every owned agent (in any
// order: an update reads only its own agent, and its randomness is a
// function of seed, tick and ID); non-local effects route every owned copy
// and every touched replica to its owner for the global ⊕ of reduceᵗ₂.
func (e *Distributed) reduce1Late(ctx *mapreduce.Ctx, rest []*Envelope, emit mapreduce.Emit[*Envelope]) {
	w := ctx.Worker
	ob := &e.obufs[w]
	p := e.parts[w]

	sortByID(rest)
	// Cleared, not just truncated: a stale pointer past the new length
	// would keep a whole decoded frame's block of replicas alive.
	clear(ob.halo.agents)
	ob.halo.agents = ob.halo.agents[:0]
	ncore := int32(len(p.copies))
	migrants := false
	for j, env := range rest {
		if !env.Replica {
			// A migrant owned agent has no core slot: it probes as halo
			// row j. The tick is unsplit: checkPeer refuses an owned
			// envelope from a peer on a split tick.
			ob.boundary = append(ob.boundary, ncore+int32(j))
			ob.owned++
			migrants = true
		}
		ob.halo.agents = append(ob.halo.agents, env.A)
	}
	if migrants {
		// The tick is unsplit, so boundary is every owned row: ordered by
		// agent ID it is the probe order a non-local model's effects fold
		// in.
		envAt := func(row int32) *Envelope {
			if row < ncore {
				return ob.core[row]
			}
			return rest[row-ncore]
		}
		slices.SortFunc(ob.boundary, func(a, b int32) int { return cmp.Compare(envAt(a).A.ID, envAt(b).A.ID) })
	}
	if len(ob.boundary) > 0 {
		// Peer-sent copies join the probes through the halo index; with
		// none, the core index answers them alone.
		var halo *haloJoin
		if len(ob.halo.agents) > 0 {
			p.join(&ob.halo)
			halo = &ob.halo
		}
		ob.visited += p.query(ob.boundary, halo)
	}
	e.wVisited[w] += ob.visited
	e.wOwned[w] += int64(ob.owned)
	if e.vclock != nil {
		e.vclock.ChargeCompute(cluster.NodeID(w), ob.visited, int64(ob.owned))
	}
	core := ob.core
	ob.core = nil

	// Local effects: update every owned agent. Non-local ones: ship every
	// owned copy, and every touched replica — core and halo alike, since
	// right after a cut change a partition may replicate an agent it just
	// gave up to itself — to the agent's owner for reduce₂.
	for _, envs := range [2][]*Envelope{core, rest} {
		for _, env := range envs {
			switch {
			case !e.nonLocal:
				if !env.Replica {
					e.updateAndEmit(ctx, env, emit)
				}
			case !env.Replica:
				// An owned copy is at its owner already.
				env.SrcPart = int32(w)
				emit(w, env)
			case effectsAreIdentity(e.combs, env.A.Effect):
				// untouched replica: nothing to aggregate
			default:
				env.SrcPart = int32(w)
				emit(e.part.Locate(env.A.Pos(e.schema)), env)
			}
		}
	}
}
