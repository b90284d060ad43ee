package engine

import (
	"errors"
	"slices"
	"testing"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/cluster"
	"github.com/bigreddata/brace/internal/mapreduce"
	"github.com/bigreddata/brace/internal/transport"
)

// The map phase's replicas are arena snapshots: on strips narrower than
// the visibility every agent replicates to several partitions, and its
// replicas share one copy of its State — equal to the owner's, never the
// owner's array — while each has its own Envelope and agent header. A
// local model's replicas all share one read-only Effect, the identity θ,
// which is never an owner's; a non-local model's each own a copy of the
// owner's, since reduce₁ folds partials into it. Mutating the owned agent
// afterwards leaves them as they were, and a second map phase on the same
// worker allocates nothing.
func TestReplicaSnapshots(t *testing.T) {
	const workers, vis = 8, 5.0
	flock, push := newFlockModel(vis), newPushModel(vis)
	for _, tc := range []struct {
		name  string
		model Model
		s     *agent.Schema
	}{
		{"local", flock, flock.s},
		{"non-local", push, push.s},
	} {
		t.Run(tc.name, func(t *testing.T) { checkReplicaSnapshots(t, tc.model, tc.s, workers, vis) })
	}
}

func checkReplicaSnapshots(t *testing.T, m Model, s *agent.Schema, workers int, vis float64) {
	e, err := NewDistributed(m, makePop(s, 200, 20, 3), Options{Workers: workers, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r := e.Partition().Region(1); r.Max.X-r.Min.X >= vis {
		t.Fatalf("strip %v is not narrower than visibility %v", r, vis)
	}
	owned := map[agent.ID]*agent.Agent{}
	replicas := map[agent.ID][]*Envelope{}
	out := make([][]*Envelope, workers)
	emit := func(p int, env *Envelope) { out[p] = append(out[p], env) }
	mapAll := func() {
		for p := range out {
			out[p] = out[p][:0]
		}
		for w := 0; w < workers; w++ {
			e.mapPhase(&mapreduce.Ctx{Worker: w, Phase: mapreduce.PhaseMap}, e.rt.Values(w), emit)
		}
	}
	mapAll()
	for _, batch := range out {
		for _, env := range batch {
			if env.Replica {
				replicas[env.A.ID] = append(replicas[env.A.ID], env)
			} else {
				owned[env.A.ID] = env.A
			}
		}
	}
	local := !modelNonLocal(m)
	theta := s.IdentityEffects()
	var shared []float64 // the one Effect every replica of a local model holds
	sharing := 0
	for id, rs := range replicas {
		a := owned[id]
		for i, r := range rs {
			if !slices.Equal(r.A.State, a.State) || !slices.Equal(r.A.Effect, a.Effect) {
				t.Fatalf("agent %d: replica %v differs from its owner %v", id, r.A, a)
			}
			if !slices.Equal(r.A.Effect, theta) {
				t.Fatalf("agent %d: replica Effect %v is not θ %v", id, r.A.Effect, theta)
			}
			if &r.A.State[0] == &a.State[0] || &r.A.Effect[0] == &a.Effect[0] {
				t.Fatalf("agent %d: replica aliases its owner", id)
			}
			if local {
				if shared == nil {
					shared = r.A.Effect
				}
				if &r.A.Effect[0] != &shared[0] {
					t.Fatalf("agent %d: a local model's replicas hold separate Effects", id)
				}
				if cap(r.A.Effect) != len(r.A.Effect) {
					t.Fatalf("agent %d: the shared θ is not capped (len %d, cap %d)", id, len(r.A.Effect), cap(r.A.Effect))
				}
			}
			if i == 0 {
				continue
			}
			if &r.A.State[0] != &rs[0].A.State[0] {
				t.Fatalf("agent %d: replicas hold separate State copies", id)
			}
			if r == rs[0] || r.A == rs[0].A {
				t.Fatalf("agent %d: replicas share an Envelope or agent header", id)
			}
			if !local && &r.A.Effect[0] == &rs[0].A.Effect[0] {
				t.Fatalf("agent %d: a non-local model's replicas share an Effect", id)
			}
			sharing++
		}
	}
	if sharing == 0 {
		t.Fatal("no agent replicated to two partitions; the test's geometry is mis-tuned")
	}

	before := map[agent.ID]*agent.Agent{}
	for id, rs := range replicas {
		before[id] = rs[0].A.Clone()
		a := owned[id]
		for i := range a.State {
			a.State[i] += 100
		}
		for i := range a.Effect {
			a.Effect[i] += 100
		}
	}
	for id, rs := range replicas {
		for _, r := range rs {
			if !r.A.Equal(before[id]) {
				t.Fatalf("agent %d: mutating the owner changed a replica to %v", id, r.A)
			}
		}
	}

	if allocs := testing.AllocsPerRun(4, mapAll); allocs != 0 {
		t.Errorf("a refilling map phase allocates %v times, want 0", allocs)
	}
}

// An envelope a peer may send but the engine cannot take fails the run
// with a *mapreduce.MessageError instead of panicking the phase: one
// without an agent, one whose State is shorter than the schema's, and an
// owned one outside a migration tick (no cut changed, so every owned agent
// sent itself).
func TestMalformedEnvelopeFailsTheRun(t *testing.T) {
	m := newFlockModel(2)
	pop := makePop(m.s, 40, 20, 1)
	for _, tc := range []struct {
		name string
		env  *Envelope
	}{
		{"no agent", &Envelope{Replica: true}},
		{"short state", &Envelope{A: &agent.Agent{ID: 99, State: []float64{1}, Effect: m.s.IdentityEffects()}, Replica: true}},
		{"owned outside a migration tick", &Envelope{A: agent.New(m.s, 99)}},
	} {
		tr := transport.NewMem(2)
		e, err := NewDistributed(m, clonePop(pop), Options{Workers: 2, Transport: tr, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Send(cluster.Message{From: 1, To: 0, Tag: int(mapreduce.PhaseMap), Payload: &[]*Envelope{tc.env}}); err != nil {
			t.Fatal(err)
		}
		var me *mapreduce.MessageError
		if err := e.RunTicks(1); !errors.As(err, &me) || me.Worker != 0 || me.Reason == "" {
			t.Errorf("%s: RunTicks = %v, want a *MessageError refusing the value at worker 0", tc.name, err)
		}
	}
}
