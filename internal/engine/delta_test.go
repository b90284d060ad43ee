package engine

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/bigreddata/brace/internal/agent"
)

func env(id uint64, state, effect []float64, dead, replica bool, src int32) *Envelope {
	return &Envelope{
		A: &agent.Agent{
			ID:     agent.ID(id),
			State:  append([]float64(nil), state...),
			Effect: append([]float64(nil), effect...),
			Dead:   dead,
		},
		Replica: replica,
		SrcPart: src,
	}
}

// bitsEqual compares float vectors on bit patterns so NaN payloads and
// -0 count as round-tripped (agent.Equal's != would reject NaN == NaN).
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func envsEqual(t *testing.T, want, got []*Envelope) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("lengths differ: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.A.ID != g.A.ID || w.A.Dead != g.A.Dead ||
			!bitsEqual(w.A.State, g.A.State) || !bitsEqual(w.A.Effect, g.A.Effect) ||
			w.Replica != g.Replica || w.SrcPart != g.SrcPart {
			t.Fatalf("envelope %d differs:\n  want %v (replica=%v src=%d)\n  got  %v (replica=%v src=%d)",
				i, w.A, w.Replica, w.SrcPart, g.A, g.Replica, g.SrcPart)
		}
	}
}

// The reassembly invariant: base + delta reproduces the current state
// exactly, including slice order, for every kind of change an epoch can
// produce — moves, flag flips, migrations (SrcPart), births and deaths.
func TestDeltaRoundTrip(t *testing.T) {
	base := []*Envelope{
		env(1, []float64{1, 2, 0}, []float64{0, 0}, false, false, 0),
		env(2, []float64{3, 4, 1}, []float64{5, 0}, false, false, 0),
		env(7, []float64{9, 9, 2}, []float64{1, 1}, false, false, 1),
		env(9, []float64{0, 0, 0}, []float64{0, 0}, true, false, 0),
	}
	cur := []*Envelope{
		env(2, []float64{3.5, 4, 1}, []float64{5, 0}, false, false, 0),                // one field moved
		env(1, []float64{1, 2, 0}, []float64{0, 0}, false, false, 0),                  // unchanged, reordered
		env(7, []float64{9, 9, 2}, []float64{1, 1}, false, false, 3),                  // migrated (SrcPart)
		env(12, []float64{8, 8, 8}, []float64{2, 2}, false, true, 1),                  // born
		env(13, []float64{math.Copysign(0, -1), 1, math.NaN()}, nil, false, false, 0), // born, odd floats
		// agent 9 removed
	}
	delta, ok := DiffPartition(base, cur)
	if !ok {
		t.Fatal("DiffPartition refused a plain partition")
	}
	got, err := ApplyDelta(base, delta)
	if err != nil {
		t.Fatal(err)
	}
	envsEqual(t, cur, got)

	// The baseline must be untouched (it is the previous rollback point).
	if base[1].A.State[0] != 3 || base[2].SrcPart != 1 {
		t.Fatal("ApplyDelta mutated the baseline")
	}
	// -0 must survive as -0 (bit-pattern comparison).
	if math.Signbit(got[4].A.State[0]) != true {
		t.Error("-0 did not round-trip")
	}
	if !math.IsNaN(got[4].A.State[2]) {
		t.Error("NaN did not round-trip")
	}
}

func TestDeltaEmptyAndIdentity(t *testing.T) {
	// Identity delta: nothing changed.
	base := []*Envelope{env(1, []float64{1}, []float64{2}, false, false, 0)}
	delta, ok := DiffPartition(base, base)
	if !ok {
		t.Fatal("identity diff refused")
	}
	got, err := ApplyDelta(base, delta)
	if err != nil {
		t.Fatal(err)
	}
	envsEqual(t, base, got)
	if len(delta) > 8 {
		t.Errorf("identity delta is %d bytes, want a handful", len(delta))
	}

	// Empty current state: everything removed.
	delta, ok = DiffPartition(base, nil)
	if !ok {
		t.Fatal("empty diff refused")
	}
	got, err = ApplyDelta(base, delta)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d envelopes, want 0", len(got))
	}

	// Empty base: everything fresh.
	delta, ok = DiffPartition(nil, base)
	if !ok {
		t.Fatal("fresh-only diff refused")
	}
	got, err = ApplyDelta(nil, delta)
	if err != nil {
		t.Fatal(err)
	}
	envsEqual(t, base, got)
}

// Duplicate IDs (replica copies present) make the baseline ambiguous: the
// codec must refuse so the caller ships full state.
func TestDeltaRefusesDuplicateIDs(t *testing.T) {
	dup := []*Envelope{
		env(1, []float64{1}, nil, false, false, 0),
		env(1, []float64{2}, nil, false, true, 1),
	}
	plain := []*Envelope{env(1, []float64{1}, nil, false, false, 0)}
	if _, ok := DiffPartition(dup, plain); ok {
		t.Error("diff against a base with duplicate IDs accepted")
	}
	if _, ok := DiffPartition(plain, dup); ok {
		t.Error("diff of a current state with duplicate IDs accepted")
	}
}

func TestDeltaRejectsCorruptBlobs(t *testing.T) {
	base := []*Envelope{env(1, []float64{1, 2}, []float64{3}, false, false, 0)}
	cur := []*Envelope{env(1, []float64{5, 2}, []float64{3}, false, false, 0)}
	delta, ok := DiffPartition(base, cur)
	if !ok {
		t.Fatal("diff refused")
	}
	if _, err := ApplyDelta(base, delta[:len(delta)-1]); err == nil {
		t.Error("truncated delta accepted")
	}
	if _, err := ApplyDelta(base, append(append([]byte(nil), delta...), 0xff)); err == nil {
		t.Error("trailing garbage accepted")
	}
	if _, err := ApplyDelta(nil, delta); err == nil {
		t.Error("delta against the wrong base accepted")
	}
	bad := append([]byte(nil), delta...)
	bad[0] = 99
	if _, err := ApplyDelta(base, bad); err == nil {
		t.Error("unknown version accepted")
	}
}

// Randomized reassembly: many epochs of random churn, each delta applied
// on top of the previous reconstruction, must track the truth exactly —
// the chained form a keyframe-plus-deltas checkpoint store relies on.
func TestDeltaChainRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	truth := make([]*Envelope, 0, 64)
	nextID := uint64(1)
	for i := 0; i < 40; i++ {
		truth = append(truth, env(nextID, []float64{rng.Float64(), rng.Float64(), float64(rng.Intn(3))},
			[]float64{0, 0, 0, 0}, false, false, int32(rng.Intn(4))))
		nextID++
	}
	reconstructed := CloneEnvelopes(truth)
	for epoch := 0; epoch < 25; epoch++ {
		prev := CloneEnvelopes(truth)
		// Mutate: move some agents, flip flags, spawn, remove, shuffle.
		for _, e := range truth {
			if rng.Float64() < 0.7 {
				e.A.State[0] += rng.NormFloat64()
			}
			if rng.Float64() < 0.2 {
				e.A.Effect[rng.Intn(4)] = rng.Float64()
			}
			if rng.Float64() < 0.05 {
				e.A.Dead = !e.A.Dead
			}
			if rng.Float64() < 0.05 {
				e.SrcPart = int32(rng.Intn(4))
			}
		}
		if rng.Float64() < 0.5 {
			truth = append(truth, env(nextID, []float64{rng.Float64(), 0, 0}, []float64{0, 0, 0, 0}, false, false, 0))
			nextID++
		}
		if len(truth) > 4 && rng.Float64() < 0.5 {
			k := rng.Intn(len(truth))
			truth = append(truth[:k], truth[k+1:]...)
		}
		rng.Shuffle(len(truth), func(i, j int) { truth[i], truth[j] = truth[j], truth[i] })

		delta, ok := DiffPartition(prev, truth)
		if !ok {
			t.Fatalf("epoch %d: diff refused", epoch)
		}
		var err error
		reconstructed, err = ApplyDelta(reconstructed, delta)
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		envsEqual(t, truth, reconstructed)
	}
}

// The point of the exercise: a delta of a typical epoch (every agent
// moved, most other fields quiet) must be materially smaller than the
// full state a keyframe ships: the partition's column block.
func TestDeltaSmallerThanFullState(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := make([]*Envelope, 0, 200)
	for i := 0; i < 200; i++ {
		state := []float64{rng.Float64() * 30, rng.Float64() * 30, rng.Float64(), rng.Float64(), float64(i % 3)}
		effect := make([]float64, 8)
		base = append(base, env(uint64(i+1), state, effect, false, false, int32(i%4)))
	}
	cur := CloneEnvelopes(base)
	for _, e := range cur {
		e.A.State[0] += rng.NormFloat64() // drift: positions move,
		e.A.State[1] += rng.NormFloat64() // class and effects stay
	}
	delta, ok := DiffPartition(base, cur)
	if !ok {
		t.Fatal("diff refused")
	}
	full := blockBytes(t, cur)
	t.Logf("delta %dB, full block %dB", len(delta), full)
	if len(delta)*2 > full {
		t.Errorf("delta %dB is not materially smaller than full %dB", len(delta), full)
	}
}

// FuzzApplyDelta feeds arbitrary bytes, as a checkpoint or watch-stream
// frame off the network would, to ApplyDelta against a fixed base. It must
// return an error or a result, never panic, and allocate no more than the
// blob's length and the base justify. A result must be a state the codec
// can encode: diffed against the base again, it decodes to itself.
func FuzzApplyDelta(f *testing.F) {
	base := []*Envelope{
		env(1, []float64{1, 2, 0}, []float64{0, 0}, false, false, 0),
		env(2, []float64{3, 4, 1}, []float64{5, 0}, false, false, 0),
		env(7, []float64{9, 9, 2}, []float64{1, 1}, true, false, 1),
	}
	moved := CloneEnvelopes(base)
	moved[0].A.State[0] = 1.5
	moved[2].SrcPart, moved[2].Replica = 3, true
	born := append(CloneEnvelopes(base[:1]), env(12, []float64{8, math.NaN()}, []float64{2}, false, true, 2))
	for _, cur := range [][]*Envelope{nil, base, moved, born} { // empty, same, patch, fresh
		delta, ok := DiffPartition(base, cur)
		if !ok {
			f.Fatal("seed diff refused")
		}
		f.Add(delta)
	}
	var baseBytes uint64
	for _, e := range base {
		baseBytes += 256 + 8*uint64(len(e.A.State)+len(e.A.Effect))
	}
	f.Fuzz(func(t *testing.T, delta []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := ApplyDelta(base, delta)
		runtime.ReadMemStats(&after)
		if allocated, limit := after.TotalAlloc-before.TotalAlloc, 64<<10+128*uint64(len(delta))+2*baseBytes; allocated > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(delta), allocated, limit)
		}
		if err != nil {
			return
		}
		again, ok := DiffPartition(base, out)
		if !ok {
			t.Fatalf("decoded state cannot be re-encoded: %v", out)
		}
		back, err := ApplyDelta(base, again)
		if err != nil {
			t.Fatalf("re-encoded state does not decode: %v", err)
		}
		envsEqual(t, out, back)
	})
}
