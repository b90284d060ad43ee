package mapreduce

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: for random partition counts, item counts, load placements and
// tick counts, the runtime conserves every item (nothing is lost or
// duplicated by the exchange machinery) and routes each to its closed-form
// owner, with concurrent partitions.
func TestQuickConservationAndParallelEquivalence(t *testing.T) {
	f := func(seed int64, nw, ni, nt uint8) bool {
		workers := int(nw%6) + 1
		items := int(ni % 40)
		ticks := int(nt%8) + 1
		rng := rand.New(rand.NewSource(seed))

		// Random deterministic routing: each item hops by a per-item
		// stride derived from its ID.
		job := Job[rec]{
			Name: "quick",
			Map: func(ctx *Ctx, v rec, emit Emit[rec]) {
				stride := v.ID%workers + 1
				v.Owner = (v.Owner + stride) % workers
				emit(v.Owner, v)
			},
			Reduce1: func(ctx *Ctx, vs []rec, emit Emit[rec]) {
				for _, v := range vs {
					v.Val++
					emit(v.Owner, v)
				}
			},
			SizeOf: sizeRec,
		}
		r := New(job, Config{Workers: workers})
		for i := 0; i < items; i++ {
			// The loading partition is arbitrary: Map routes by Owner.
			r.Load(rng.Intn(workers), []rec{{ID: i, Owner: i % workers}})
		}
		if err := r.RunTicks(ticks); err != nil {
			return false
		}
		all := sortedItems(r)
		if len(all) != items {
			return false
		}
		for i, it := range all {
			if it.ID != i || it.Val != float64(ticks) { // one increment per tick
				return false
			}
			if it.Owner != (i%workers+ticks*(i%workers+1))%workers {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
