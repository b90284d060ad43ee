package main

import (
	"fmt"
	"time"

	brace "github.com/bigreddata/brace"
	"github.com/bigreddata/brace/internal/agent"
)

// trajectory is the sequential engine's run of the workload's inputs: the
// correctness reference of the partitioned workloads (which must end bit
// for bit where it does) and, in a traced run, the source of the
// population snapshots the per-layer probes work on.
type trajectory struct {
	digest uint64 // at the last tick
	schema *agent.Schema
	// first, prev and last are the population at tick 0, one epoch before
	// the end, and the end; nil unless snapshots were requested.
	first, prev, last []*agent.Agent
	tick              time.Duration // mean time per tick, last epoch excluded
	lists             bool          // the run reused Verlet candidate lists
}

// seqTrajectory runs the workload's model and population on the
// sequential engine for the given number of ticks (a multiple of
// epochTicks).
func (b *bench) seqTrajectory(seed uint64, ticks int, snapshots bool) (*trajectory, error) {
	id := b.rec.begin("reference.sequential")
	defer b.rec.end(id)
	// One core whatever the workload pins: the reference's tick time is
	// the w of the traced report's BSP table.
	defer pinProcs(1)()
	m, pop, err := b.population(seed)
	if err != nil {
		return nil, err
	}
	tr := &trajectory{schema: m.Schema()}
	if snapshots {
		tr.first = agent.Population(pop).Clone()
	}
	sim, err := brace.New(m, pop, brace.Config{Sequential: true, Seed: seed})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := sim.Run(ticks - epochTicks); err != nil {
		return nil, err
	}
	tr.tick = time.Since(t0) / time.Duration(ticks-epochTicks)
	if snapshots {
		tr.prev = agent.Population(sim.Agents()).Clone()
	}
	if err := sim.Run(epochTicks); err != nil {
		return nil, err
	}
	agents := sim.Agents()
	tr.digest = digest(agents)
	if snapshots {
		tr.last = agent.Population(agents).Clone()
	}
	tr.lists = sim.Metrics().CacheReuses > 0
	return tr, nil
}

// partitionedDigest runs the workload's model and population on the
// partitioned in-memory engine for the given number of ticks and returns
// the final digest: the cross-check of the sequential workloads.
func (b *bench) partitionedDigest(seed uint64, ticks int) (uint64, error) {
	id := b.rec.begin("reference.partitioned")
	defer b.rec.end(id)
	sim, err := b.newSim(seed, brace.Config{Workers: checkWorkers})
	if err != nil {
		return 0, err
	}
	if err := sim.Run(ticks); err != nil {
		return 0, err
	}
	return digest(sim.Agents()), nil
}

// verify applies the correctness gate to the laps of one derived seed and
// returns the number of failed epochs: an epoch whose call errored, and
// every epoch of a lap that ended on the wrong digest or needed a
// recovery.
func (b *bench) verify(sub int, laps []*lapStats, want uint64) (failed int, problems []string) {
	for i, ls := range laps {
		before := len(problems)
		fail := func(format string, args ...any) {
			problems = append(problems, fmt.Sprintf("seed %d lap %d: ", sub, i)+fmt.Sprintf(format, args...))
		}
		got := ls.final
		if b.w.sequential {
			// The sequential workloads are the reference for the others;
			// they are themselves checked against the partitioned engine
			// at checkTick, and must repeat their own final state.
			got = ls.check
			if ls.final != laps[0].final {
				fail("final digest %016x differs from lap 0's %016x", ls.final, laps[0].final)
			}
		}
		if got != want {
			fail("digest %016x, reference %016x", got, want)
		}
		if r := ls.dist; r != nil && r.Recoveries+r.StallDrops > 0 {
			fail("%d recoveries, %d stall drops", r.Recoveries, r.StallDrops)
		}
		if len(problems) > before {
			failed += ls.attempted
		} else {
			failed += ls.failed
		}
	}
	return failed, problems
}
