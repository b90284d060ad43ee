package scenario

import (
	"fmt"
	"testing"

	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/spatial"
	"github.com/bigreddata/brace/internal/transport"
)

// crashAt returns a transport for workers partitions that closes — the
// in-process crash — in the given phase (0: map, 1: reduce₁, 2: reduce₂)
// of the given tick of a run of m, before that phase's flush or, with
// await, after its marker went out and before its drain. The barrier
// count assumes no earlier rollback.
func crashAt(m engine.Model, workers, tick, phase int, await bool) transport.Transport {
	mem := transport.NewMem(workers)
	return &transport.FaultAt{
		Transport: mem, Phase: phasesPerTick(m)*tick + phase + 1, Await: await,
		Do: func() { mem.Close() },
	}
}

// phasesPerTick is the number of phase barriers one tick of m passes: map
// and reduce₁, and reduce₂ for non-local effects.
func phasesPerTick(m engine.Model) int {
	if nl, ok := m.(engine.NonLocalModel); ok && nl.HasNonLocalEffects() {
		return 3
	}
	return 2
}

// TestRecoveryBitIdenticalOnNewScenarios extends the checkpoint/recovery
// coverage to the workloads this reproduction added: epidemic and evacuate
// must roll back to the last coordinated checkpoint after a mid-run worker
// crash and re-execute to *bit-identical* final state — the §3.3 recovery
// discipline is scenario-independent, and only the original workloads
// exercised it before.
func TestRecoveryBitIdenticalOnNewScenarios(t *testing.T) {
	const (
		workers    = 4
		ticks      = 20
		epochTicks = 5
		crashTick  = 12 // between the tick-10 and tick-15 checkpoints
	)
	for _, name := range []string{"epidemic", "evacuate"} {
		name := name
		t.Run(name, func(t *testing.T) {
			sp, ok := Lookup(name)
			if !ok {
				t.Fatalf("scenario %q not registered", name)
			}
			mkrun := func(crash bool) *engine.Distributed {
				t.Helper()
				m, pop, err := sp.New(testConfig(sp, 13))
				if err != nil {
					t.Fatal(err)
				}
				opts := engine.Options{
					Workers: workers, Index: spatial.KindKDTree, Seed: 13,
					EpochTicks: epochTicks, CheckpointEveryEpochs: 1,
				}
				if crash {
					opts.Transport = crashAt(m, workers, crashTick, 0, false)
				}
				e, err := engine.NewDistributed(m, pop, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.RunTicks(ticks); err != nil {
					t.Fatal(err)
				}
				return e
			}

			ref := mkrun(false)
			faulty := mkrun(true)

			if got := faulty.Recoveries(); got < 1 {
				t.Fatalf("expected at least one recovery, got %d", got)
			}
			if faulty.Tick() != ticks {
				t.Fatalf("faulty run stopped at tick %d", faulty.Tick())
			}
			a, b := ref.Agents(), faulty.Agents()
			if len(a) == 0 {
				t.Fatal("population died out; test config mis-tuned")
			}
			assertExact(t, name+"/recovery", 13, workers, a, b)
		})
	}
}

// A crash before the first periodic checkpoint must still recover — the
// master always holds a tick-0 rollback point.
func TestRecoveryFromInitialCheckpoint(t *testing.T) {
	sp, ok := Lookup("epidemic")
	if !ok {
		t.Fatal("epidemic not registered")
	}
	m, pop, err := sp.New(testConfig(sp, 29))
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.NewDistributed(m, pop, engine.Options{
		Workers: 3, Index: spatial.KindKDTree, Seed: 29,
		EpochTicks: 4,
		// No periodic checkpoints: recovery must rewind to tick 0.
		Transport: crashAt(m, 3, 2, 0, false),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTicks(8); err != nil {
		t.Fatal(err)
	}
	if e.Recoveries() != 1 {
		t.Fatalf("recoveries = %d, want 1", e.Recoveries())
	}

	m2, pop2, err := sp.New(testConfig(sp, 29))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := engine.NewDistributed(m2, pop2, engine.Options{
		Workers: 3, Index: spatial.KindKDTree, Seed: 29, EpochTicks: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RunTicks(8); err != nil {
		t.Fatal(err)
	}
	assertExact(t, "epidemic/tick0-recovery", 29, 3, ref.Agents(), e.Agents())
}

// TestRecoveryAtEveryPhase closes the transport in every phase of one tick
// of every registered scenario — map, reduce₁ and, on non-local models,
// reduce₂ — both before the phase's flush and between its flush and its
// drain, with the load balancer on. Each crash loses its tick and rolls back to the
// checkpoint at tick 8; the run must end bit-identical to the fault-free
// one.
func TestRecoveryAtEveryPhase(t *testing.T) {
	const (
		workers    = 4
		ticks      = 12
		epochTicks = 4
		crashTick  = 9
		seed       = 13
	)
	for _, sp := range All() {
		t.Run(sp.Name, func(t *testing.T) {
			run := func(fault func(engine.Model) transport.Transport) *engine.Distributed {
				t.Helper()
				m, pop, err := sp.New(testConfig(sp, seed))
				if err != nil {
					t.Fatal(err)
				}
				opts := engine.Options{
					Workers: workers, Index: spatial.KindKDTree, Seed: seed,
					EpochTicks: epochTicks, CheckpointEveryEpochs: 1, LoadBalance: true,
				}
				if fault != nil {
					opts.Transport = fault(m)
				}
				e, err := engine.NewDistributed(m, pop, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.RunTicks(ticks); err != nil {
					t.Fatal(err)
				}
				return e
			}
			ref := run(nil)
			if len(ref.Agents()) == 0 {
				t.Fatal("population died out; test config mis-tuned")
			}
			m, _, err := sp.New(testConfig(sp, seed))
			if err != nil {
				t.Fatal(err)
			}
			for phase := 0; phase < phasesPerTick(m); phase++ {
				for _, await := range []bool{false, true} {
					e := run(func(m engine.Model) transport.Transport {
						return crashAt(m, workers, crashTick, phase, await)
					})
					if e.Recoveries() != 1 || e.Tick() != ticks {
						t.Fatalf("phase %d, await %v: Recoveries = %d, Tick = %d, want 1 and %d", phase, await, e.Recoveries(), e.Tick(), ticks)
					}
					assertExact(t, fmt.Sprintf("%s/phase %d, await %v", sp.Name, phase, await), seed, workers, ref.Agents(), e.Agents())
				}
			}
		})
	}
}
