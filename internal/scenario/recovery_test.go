package scenario

import (
	"testing"

	"github.com/bigreddata/brace/internal/cluster"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/spatial"
)

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
			mkrun := func(failures *cluster.FailurePlan) *engine.Distributed {
				t.Helper()
				m, pop, err := sp.New(testConfig(sp, 13))
				if err != nil {
					t.Fatal(err)
				}
				e, err := engine.NewDistributed(m, pop, engine.Options{
					Workers: workers, Index: spatial.KindKDTree, Seed: 13,
					EpochTicks: epochTicks, CheckpointEveryEpochs: 1,
					Failures: failures,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := e.RunTicks(ticks); err != nil {
					t.Fatal(err)
				}
				return e
			}

			ref := mkrun(nil)
			faulty := mkrun(cluster.NewFailurePlan().CrashAt(crashTick, 2))

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

// A crash that wipes a worker's memory before the first periodic
// checkpoint must still recover — the runtime always holds a tick-0
// rollback point.
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
		Failures: cluster.NewFailurePlan().CrashAt(2, 1),
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
