package distrib

import (
	"net"
	"sync"
	"testing"
	"time"

	"github.com/bigreddata/brace/internal/transport"
)

// drainWorker is one in-process worker daemon whose Drain channel the test
// controls. joined closes when the worker's first session attaches, so the
// test can drain it provably mid-run.
type drainWorker struct {
	addr   string
	drain  chan struct{}
	served chan error // ServeWith's return value
	joined chan struct{}
}

func startDrainWorker(t *testing.T) *drainWorker {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	w := &drainWorker{
		addr:   lis.Addr().String(),
		drain:  make(chan struct{}),
		served: make(chan error, 1),
		joined: make(chan struct{}),
	}
	var once sync.Once
	go func() {
		w.served <- ServeWith(lis, ServeOptions{
			Drain: w.drain,
			Wrap: func(tr transport.Transport, h *transport.Hello) transport.Transport {
				once.Do(func() { close(w.joined) })
				return tr
			},
		})
	}()
	return w
}

// The graceful-shutdown satellite: draining a worker mid-run must (1)
// finish the in-flight epoch through its barrier and return nil from
// ServeWith — a clean daemon exit — and (2) read as a death at an epoch
// boundary to the coordinator, which recovers the run on the survivor
// bit-identically to an undrained run.
func TestWorkerDrainMidRunRecovers(t *testing.T) {
	const (
		agents = 120
		seed   = uint64(31)
		parts  = 4
		ticks  = 300
		epoch  = 5
	)
	victim := startDrainWorker(t)
	addrs := []string{startWorkers(t, 1)[0], victim.addr}

	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Run(Options{
			Addrs:    addrs,
			Scenario: "epidemic",
			Agents:   agents, Seed: seed,
			Partitions: parts, Ticks: ticks,
			EpochTicks: epoch, CheckpointEveryEpochs: 1, Tunables: Tunables{DialTimeout: 500 * time.Millisecond},
		})
		done <- outcome{res, err}
	}()

	select {
	case <-victim.joined:
	case <-time.After(30 * time.Second):
		t.Fatal("victim never joined the run")
	}
	time.Sleep(20 * time.Millisecond)
	close(victim.drain)

	select {
	case err := <-victim.served:
		if err != nil {
			t.Fatalf("draining worker exited with error: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("drained worker never exited: the epoch barrier did not release it")
	}

	var got outcome
	select {
	case got = <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("coordinator did not finish after the drain")
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	res := got.res
	if res.Ticks != ticks {
		t.Fatalf("ticks = %d, want %d", res.Ticks, ticks)
	}
	if res.Recoveries < 1 {
		t.Errorf("recoveries = %d, want ≥ 1 (was the drain too late?)", res.Recoveries)
	}
	if res.Procs != 1 {
		t.Errorf("procs = %d, want the 1 survivor", res.Procs)
	}

	want := memReference(t, "epidemic", agents, 0, seed, parts, ticks)
	if len(res.Agents) != len(want) {
		t.Fatalf("population sizes differ: drained %d vs mem %d", len(res.Agents), len(want))
	}
	for i := range want {
		if !want[i].Equal(res.Agents[i]) {
			t.Fatalf("agent %d differs after drain recovery:\n  mem: %v\n  got: %v",
				want[i].ID, want[i], res.Agents[i])
		}
	}
}

// A multi-run worker drains every session it hosts: two concurrent runs
// share the draining worker, and both coordinators must recover their own
// run on the survivor, each bit-identical to its unfailed reference. This
// is the shared-worker failure domain of the bracesimd fleet, driven
// through the graceful path.
func TestWorkerDrainSharedByTwoRuns(t *testing.T) {
	const (
		parts = 4
		ticks = 200
		epoch = 5
	)
	victim := startDrainWorker(t)
	survivor := startWorkers(t, 1)[0] // single-session: serves run A only
	survivorB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { survivorB.Close() })
	go ServeWith(survivorB, ServeOptions{})

	type job struct {
		scenario string
		agents   int
		seed     uint64
		addrs    []string
	}
	jobs := []job{
		{"epidemic", 120, 31, []string{survivor, victim.addr}},
		{"fish", 100, 77, []string{survivorB.Addr().String(), victim.addr}},
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make([]chan outcome, len(jobs))
	for i, j := range jobs {
		done[i] = make(chan outcome, 1)
		i, j := i, j
		go func() {
			res, err := Run(Options{
				Addrs:    j.addrs,
				RunID:    j.scenario,
				Scenario: j.scenario,
				Agents:   j.agents, Seed: j.seed,
				Partitions: parts, Ticks: ticks,
				EpochTicks: epoch, CheckpointEveryEpochs: 1, Tunables: Tunables{DialTimeout: 500 * time.Millisecond},
			})
			done[i] <- outcome{res, err}
		}()
	}

	select {
	case <-victim.joined:
	case <-time.After(30 * time.Second):
		t.Fatal("victim never joined")
	}
	time.Sleep(30 * time.Millisecond)
	close(victim.drain)

	select {
	case err := <-victim.served:
		if err != nil {
			t.Fatalf("draining worker exited with error: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("shared worker never finished draining both sessions")
	}

	for i, j := range jobs {
		var got outcome
		select {
		case got = <-done[i]:
		case <-time.After(120 * time.Second):
			t.Fatalf("run %s did not finish after the shared drain", j.scenario)
		}
		if got.err != nil {
			t.Fatalf("run %s: %v", j.scenario, got.err)
		}
		if got.res.Ticks != ticks {
			t.Fatalf("run %s ticks = %d, want %d", j.scenario, got.res.Ticks, ticks)
		}
		want := memReference(t, j.scenario, j.agents, 0, j.seed, parts, ticks)
		if len(got.res.Agents) != len(want) {
			t.Fatalf("run %s: population sizes differ: %d vs %d", j.scenario, len(got.res.Agents), len(want))
		}
		for k := range want {
			if !want[k].Equal(got.res.Agents[k]) {
				t.Fatalf("run %s agent %d differs after shared drain:\n  mem: %v\n  got: %v",
					j.scenario, want[k].ID, want[k], got.res.Agents[k])
			}
		}
	}
}

// Draining an idle worker (no sessions) exits immediately and cleanly.
func TestWorkerDrainIdle(t *testing.T) {
	w := startDrainWorker(t)
	close(w.drain)
	select {
	case err := <-w.served:
		if err != nil {
			t.Fatalf("idle drain returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("idle worker did not exit on drain")
	}
}
