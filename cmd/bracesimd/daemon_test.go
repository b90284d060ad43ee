package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/distrib"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/service"
)

// workerProcEnv makes the test binary re-exec itself as a multi-session
// worker daemon — the real shared-fleet deployment, one OS process
// hosting sessions of many concurrent runs.
const workerProcEnv = "BRACESIMD_TEST_WORKER"

// workerRegisterEnv makes the re-exec'd worker announce itself at the
// env value's registry address instead of being named in -worker-addrs.
const workerRegisterEnv = "BRACESIMD_TEST_WORKER_REGISTER"

func TestMain(m *testing.M) {
	if os.Getenv(workerProcEnv) != "" {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("listening on %s\n", lis.Addr())
		if reg := os.Getenv(workerRegisterEnv); reg != "" {
			err = distrib.ServeWith(lis, distrib.ServeOptions{Log: os.Stderr, Register: reg})
		} else {
			err = distrib.ServeWith(lis, distrib.ServeOptions{Log: os.Stderr})
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// workerProc is one re-exec'd shared worker OS process.
type workerProc struct {
	addr string
	proc *os.Process
	// sessions receives one tick per coordinator session the worker
	// starts, so tests can wait until it provably hosts both runs.
	sessions chan struct{}
}

func spawnWorker(t *testing.T, env ...string) *workerProc {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(append(os.Environ(), workerProcEnv+"=1"), env...)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	errPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	w := &workerProc{proc: cmd.Process, sessions: make(chan struct{}, 64)}
	go func() {
		sc := bufio.NewScanner(errPipe)
		for sc.Scan() {
			line := sc.Text()
			if strings.Contains(line, "bracesim-worker: proc") {
				select {
				case w.sessions <- struct{}{}:
				default:
				}
			}
		}
	}()
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
				addrCh <- a
				return
			}
		}
		addrCh <- ""
	}()
	select {
	case a := <-addrCh:
		if a == "" {
			t.Fatal("worker process exited without binding")
		}
		w.addr = a
		return w
	case <-time.After(30 * time.Second):
		t.Fatal("worker process did not bind in time")
		return nil
	}
}

func (w *workerProc) waitSessions(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-w.sessions:
		case <-time.After(60 * time.Second):
			t.Fatalf("worker %s hosted %d sessions, want %d", w.addr, i, n)
		}
	}
}

// addrWaiter scrapes the daemon's stdout for the "listening on" banner.
type addrWaiter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	ch   chan string
	sent bool
}

func newAddrWaiter() *addrWaiter { return &addrWaiter{ch: make(chan string, 1)} }

func (w *addrWaiter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		for _, line := range strings.Split(w.buf.String(), "\n") {
			if a, ok := strings.CutPrefix(line, "listening on "); ok {
				w.sent = true
				w.ch <- a
				break
			}
		}
	}
	return len(p), nil
}

// startDaemon runs the bracesimd CLI in-process and returns its API base
// URL. Cleanup triggers the SIGTERM-equivalent graceful shutdown path and
// waits for it.
func startDaemon(t *testing.T, args ...string) string {
	t.Helper()
	shutdown := make(chan struct{})
	exited := make(chan int, 1)
	aw := newAddrWaiter()
	go func() { exited <- run(args, shutdown, aw, io.Discard) }()
	t.Cleanup(func() {
		close(shutdown)
		select {
		case code := <-exited:
			if code != 0 {
				t.Errorf("daemon exit = %d, want 0", code)
			}
		case <-time.After(60 * time.Second):
			t.Error("daemon did not shut down")
		}
	})
	select {
	case addr := <-aw.ch:
		return "http://" + addr
	case code := <-exited:
		t.Fatalf("daemon exited early with code %d", code)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not bind in time")
	}
	return ""
}

func postRun(t *testing.T, base, body string) service.RunStatus {
	t.Helper()
	resp, err := http.Post(base+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, raw)
	}
	var st service.RunStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getStatus(t *testing.T, base, id string) service.RunStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitDone(t *testing.T, base, id string, timeout time.Duration) service.RunStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := getStatus(t, base, id)
		switch st.State {
		case service.StateDone:
			return st
		case service.StateFailed, service.StateCanceled:
			t.Fatalf("run %s ended %s: %s", id, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s still %s after %v", id, st.State, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// watchFinal consumes a run's whole watch stream through the strict
// decoder and returns the last reconstructed state — after a completed
// run, its final population.
func watchFinal(t *testing.T, base, id string) []*engine.Envelope {
	t.Helper()
	resp, err := http.Get(base + "/v1/runs/" + id + "/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch: %s", resp.Status)
	}
	var dec service.StreamDecoder
	var last []*engine.Envelope
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var f service.ObsFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatal(err)
		}
		if last, err = dec.Apply(&f); err != nil {
			t.Fatalf("frame seq %d: %v", f.Seq, err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if last == nil {
		t.Fatal("watch stream carried no frames")
	}
	return engine.CloneEnvelopes(last)
}

// soloEquivalent runs the same spec as a single-run `-distribute tcp`
// coordinator on its own fresh worker fleet.
func soloEquivalent(t *testing.T, scenarioName string, agents int, seed uint64, parts, ticks, epoch int) agent.Population {
	t.Helper()
	addrs := []string{spawnWorker(t).addr, spawnWorker(t).addr, spawnWorker(t).addr, spawnWorker(t).addr}
	res, err := distrib.Run(distrib.Options{
		Addrs:    addrs,
		Scenario: scenarioName,
		Agents:   agents, Seed: seed,
		Partitions: parts, Ticks: ticks,
		EpochTicks: epoch,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Agents
}

func requireSameFinalState(t *testing.T, label string, want agent.Population, got []*engine.Envelope) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: population sizes differ: solo %d vs service %d", label, len(want), len(got))
	}
	for i := range want {
		if !want[i].Equal(got[i].A) {
			t.Fatalf("%s: agent %d differs:\n  solo:    %v\n  service: %v",
				label, want[i].ID, want[i], got[i].A)
		}
	}
}

// TestDaemonTwoConcurrentRunsSharedFleet is the multi-tenancy acceptance
// criterion end to end: two concurrent runs — different scenarios,
// different seeds — submitted over HTTP to one daemon sharing a 4-worker
// fleet of real OS processes, each finishing bit-identical to its
// single-run `-distribute tcp` equivalent.
func TestDaemonTwoConcurrentRunsSharedFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	fleet := []*workerProc{spawnWorker(t), spawnWorker(t), spawnWorker(t), spawnWorker(t)}
	var addrs []string
	for _, w := range fleet {
		addrs = append(addrs, w.addr)
	}
	base := startDaemon(t, "-listen", "127.0.0.1:0", "-worker-addrs", strings.Join(addrs, ","))

	const (
		parts = 4
		ticks = 40
		epoch = 5
	)
	a := postRun(t, base, `{"scenario":"epidemic","agents":150,"seed":9,"ticks":40,"partitions":4,"epoch_ticks":5}`)
	b := postRun(t, base, `{"scenario":"fish","agents":120,"seed":23,"ticks":40,"partitions":4,"epoch_ticks":5}`)
	if a.State != service.StateRunning || b.State != service.StateRunning {
		t.Fatalf("both runs should run concurrently, got %s / %s", a.State, b.State)
	}
	waitDone(t, base, a.ID, 120*time.Second)
	waitDone(t, base, b.ID, 120*time.Second)

	requireSameFinalState(t, "epidemic", soloEquivalent(t, "epidemic", 150, 9, parts, ticks, epoch), watchFinal(t, base, a.ID))
	requireSameFinalState(t, "fish", soloEquivalent(t, "fish", 120, 23, parts, ticks, epoch), watchFinal(t, base, b.ID))
}

// TestDaemonSharedWorkerKillRecoversBothRuns is the shared-failure-domain
// acceptance criterion: SIGKILL one worker of the shared fleet while it
// hosts sessions of two concurrent runs. BOTH runs — not just the one
// that noticed first — must recover through their own coordinators and
// finish bit-identical to unfailed single-run equivalents, and the fleet
// must mark the dead worker down.
func TestDaemonSharedWorkerKillRecoversBothRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills OS processes")
	}
	fleet := []*workerProc{spawnWorker(t), spawnWorker(t), spawnWorker(t), spawnWorker(t)}
	var addrs []string
	for _, w := range fleet {
		addrs = append(addrs, w.addr)
	}
	base := startDaemon(t, "-listen", "127.0.0.1:0", "-worker-addrs", strings.Join(addrs, ","))

	const (
		parts = 6
		ticks = 400
		epoch = 5
	)
	a := postRun(t, base, `{"scenario":"epidemic","agents":150,"seed":17,"ticks":400,"partitions":6,"epoch_ticks":5}`)
	b := postRun(t, base, `{"scenario":"fish","agents":120,"seed":29,"ticks":400,"partitions":6,"epoch_ticks":5}`)

	// Every run spans the whole fleet (default worker budget), so worker 1
	// hosts one session per run; wait until both are provably attached,
	// then kill it mid-run.
	victim := fleet[1]
	victim.waitSessions(t, 2)
	time.Sleep(50 * time.Millisecond)
	if err := victim.proc.Kill(); err != nil {
		t.Fatal(err)
	}

	finA := waitDone(t, base, a.ID, 180*time.Second)
	finB := waitDone(t, base, b.ID, 180*time.Second)
	if finA.Recoveries < 1 {
		t.Errorf("run A recoveries = %d, want ≥ 1 (was the worker killed too late?)", finA.Recoveries)
	}
	if finB.Recoveries < 1 {
		t.Errorf("run B recoveries = %d, want ≥ 1", finB.Recoveries)
	}

	requireSameFinalState(t, "epidemic", soloEquivalent(t, "epidemic", 150, 17, parts, ticks, epoch), watchFinal(t, base, a.ID))
	requireSameFinalState(t, "fish", soloEquivalent(t, "fish", 120, 29, parts, ticks, epoch), watchFinal(t, base, b.ID))

	// The scheduler must have steered away from the dead address.
	resp, err := http.Get(base + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	var infos []service.WorkerInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	down := 0
	for _, w := range infos {
		if w.Down {
			down++
			if w.Addr != victim.addr {
				t.Errorf("wrong worker marked down: %s (victim %s)", w.Addr, victim.addr)
			}
		}
	}
	if down != 1 {
		t.Errorf("down workers = %d, want exactly the victim", down)
	}
}

// The daemon's self-contained mode: -local-workers spins the fleet up
// inside the process, and the whole submit → watch → done flow works over
// plain HTTP.
func TestDaemonLocalWorkers(t *testing.T) {
	base := startDaemon(t, "-listen", "127.0.0.1:0", "-local-workers", "2")
	st := postRun(t, base, `{"scenario":"epidemic","agents":90,"seed":4,"ticks":20,"epoch_ticks":5}`)
	waitDone(t, base, st.ID, 60*time.Second)
	if final := watchFinal(t, base, st.ID); len(final) == 0 {
		t.Fatal("no final population")
	}
}

func TestDaemonFlagValidation(t *testing.T) {
	if code := run([]string{"-listen", "127.0.0.1:0"}, nil, io.Discard, io.Discard); code != 1 {
		t.Errorf("no fleet: exit = %d, want 1", code)
	}
	if code := run([]string{"-worker-addrs", "a:1", "-local-workers", "2"}, nil, io.Discard, io.Discard); code != 1 {
		t.Errorf("conflicting fleet flags: exit = %d, want 1", code)
	}
	if code := run([]string{"-h"}, nil, io.Discard, io.Discard); code != 0 {
		t.Errorf("-h: exit = %d, want 0", code)
	}
	if code := run([]string{"-no-such"}, nil, io.Discard, io.Discard); code != 2 {
		t.Errorf("bad flag: exit = %d, want 2", code)
	}
}

// The self-contained fleet now wires itself through registration: with
// -mesh the local workers' sessions exchange envelopes directly, the run
// completes over HTTP as before, and /v1/fleet reports every worker as
// registered.
func TestDaemonLocalWorkersRegistryMesh(t *testing.T) {
	base := startDaemon(t, "-listen", "127.0.0.1:0", "-local-workers", "2", "-mesh")
	st := postRun(t, base, `{"scenario":"epidemic","agents":90,"seed":4,"ticks":20,"epoch_ticks":5}`)
	waitDone(t, base, st.ID, 60*time.Second)

	resp, err := http.Get(base + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fleet []service.WorkerInfo
	if err := json.NewDecoder(resp.Body).Decode(&fleet); err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 2 {
		t.Fatalf("fleet = %v, want 2 workers", fleet)
	}
	for _, w := range fleet {
		if !w.Registered {
			t.Errorf("worker %s not marked registered", w.Addr)
		}
	}
}

// An externally-owned registry fleet: real worker OS processes announce
// themselves at the daemon's -registry socket (no -worker-addrs, no
// -local-workers) and a mesh run completes over them.
func TestDaemonRegistryMeshWorkerProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	// Reserve a port for the registry, free it, and hand it to the
	// daemon; the workers' registration dials retry until it binds.
	rlis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	regAddr := rlis.Addr().String()
	rlis.Close()

	spawnWorker(t, workerRegisterEnv+"="+regAddr)
	spawnWorker(t, workerRegisterEnv+"="+regAddr)

	base := startDaemon(t, "-listen", "127.0.0.1:0", "-registry", regAddr, "-mesh")

	// Wait for both announcements to land: runs submitted into an empty
	// fleet are rejected, not queued.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/fleet")
		if err != nil {
			t.Fatal(err)
		}
		var fleet []service.WorkerInfo
		err = json.NewDecoder(resp.Body).Decode(&fleet)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(fleet) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never reached 2 workers: %v", fleet)
		}
		time.Sleep(10 * time.Millisecond)
	}

	st := postRun(t, base, `{"scenario":"epidemic","agents":90,"seed":4,"ticks":20,"epoch_ticks":5}`)
	waitDone(t, base, st.ID, 60*time.Second)
	if final := watchFinal(t, base, st.ID); len(final) == 0 {
		t.Fatal("no final population")
	}
}
