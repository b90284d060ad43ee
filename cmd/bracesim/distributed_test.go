package main

import (
	"bufio"
	"fmt"

	"net"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/bigreddata/brace"
	"github.com/bigreddata/brace/internal/distrib"
)

// workerProcEnv makes the test binary re-exec itself as a worker daemon:
// real multi-process distribution without shelling out to the go tool.
const workerProcEnv = "BRACESIM_TEST_WORKER"

// workerRegisterEnv switches the re-exec'd worker from a single-session
// daemon to a registering multi-session one: it announces itself at the
// env value's registry address and routes peer links, which mesh runs
// need (a peer dial is a second connection to the same listener).
const workerRegisterEnv = "BRACESIM_TEST_WORKER_REGISTER"

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
			err = distrib.ServeWith(lis, distrib.ServeOptions{Log: os.Stderr, Once: true})
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// workerProc is one re-exec'd worker OS process.
type workerProc struct {
	addr string
	// started closes when the daemon's session banner appears on stderr —
	// the worker is provably inside a coordinator session.
	started <-chan struct{}
	proc    *os.Process
}

// spawnWorker starts one real worker OS process and returns it once the
// daemon reports its bound port. Extra env entries select daemon modes
// (workerRegisterEnv).
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
	started := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(errPipe)
		signaled := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(os.Stderr, line) // keep worker logs visible
			if !signaled && strings.Contains(line, "bracesim-worker: proc") {
				close(started)
				signaled = true
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
		return &workerProc{addr: a, started: started, proc: cmd.Process}
	case <-time.After(30 * time.Second):
		t.Fatal("worker process did not bind in time")
		return nil
	}
}

func spawnWorkerProc(t *testing.T) string { return spawnWorker(t).addr }

// TestDistributeTCPAcrossProcesses is the acceptance criterion end to end:
// `bracesim -distribute tcp` across two real worker OS processes
// completes, and the assembled final state is bit-identical to the
// in-memory transport at the same seed and worker count.
func TestDistributeTCPAcrossProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	addrs := spawnWorkerProc(t) + "," + spawnWorkerProc(t)
	code, out, errOut := runCLI(t,
		"-distribute", "tcp", "-worker-addrs", addrs,
		"-model", "epidemic", "-agents", "120", "-ticks", "6", "-workers", "4", "-seed", "9")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, errOut)
	}
	if !strings.Contains(out, "distributed ticks=6") || !strings.Contains(out, "procs=2") {
		t.Errorf("summary line missing:\n%s", out)
	}

	// Equivalence: fresh worker processes, coordinator called directly for
	// the assembled population, compared against a pure in-memory run.
	res, err := distrib.Run(distrib.Options{
		Addrs:    []string{spawnWorkerProc(t), spawnWorkerProc(t)},
		Scenario: "epidemic",
		Agents:   120, Seed: 9,
		Partitions: 4, Ticks: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := brace.NewScenario("epidemic",
		brace.ScenarioConfig{Agents: 120, Seed: 9}, brace.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Run(6); err != nil {
		t.Fatal(err)
	}
	want := mem.Agents()
	if len(res.Agents) != len(want) {
		t.Fatalf("population sizes differ: tcp %d vs mem %d", len(res.Agents), len(want))
	}
	for i := range want {
		if !want[i].Equal(res.Agents[i]) {
			t.Fatalf("agent %d differs across transports:\n  mem: %v\n  tcp: %v",
				want[i].ID, want[i], res.Agents[i])
		}
	}
	if res.Net.SentMsgs == 0 {
		t.Error("no bytes crossed process boundaries; the run was not distributed")
	}
}

// TestDistributeTCPWorkerKillRecovery is the failure-recovery acceptance
// criterion against real OS processes: SIGKILL one re-exec'd worker
// mid-run and the coordinator must finish — re-placing the dead worker's
// partitions on the survivors from the last coordinated checkpoint — with
// final state bit-identical to an unfailed in-memory run.
func TestDistributeTCPWorkerKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills OS processes")
	}
	const (
		agents = 150
		seed   = uint64(17)
		parts  = 6
		ticks  = 400
		epoch  = 5
	)
	ws := []*workerProc{spawnWorker(t), spawnWorker(t), spawnWorker(t)}

	type outcome struct {
		res *distrib.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := distrib.Run(distrib.Options{
			Addrs:    []string{ws[0].addr, ws[1].addr, ws[2].addr},
			Scenario: "epidemic",
			Agents:   agents, Seed: seed,
			Partitions: parts, Ticks: ticks,
			EpochTicks: epoch, CheckpointEveryEpochs: 1,
		})
		done <- outcome{res, err}
	}()

	// Wait until the victim is provably inside the session, then SIGKILL
	// it mid-run (400 ticks of socket round-trips take far longer than
	// the delay below).
	select {
	case <-ws[1].started:
	case <-time.After(30 * time.Second):
		t.Fatal("worker 1 never started its session")
	}
	time.Sleep(50 * time.Millisecond)
	if err := ws[1].proc.Kill(); err != nil {
		t.Fatal(err)
	}

	var got outcome
	select {
	case got = <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("coordinator did not finish after worker kill")
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	res := got.res
	if res.Ticks != ticks {
		t.Fatalf("ticks = %d, want %d", res.Ticks, ticks)
	}
	if res.Recoveries < 1 {
		t.Errorf("recoveries = %d, want ≥ 1 (was the worker killed too late?)", res.Recoveries)
	}
	if res.Procs != 2 {
		t.Errorf("procs = %d, want 2 survivors", res.Procs)
	}

	mem, err := brace.NewScenario("epidemic",
		brace.ScenarioConfig{Agents: agents, Seed: seed}, brace.Config{Workers: parts})
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Run(ticks); err != nil {
		t.Fatal(err)
	}
	want := mem.Agents()
	if len(res.Agents) != len(want) {
		t.Fatalf("population sizes differ: tcp %d vs mem %d", len(res.Agents), len(want))
	}
	for i := range want {
		if !want[i].Equal(res.Agents[i]) {
			t.Fatalf("agent %d differs after recovery:\n  mem: %v\n  tcp: %v",
				want[i].ID, want[i], res.Agents[i])
		}
	}
}

// TestDistributeTCPWorkerStallRecovery is the liveness acceptance
// criterion against real OS processes: SIGSTOP (not kill) one re-exec'd
// worker mid-run. Its sockets stay open and never error — the failure
// mode that used to hang the epoch barrier forever. The coordinator's
// heartbeat must declare it dead within the detection window, recovery
// must absorb its partitions (the frozen process cannot answer the
// rejoin dial), and the final state must be bit-identical to an unfailed
// run.
func TestDistributeTCPWorkerStallRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and freezes OS processes")
	}
	const (
		agents = 150
		seed   = uint64(17)
		parts  = 6
		ticks  = 400
		epoch  = 5
	)
	ws := []*workerProc{spawnWorker(t), spawnWorker(t), spawnWorker(t)}

	type outcome struct {
		res *distrib.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := distrib.Run(distrib.Options{
			Addrs:    []string{ws[0].addr, ws[1].addr, ws[2].addr},
			Scenario: "epidemic",
			Agents:   agents, Seed: seed,
			Partitions: parts, Ticks: ticks,
			EpochTicks: epoch, CheckpointEveryEpochs: 1,
			// DialTimeout is short because the frozen worker's kernel
			// still completes the rejoin dial's TCP handshake; only the
			// handshake timeout unmasks it.
			Tunables: distrib.Tunables{
				Heartbeat: 100 * time.Millisecond, EpochTimeout: 30 * time.Second,
				DialTimeout: time.Second,
			},
		})
		done <- outcome{res, err}
	}()

	select {
	case <-ws[1].started:
	case <-time.After(30 * time.Second):
		t.Fatal("worker 1 never started its session")
	}
	time.Sleep(50 * time.Millisecond)
	if err := syscall.Kill(ws[1].proc.Pid, syscall.SIGSTOP); err != nil {
		t.Fatal(err)
	}
	// Cleanup SIGKILLs the stopped process, which needs no SIGCONT first.

	var got outcome
	select {
	case got = <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("coordinator did not finish after worker freeze: the stall was not detected")
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	res := got.res
	if res.Ticks != ticks {
		t.Fatalf("ticks = %d, want %d", res.Ticks, ticks)
	}
	if res.StallDrops < 1 {
		t.Errorf("stallDrops = %d, want ≥ 1 (a SIGSTOP raises no socket error)", res.StallDrops)
	}
	if res.Recoveries < 1 {
		t.Errorf("recoveries = %d, want ≥ 1 (was the worker frozen too late?)", res.Recoveries)
	}
	if res.Procs != 2 {
		t.Errorf("procs = %d, want 2 survivors", res.Procs)
	}

	mem, err := brace.NewScenario("epidemic",
		brace.ScenarioConfig{Agents: agents, Seed: seed}, brace.Config{Workers: parts})
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Run(ticks); err != nil {
		t.Fatal(err)
	}
	want := mem.Agents()
	if len(res.Agents) != len(want) {
		t.Fatalf("population sizes differ: tcp %d vs mem %d", len(res.Agents), len(want))
	}
	for i := range want {
		if !want[i].Equal(res.Agents[i]) {
			t.Fatalf("agent %d differs after stall recovery:\n  mem: %v\n  tcp: %v",
				want[i].ID, want[i], res.Agents[i])
		}
	}
}

func TestDistributeFlagValidation(t *testing.T) {
	if code, _, errOut := runCLI(t, "-distribute", "udp"); code == 0 || !strings.Contains(errOut, "udp") {
		t.Errorf("unknown mode accepted: %s", errOut)
	}
	if code, _, errOut := runCLI(t, "-distribute", "tcp"); code == 0 || !strings.Contains(errOut, "worker") {
		t.Errorf("missing -worker-addrs accepted: %s", errOut)
	}
	if code, _, errOut := runCLI(t, "-distribute", "tcp", "-worker-addrs", "x", "-vtime"); code == 0 ||
		!strings.Contains(errOut, "-vtime") {
		t.Errorf("-vtime with -distribute accepted: %s", errOut)
	}
	if code, _, errOut := runCLI(t, "-distribute", "tcp", "-worker-addrs", "x", "-script", "s.brasil"); code == 0 ||
		!strings.Contains(errOut, "registry") {
		t.Errorf("-script with -distribute accepted: %s", errOut)
	}
	// The peer mesh carries every run; there is no topology to choose.
	if code, _, errOut := runCLI(t, "-distribute", "tcp", "-worker-addrs", "127.0.0.1:1", "-mesh"); code != 2 ||
		!strings.Contains(errOut, "flag provided but not defined: -mesh") {
		t.Errorf("-mesh: exit %d, stderr %q; want 2 and an undefined-flag error", code, errOut)
	}
	// Every checkpoint is full; there is no keyframe cadence to choose.
	if code, _, errOut := runCLI(t, "-distribute", "tcp", "-worker-addrs", "127.0.0.1:1", "-ckpt-full-every", "2"); code != 2 ||
		!strings.Contains(errOut, "flag provided but not defined: -ckpt-full-every") {
		t.Errorf("-ckpt-full-every: exit %d, stderr %q; want 2 and an undefined-flag error", code, errOut)
	}
	// A negative cadence or timeout fails the run before any dial (the
	// address is never contacted), as it does over POST /v1/runs.
	for _, bad := range [][]string{{"-ckpt-epochs", "-1"}, {"-dial-timeout", "-1s"}} {
		args := append([]string{"-distribute", "tcp", "-worker-addrs", "127.0.0.1:1"}, bad...)
		if code, _, errOut := runCLI(t, args...); code != 1 || !strings.Contains(errOut, "negative") {
			t.Errorf("%v: exit %d, stderr %q; want 1 and a negative-value error", bad, code, errOut)
		}
	}
}

// -lb with -distribute used to be rejected ("needs a global view"); the
// coordinator control plane made it legal. The loopback path is the real
// oracle (internal/distrib); here the flag must simply reach the
// coordinator and the run must report its balancing activity.
func TestDistributeLoadBalanceFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	addrs := spawnWorkerProc(t) + "," + spawnWorkerProc(t)
	code, out, errOut := runCLI(t,
		"-distribute", "tcp", "-worker-addrs", addrs, "-lb", "-ckpt-epochs", "1",
		"-heartbeat", "200ms", "-epoch-timeout", "30s",
		"-dial-timeout", "15s",
		"-model", "epidemic", "-agents", "120", "-ticks", "8", "-workers", "4", "-seed", "9")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, errOut)
	}
	if !strings.Contains(out, "rebalances=") || !strings.Contains(out, "recoveries=0") {
		t.Errorf("summary should report control-plane counters:\n%s", out)
	}
	if !strings.Contains(out, "stalls=0") || !strings.Contains(out, "ckpt=") {
		t.Errorf("summary should report liveness and checkpoint counters:\n%s", out)
	}
}

// TestDistributeTCPMeshRegistration is the tentpole's real-process
// acceptance: worker OS processes discovered through -register (no
// -worker-addrs anywhere), the data plane on direct peer links between
// them, and the assembled state bit-identical to the in-memory engine.
// Steady state must relay zero data frames through the coordinator.
func TestDistributeTCPMeshRegistration(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	rlis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := distrib.NewRegistry(rlis)
	t.Cleanup(reg.Close)

	spawnWorker(t, workerRegisterEnv+"="+reg.Addr())
	spawnWorker(t, workerRegisterEnv+"="+reg.Addr())
	if _, err := reg.Await(2, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	res, err := distrib.Run(distrib.Options{
		Registry: reg,
		Scenario: "epidemic",
		Agents:   120, Seed: 9,
		Partitions: 4, Ticks: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Procs != 2 {
		t.Fatalf("procs = %d, want 2 discovered workers", res.Procs)
	}
	if res.RelayedDataFrames != 0 {
		t.Errorf("coordinator relayed %d data frames; a healthy mesh carries its own data plane",
			res.RelayedDataFrames)
	}

	mem, err := brace.NewScenario("epidemic",
		brace.ScenarioConfig{Agents: 120, Seed: 9}, brace.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Run(6); err != nil {
		t.Fatal(err)
	}
	want := mem.Agents()
	if len(res.Agents) != len(want) {
		t.Fatalf("population sizes differ: mesh %d vs mem %d", len(res.Agents), len(want))
	}
	for i := range want {
		if !want[i].Equal(res.Agents[i]) {
			t.Fatalf("agent %d differs across data planes:\n  mem: %v\n  mesh: %v",
				want[i].ID, want[i], res.Agents[i])
		}
	}
}

// The same discovery path through the CLI flags: `-registry` owns the
// registry socket, `-await-workers` gates on fleet width, and the data
// plane runs on peer links. Workers retry their registry dial, so they can
// be spawned before the coordinator binds the socket.
func TestDistributeTCPMeshRegistrationCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	// Reserve a port for the registry, free it, and hand it to the CLI;
	// the workers' registration dials retry until the coordinator binds.
	rlis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	regAddr := rlis.Addr().String()
	rlis.Close()

	spawnWorker(t, workerRegisterEnv+"="+regAddr)
	spawnWorker(t, workerRegisterEnv+"="+regAddr)

	code, out, errOut := runCLI(t,
		"-distribute", "tcp", "-registry", regAddr, "-await-workers", "2",
		"-model", "epidemic", "-agents", "120", "-ticks", "6", "-workers", "4", "-seed", "9")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, errOut)
	}
	if !strings.Contains(out, "registry on "+regAddr) {
		t.Errorf("registry banner missing:\n%s", out)
	}
	if !strings.Contains(out, "distributed ticks=6") || !strings.Contains(out, "procs=2") {
		t.Errorf("summary line missing:\n%s", out)
	}
}
