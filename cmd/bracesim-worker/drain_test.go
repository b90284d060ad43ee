package main

import (
	"bufio"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/bigreddata/brace"
	"github.com/bigreddata/brace/internal/distrib"
)

// workerMainEnv makes the test binary re-exec itself straight into the
// daemon's main path — flag parsing, signal handling, serve loop — so the
// SIGTERM drain is tested against the real process wiring.
const workerMainEnv = "BRACESIM_WORKER_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(workerMainEnv) != "" {
		os.Exit(mainWith([]string{"-listen", "127.0.0.1:0"}))
	}
	os.Exit(m.Run())
}

// daemonProc is one re-exec'd bracesim-worker OS process.
type daemonProc struct {
	addr    string
	cmd     *exec.Cmd
	started <-chan struct{} // first coordinator session attached
	stderr  *strings.Builder
	// stderrDone closes when the stderr pipe hits EOF; waitExit waits for
	// it so the drain announcement is fully captured (and so Wait never
	// closes the pipe under the reader).
	stderrDone chan struct{}
}

func spawnDaemon(t *testing.T) *daemonProc {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), workerMainEnv+"=1")
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
	d := &daemonProc{cmd: cmd, stderr: &strings.Builder{}, stderrDone: make(chan struct{})}
	started := make(chan struct{})
	d.started = started
	go func() {
		defer close(d.stderrDone)
		sc := bufio.NewScanner(errPipe)
		signaled := false
		for sc.Scan() {
			line := sc.Text()
			d.stderr.WriteString(line + "\n")
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
		d.addr = a
		return d
	case <-time.After(30 * time.Second):
		t.Fatal("worker process did not bind in time")
		return nil
	}
}

// waitExit waits for the process and returns its exit code.
func (d *daemonProc) waitExit(t *testing.T, timeout time.Duration) int {
	t.Helper()
	select {
	case <-d.stderrDone:
	case <-time.After(timeout):
		t.Fatal("worker stderr never hit EOF")
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			return 0
		}
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		t.Fatal(err)
	case <-time.After(timeout):
		t.Fatal("worker process did not exit")
	}
	return -1
}

// The graceful-shutdown satellite against a real OS process: SIGTERM to
// an idle daemon exits 0 after announcing the drain.
func TestSIGTERMIdleDaemonExitsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	d := spawnDaemon(t)
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := d.waitExit(t, 30*time.Second); code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr:\n%s", code, d.stderr.String())
	}
	if !strings.Contains(d.stderr.String(), "draining") {
		t.Errorf("drain not announced:\n%s", d.stderr.String())
	}
}

// SIGTERM mid-run: the daemon finishes its in-flight epoch barrier, exits
// 0, and the coordinator recovers the run on the surviving worker with
// final state bit-identical to an unfailed in-memory run.
func TestSIGTERMMidRunDrainsEpochAndRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	const (
		agents = 150
		seed   = uint64(17)
		parts  = 4
		ticks  = 400
		epoch  = 5
	)
	survivor := spawnDaemon(t)
	victim := spawnDaemon(t)

	type outcome struct {
		res *distrib.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := distrib.Run(distrib.Options{
			Addrs:    []string{survivor.addr, victim.addr},
			Scenario: "epidemic",
			Agents:   agents, Seed: seed,
			Partitions: parts, Ticks: ticks,
			EpochTicks: epoch, CheckpointEveryEpochs: 1, Tunables: distrib.Tunables{DialTimeout: time.Second},
		})
		done <- outcome{res, err}
	}()

	select {
	case <-victim.started:
	case <-time.After(30 * time.Second):
		t.Fatal("victim never started its session")
	}
	time.Sleep(50 * time.Millisecond)
	if err := victim.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := victim.waitExit(t, 60*time.Second); code != 0 {
		t.Fatalf("drained worker exit = %d, want 0\nstderr:\n%s", code, victim.stderr.String())
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
		t.Fatalf("population sizes differ: drained %d vs mem %d", len(res.Agents), len(want))
	}
	for i := range want {
		if !want[i].Equal(res.Agents[i]) {
			t.Fatalf("agent %d differs after SIGTERM drain:\n  mem: %v\n  got: %v",
				want[i].ID, want[i], res.Agents[i])
		}
	}
}
