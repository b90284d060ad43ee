package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/bigreddata/brace/internal/distrib"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestModelListEnumeratesRegistry(t *testing.T) {
	code, out, _ := runCLI(t, "-model", "list")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, name := range []string{"fish", "traffic", "predator", "predator-inv", "epidemic", "evacuate"} {
		if !strings.Contains(out, name) {
			t.Errorf("list output missing scenario %q:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "non-local") {
		t.Errorf("list output missing effect-locality column:\n%s", out)
	}
}

func TestUnknownModelFails(t *testing.T) {
	code, _, errOut := runCLI(t, "-model", "no-such-model")
	if code == 0 {
		t.Fatal("unknown model accepted")
	}
	if !strings.Contains(errOut, "no-such-model") || !strings.Contains(errOut, "fish") {
		t.Errorf("error should name the bad model and list alternatives:\n%s", errOut)
	}
}

func TestUnknownIndexFails(t *testing.T) {
	if code, _, _ := runCLI(t, "-index", "btree", "-ticks", "1"); code == 0 {
		t.Fatal("unknown index accepted")
	}
	// The error names the whole vocabulary, which has no grid index.
	code, _, errOut := runCLI(t, "-index", "grid", "-ticks", "1")
	if code == 0 || !strings.Contains(errOut, "(kd, scan)") {
		t.Fatalf("-index grid: exit %d, stderr %q; want a failure listing kd, scan", code, errOut)
	}
}

// Distributed-only flags used to be silently ignored without -distribute;
// the combination is now rejected like -script/-vtime with -distribute.
func TestDistributedOnlyFlagsRequireDistribute(t *testing.T) {
	for _, args := range [][]string{
		{"-heartbeat", "1s"},
		{"-epoch-timeout", "30s"},
		{"-ckpt-epochs", "1"},
		{"-ckpt-full-every", "4"},
		{"-dial-timeout", "5s"},
		{"-worker-addrs", "localhost:9"},
	} {
		flagName := args[0]
		args = append(args, "-model", "epidemic", "-agents", "50", "-ticks", "1")
		code, _, errOut := runCLI(t, args...)
		if code == 0 {
			t.Errorf("%s accepted without -distribute", flagName)
			continue
		}
		if !strings.Contains(errOut, flagName) || !strings.Contains(errOut, "-distribute") {
			t.Errorf("%s: error should name the flag and -distribute:\n%s", flagName, errOut)
		}
	}
	// Several at once: every misused flag is named.
	code, _, errOut := runCLI(t, "-heartbeat", "1s", "-worker-addrs", "x", "-ticks", "1")
	if code == 0 || !strings.Contains(errOut, "-heartbeat") || !strings.Contains(errOut, "-worker-addrs") {
		t.Errorf("combined misuse should name every flag:\n%s", errOut)
	}
}

// One flag per mode from the flagModes table: a flag the chosen mode cannot
// honour is rejected before anything is built, dialled or posted, and the
// error says where it does apply. The addresses are never contacted.
func TestFlagsRejectedOutsideTheirModes(t *testing.T) {
	const svc, worker = "http://127.0.0.1:1", "127.0.0.1:1"
	for _, tc := range []struct {
		name string
		args []string
		want []string
	}{
		{"submit drops -mesh", []string{"-submit", svc, "-mesh"}, []string{"-mesh only applies with -distribute"}},
		{"submit keeps -ckpt-full-every out of the error", []string{"-submit", svc, "-ckpt-full-every", "2", "-registry", ":0"},
			[]string{"-registry only applies with -distribute"}},
		{"distribute drops -invert", []string{"-distribute", "tcp", "-worker-addrs", worker, "-invert"},
			[]string{"-invert only applies with -script"}},
		{"in-process drops -span", []string{"-span", "50", "-ticks", "1"}, []string{"-span only applies with -script"}},
		{"script drops -heartbeat", []string{"-script", "no-such.brasil", "-heartbeat", "1s"},
			[]string{"-heartbeat only applies with -distribute"}},
		{"two groups, both named", []string{"-submit", svc, "-vtime", "-dial-timeout", "1s"},
			[]string{"-dial-timeout only applies with -distribute", "-vtime only applies with an in-process run"}},
		// -seq has one meaning, the single-threaded engine: a partitioned run
		// has no partition-at-a-time mode to fall back on.
		{"distribute drops -seq", []string{"-seq", "-distribute", "tcp", "-worker-addrs", worker},
			[]string{"-seq only applies with an in-process run"}},
		{"submit drops -seq", []string{"-seq", "-submit", svc}, []string{"-seq only applies with an in-process run"}},
	} {
		code, out, errOut := runCLI(t, tc.args...)
		if code != 1 || out != "" {
			t.Errorf("%s: exit=%d stdout=%q stderr:\n%s", tc.name, code, out, errOut)
		}
		for _, want := range tc.want {
			if !strings.Contains(errOut, want) {
				t.Errorf("%s: stderr should say %q:\n%s", tc.name, want, errOut)
			}
		}
		if strings.Contains(errOut, "-ckpt-full-every") {
			t.Errorf("%s: -ckpt-full-every applies with -submit:\n%s", tc.name, errOut)
		}
	}
}

// A negative tick count is rejected up front on both engines; at the parent
// -workers 2 never returned (the runtime's tick target wrapped to ~2^64).
func TestNegativeTicksRejected(t *testing.T) {
	for _, engine := range [][]string{{"-seq"}, {"-workers", "2"}} {
		args := append([]string{"-model", "fish", "-agents", "200", "-ticks", "-1"}, engine...)
		type result struct {
			code   int
			errOut string
		}
		done := make(chan result, 1)
		go func() {
			var out, errb bytes.Buffer
			done <- result{run(args, &out, &errb), errb.String()}
		}()
		select {
		case r := <-done:
			if r.code != 1 || !strings.Contains(r.errOut, "-ticks") {
				t.Errorf("%v: exit=%d stderr:\n%s", engine, r.code, r.errOut)
			}
		case <-time.After(time.Second):
			t.Fatalf("%v: -ticks -1 still running after 1s", engine)
		}
	}
}

// The -heartbeat/-epoch-timeout help derives from the liveness defaults
// actually in force instead of hardcoding stale numbers.
func TestLivenessHelpDerivedFromDefaults(t *testing.T) {
	code, _, errOut := runCLI(t, "-h")
	if code != 0 {
		t.Fatalf("-h exit = %d", code)
	}
	if want := fmt.Sprintf("silent for %d intervals", distrib.MissedHeartbeats); !strings.Contains(errOut, want) {
		t.Errorf("-heartbeat help should say %q (distrib.MissedHeartbeats):\n%s", want, errOut)
	}
	if want := fmt.Sprintf("default %v", distrib.DefaultHeartbeat); !strings.Contains(errOut, want) {
		t.Errorf("-heartbeat help should carry the %v default:\n%s", distrib.DefaultHeartbeat, errOut)
	}
	if want := fmt.Sprintf("adaptive with a %v floor", distrib.DefaultEpochTimeout); !strings.Contains(errOut, want) {
		t.Errorf("-epoch-timeout help should carry the %v adaptive floor:\n%s", distrib.DefaultEpochTimeout, errOut)
	}
}

// -seq once also meant serial partition ticking inside each worker under
// -distribute/-submit. That meaning is gone: the help states the one that
// remains, and the rejection under the partitioned modes says why.
func TestSeqHelpStatesBothMeanings(t *testing.T) {
	code, _, errOut := runCLI(t, "-h")
	if code != 0 {
		t.Fatalf("-h exit = %d", code)
	}
	if want := "use the sequential reference engine"; !strings.Contains(errOut, want) {
		t.Errorf("-seq help should say %q:\n%s", want, errOut)
	}
	for _, gone := range []string{"with -distribute or -submit", "ticks its partitions one at a time"} {
		if strings.Contains(errOut, gone) {
			t.Errorf("-seq help still describes the deleted meaning %q:\n%s", gone, errOut)
		}
	}
	code, out, errOut := runCLI(t, "-seq", "-submit", "http://127.0.0.1:1")
	if want := "-seq only applies with an in-process run (distributed and service runs are partitioned)"; code != 1 || out != "" || !strings.Contains(errOut, want) {
		t.Errorf("-seq -submit: exit=%d stdout=%q, want 1 and %q in stderr:\n%s", code, out, want, errOut)
	}
}

func TestEpidemicEndToEnd(t *testing.T) {
	code, out, errOut := runCLI(t, "-model", "epidemic", "-agents", "120", "-ticks", "5", "-workers", "2", "-v")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, errOut)
	}
	if !strings.Contains(out, "ticks=5") || !strings.Contains(out, "agents=120") {
		t.Errorf("metrics line missing:\n%s", out)
	}
	if !strings.Contains(out, "scenario epidemic") {
		t.Errorf("-v should print the scenario header:\n%s", out)
	}
}

func TestEvacuateEndToEnd(t *testing.T) {
	code, out, errOut := runCLI(t, "-model", "evacuate", "-agents", "80", "-ticks", "5", "-workers", "2", "-seq")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, errOut)
	}
	if !strings.Contains(out, "ticks=5") {
		t.Errorf("metrics line missing:\n%s", out)
	}
}

func TestExtentSizesTraffic(t *testing.T) {
	// A 2km segment at default density holds ~128 vehicles; the registry
	// must thread -extent through to the traffic builder.
	code, out, errOut := runCLI(t, "-model", "traffic", "-extent", "2000", "-ticks", "2", "-workers", "2")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, errOut)
	}
	if !strings.Contains(out, "agents=128") {
		t.Errorf("expected 128 vehicles from -extent 2000:\n%s", out)
	}
}

// -cpuprofile and -memprofile write pprof files for the run's process: the
// files exist, are non-empty and, where the go tool is at hand, parse.
func TestProfileFlagsWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	code, out, errOut := runCLI(t, "-model", "fish", "-agents", "600", "-workers", "2", "-ticks", "40",
		"-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 || !strings.Contains(out, "agent-ticks=24000") {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, out, errOut)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Fatalf("%s: missing or empty (%v)", path, err)
		}
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not in PATH: profiles written but not parsed")
	}
	for _, path := range []string{cpu, mem} {
		if b, err := exec.Command(goTool, "tool", "pprof", "-top", path).CombinedOutput(); err != nil {
			t.Errorf("go tool pprof -top %s: %v\n%s", path, err, b)
		}
	}

	// An unwritable path fails the run up front instead of after the ticks.
	if code, _, _ := runCLI(t, "-ticks", "1", "-cpuprofile", filepath.Join(dir, "no-such-dir", "cpu.prof")); code == 0 {
		t.Error("unwritable -cpuprofile path accepted")
	}
}
