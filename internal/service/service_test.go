package service

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/distrib"
	"github.com/bigreddata/brace/internal/engine"
)

// startFleet spins up n in-process worker daemons (concurrent sessions,
// exactly what bracesim-worker serves) on loopback and returns their
// addresses.
func startFleet(t *testing.T, n int) []string {
	t.Helper()
	var addrs []string
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { lis.Close() })
		addrs = append(addrs, lis.Addr().String())
		go distrib.ServeWith(lis, distrib.ServeOptions{})
	}
	return addrs
}

// waitState polls a run until it leaves the live states.
func waitState(t *testing.T, m *Manager, id string, timeout time.Duration) *RunStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateQueued && st.State != StateRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s stuck in state %s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func requireSamePopulation(t *testing.T, label string, want, got agent.Population) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: population sizes differ: want %d, got %d", label, len(want), len(got))
	}
	for i := range want {
		if !want[i].Equal(got[i]) {
			t.Fatalf("%s: agent %d differs:\n  want %v\n  got  %v", label, want[i].ID, want[i], got[i])
		}
	}
}

// The multi-tenancy acceptance criterion's service half: two concurrent
// runs — different scenarios, different seeds — share one 4-worker fleet
// and each finishes bit-identical to its single-run `-distribute tcp`
// equivalent on a private fleet.
func TestTwoConcurrentRunsShareFleetBitIdentical(t *testing.T) {
	shared := startFleet(t, 4)
	m, err := NewManager(Config{WorkerAddrs: shared, Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	specA := RunSpec{Scenario: "epidemic", Agents: 150, Seed: 9, Ticks: 40, Partitions: 4, EpochTicks: 5}
	specB := RunSpec{Scenario: "fish", Agents: 120, Seed: 23, Ticks: 30, Partitions: 4, EpochTicks: 5}
	stA, err := m.Submit(specA)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := m.Submit(specB)
	if err != nil {
		t.Fatal(err)
	}
	if stA.State != StateRunning || stB.State != StateRunning {
		t.Fatalf("both runs should start immediately: %s, %s", stA.State, stB.State)
	}

	finA := waitState(t, m, stA.ID, 60*time.Second)
	finB := waitState(t, m, stB.ID, 60*time.Second)
	if finA.State != StateDone || finB.State != StateDone {
		t.Fatalf("states = %s / %s (errors: %q / %q)", finA.State, finB.State, finA.Error, finB.Error)
	}

	// Single-run equivalents, each on its own fresh fleet.
	for _, tc := range []struct {
		id   string
		spec RunSpec
	}{{stA.ID, specA}, {stB.ID, specB}} {
		solo, err := distrib.Run(distrib.Options{
			Addrs:    startFleet(t, 4),
			Scenario: tc.spec.Scenario,
			Agents:   tc.spec.Agents, Seed: tc.spec.Seed,
			Partitions: tc.spec.Partitions, Ticks: tc.spec.Ticks,
			EpochTicks: tc.spec.EpochTicks,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Result(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		requireSamePopulation(t, tc.spec.Scenario, solo.Agents, res.Agents)
	}
}

// Admission control: MaxRuns gates concurrency, the queue holds admitted
// runs in FIFO, QueueDepth rejects beyond it, and a canceled head frees
// its slot for the next queued run.
func TestAdmissionQueueingAndCancel(t *testing.T) {
	m, err := NewManager(Config{
		WorkerAddrs: startFleet(t, 2),
		MaxRuns:     1,
		QueueDepth:  1,
		Log:         io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	long := RunSpec{Scenario: "epidemic", Agents: 150, Seed: 1, Ticks: 100000, EpochTicks: 5}
	short := RunSpec{Scenario: "epidemic", Agents: 60, Seed: 2, Ticks: 10, EpochTicks: 5}
	a, err := m.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	if a.State != StateRunning {
		t.Fatalf("first run state = %s, want running", a.State)
	}
	b, err := m.Submit(short)
	if err != nil {
		t.Fatal(err)
	}
	if b.State != StateQueued {
		t.Fatalf("second run state = %s, want queued (MaxRuns=1)", b.State)
	}
	if _, err := m.Submit(short); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submission err = %v, want ErrQueueFull", err)
	}

	if _, err := m.Cancel(a.ID); err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, m, a.ID, 30*time.Second); st.State != StateCanceled {
		t.Fatalf("canceled run state = %s", st.State)
	}
	if st := waitState(t, m, b.ID, 60*time.Second); st.State != StateDone {
		t.Fatalf("queued run after slot freed: state = %s (%s)", st.State, st.Error)
	}

	// Canceling a queued run removes it without ever placing it.
	c, err := m.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	_ = c
	d, err := m.Submit(short)
	if err != nil {
		t.Fatal(err)
	}
	if d.State != StateQueued {
		t.Fatalf("state = %s, want queued", d.State)
	}
	if st, err := m.Cancel(d.ID); err != nil || st.State != StateCanceled {
		t.Fatalf("cancel queued: state=%v err=%v", st, err)
	}
}

func TestSubmitValidation(t *testing.T) {
	m, err := NewManager(Config{WorkerAddrs: startFleet(t, 2), Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, tc := range []struct{ name, body string }{
		{"unknown scenario", `{"scenario":"no-such","ticks":5}`},
		{"zero ticks", `{"scenario":"fish"}`},
		{"worker budget over fleet", `{"scenario":"fish","ticks":5,"workers":3}`},
		{"partitions under workers", `{"scenario":"fish","ticks":5,"workers":2,"partitions":1}`},
		{"unknown index", `{"scenario":"fish","ticks":5,"index":"btree"}`},
		{"index by number", `{"scenario":"fish","ticks":5,"index":1}`},
		{"partitions over limit", `{"scenario":"fish","ticks":5,"partitions":1073741824}`},
		{"agents over limit", `{"scenario":"fish","ticks":5,"agents":1073741824}`},
		{"negative agents", `{"scenario":"fish","ticks":5,"agents":-5}`},
		{"negative epoch ticks", `{"scenario":"fish","ticks":5,"epoch_ticks":-3}`},
		{"negative checkpoint epochs", `{"scenario":"fish","ticks":5,"checkpoint_epochs":-1}`},
		// Every checkpoint is full: the keyframe interval is an unknown field.
		{"full-checkpoint interval", `{"scenario":"fish","ticks":5,"checkpoint_full_every":2}`},
	} {
		rec := httptest.NewRecorder()
		Handler(m).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(tc.body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", tc.name, rec.Code, rec.Body)
		}
	}
	if got := m.List(); len(got) != 0 {
		t.Errorf("%d runs were admitted from rejected specs", len(got))
	}
}

// Every deployment knob the daemon is configured with reaches each run's
// coordinator. The fields are enumerated by reflection, so a knob added to
// distrib.Tunables later cannot be dropped on the way either.
func TestRunOptionsForwardEveryTunable(t *testing.T) {
	cfg := Config{WorkerAddrs: []string{"127.0.0.1:1"}}
	tun := reflect.ValueOf(&cfg.Tunables).Elem()
	for i := 0; i < tun.NumField(); i++ {
		switch f := tun.Field(i); f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int64: // time.Duration
			f.SetInt(int64(i+1) * int64(time.Second))
		default:
			t.Fatalf("Tunables.%s: no distinct test value for a %v", tun.Type().Field(i).Name, f.Type())
		}
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	r := &run{id: "run-0001", stream: NewObsStream(0), cancel: make(chan struct{})}
	got := reflect.ValueOf(m.runOptions(r, RunSpec{Scenario: "fish", Ticks: 1}, cfg.WorkerAddrs).Tunables)
	for i := 0; i < tun.NumField(); i++ {
		if want, have := tun.Field(i).Interface(), got.Field(i).Interface(); want != have {
			t.Errorf("Tunables.%s: configured %v, the run got %v", tun.Type().Field(i).Name, want, have)
		}
	}
}

// The streaming acceptance criterion, end to end through the HTTP API:
// three subscribers attach to one run's watch endpoint at different
// ticks; every per-tick observation each of them reconstructs from
// snapshot+delta frames is bit-identical across subscribers.
func TestWatchThreeSubscribersBitIdentical(t *testing.T) {
	m, err := NewManager(Config{
		WorkerAddrs:   startFleet(t, 2),
		KeyframeEvery: 4,
		Log:           io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	// EpochTicks=1 + checkpoint every epoch = one observation per tick.
	body := `{"scenario":"epidemic","agents":120,"seed":7,"ticks":40,"epoch_ticks":1}`
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %+v", resp.StatusCode, st)
	}

	// observed holds seq -> decoded state; each subscriber decodes its
	// whole stream with the strict decoder.
	type obs map[uint64][]*engine.Envelope
	watch := func() (obs, error) {
		resp, err := http.Get(srv.URL + "/v1/runs/" + st.ID + "/watch")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("watch: %s", resp.Status)
		}
		got := obs{}
		var dec StreamDecoder
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			var f ObsFrame
			if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
				return nil, err
			}
			envs, err := dec.Apply(&f)
			if err != nil {
				return nil, err
			}
			got[f.Seq] = engine.CloneEnvelopes(envs)
		}
		return got, sc.Err()
	}

	// Subscriber 1 attaches immediately; 2 and 3 attach once the run has
	// demonstrably progressed past different frame counts.
	results := make([]obs, 3)
	errs := make([]error, 3)
	done := make(chan int, 3)
	attach := func(i int, afterFrames uint64) {
		deadline := time.Now().Add(60 * time.Second)
		for {
			cur, err := m.Get(st.ID)
			if err != nil {
				errs[i] = err
				done <- i
				return
			}
			if cur.Frames >= afterFrames || cur.State == StateDone {
				break
			}
			if time.Now().After(deadline) {
				errs[i] = fmt.Errorf("run never reached %d frames", afterFrames)
				done <- i
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		results[i], errs[i] = watch()
		done <- i
	}
	go attach(0, 0)
	go attach(1, 6)
	go attach(2, 13)
	for n := 0; n < 3; n++ {
		select {
		case i := <-done:
			if errs[i] != nil {
				t.Fatalf("subscriber %d: %v", i, errs[i])
			}
		case <-time.After(120 * time.Second):
			t.Fatal("subscribers did not finish")
		}
	}

	if len(results[0]) == 0 {
		t.Fatal("subscriber 0 saw no frames")
	}
	fin := waitState(t, m, st.ID, 10*time.Second)
	if fin.State != StateDone {
		t.Fatalf("run state = %s (%s)", fin.State, fin.Error)
	}
	// Later subscribers see a suffix (from their join keyframe onward);
	// every seq they saw must decode bit-identical to subscriber 0's view.
	for i := 1; i < 3; i++ {
		if len(results[i]) == 0 {
			t.Fatalf("subscriber %d saw no frames", i)
		}
		matched := 0
		for seq, envs := range results[i] {
			ref, ok := results[0][seq]
			if !ok {
				continue // sub 0 could itself have joined after a recovery republish
			}
			requireSameState(t, fmt.Sprintf("subscriber %d seq %d", i, seq), ref, envs)
			matched++
		}
		if matched == 0 {
			t.Errorf("subscriber %d shared no frames with subscriber 0", i)
		}
	}
}

// The HTTP surface: routing, status codes and error mapping.
func TestHTTPEndpoints(t *testing.T) {
	m, err := NewManager(Config{WorkerAddrs: startFleet(t, 2), Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/v1/fleet"); code != 200 || !strings.Contains(body, "addr") {
		t.Errorf("fleet: %d %s", code, body)
	}
	if code, body := get("/v1/runs"); code != 200 || strings.TrimSpace(body) != "[]" {
		t.Errorf("empty list: %d %q", code, body)
	}
	if code, _ := get("/v1/runs/run-9999"); code != 404 {
		t.Errorf("missing run: %d, want 404", code)
	}
	if code, _ := get("/v1/nope"); code != 404 {
		t.Errorf("bad path: %d, want 404", code)
	}

	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(`{"scenario":"no-such","ticks":5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad scenario: %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(`{"scenario":"fish","bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"scenario":"epidemic","agents":60,"seed":3,"ticks":8,"epoch_ticks":4}`))
	if err != nil {
		t.Fatal(err)
	}
	var st RunStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, st)
	}
	if code, body := get("/v1/runs/" + st.ID); code != 200 || !strings.Contains(body, st.ID) {
		t.Errorf("status: %d %s", code, body)
	}
	waitState(t, m, st.ID, 60*time.Second)

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/runs/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != 200 {
		t.Errorf("delete finished run: %d", dresp.StatusCode)
	}
	if code, body := get("/v1/runs"); code != 200 || !strings.Contains(body, st.ID) {
		t.Errorf("list: %d %s", code, body)
	}
}

// endless is a request body that never ends, counting what is read of it.
type endless struct{ read int }

func (e *endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	e.read += len(p)
	return len(p), nil
}

// POST /v1/runs takes exactly one bounded JSON value: an oversized body is
// refused once the limit is read — not buffered, not read to its end — and
// anything after the spec is an error rather than silently ignored, as is
// "sequential", a RunSpec field until protocol v8 retired partition-at-a-
// time scheduling.
func TestSubmitBodyIsBoundedAndSingleValued(t *testing.T) {
	m, err := NewManager(Config{WorkerAddrs: startFleet(t, 1), Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	post := func(body io.Reader) (int, apiError) {
		rec := httptest.NewRecorder()
		Handler(m).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", body))
		var e apiError
		if err := json.NewDecoder(rec.Body).Decode(&e); err != nil {
			t.Errorf("response is not a JSON error: %v", err)
		}
		return rec.Code, e
	}

	body := &endless{}
	code, e := post(io.MultiReader(strings.NewReader(`{"scenario":"fish","ticks":1}`), body))
	if code != http.StatusRequestEntityTooLarge || e.Error == "" {
		t.Errorf("endless body: %d %+v, want 413 with an error message", code, e)
	}
	if body.read > maxSpecBytes+1 {
		t.Errorf("handler read %d bytes of an oversized body, limit is %d", body.read, maxSpecBytes)
	}

	for _, bad := range []string{
		`{"scenario":"fish","ticks":1} {"x":1}`,
		`{"scenario":"fish","ticks":1} x`,
		`{"scenario":"fish","ticks":1,"sequential":true}`,
	} {
		if code, e := post(strings.NewReader(bad)); code != http.StatusBadRequest || e.Error == "" {
			t.Errorf("%s: %d %+v, want 400 with an error message", bad, code, e)
		}
	}
	if got := m.List(); len(got) != 0 {
		t.Errorf("%d runs were admitted from rejected bodies", len(got))
	}
}

// A registry-fed fleet end to end: the manager starts with no worker
// addresses at all, daemons announce themselves, a run on their peer mesh
// completes bit-identical to the same run on a fleet named by address, and
// /v1/fleet's data reports the workers as registered.
func TestRegistryFedFleetMeshRun(t *testing.T) {
	rlis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := distrib.NewRegistry(rlis)
	t.Cleanup(reg.Close)
	for i := 0; i < 2; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { lis.Close() })
		go distrib.ServeWith(lis, distrib.ServeOptions{Register: reg.Addr()})
	}
	if _, err := reg.Await(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	m, err := NewManager(Config{
		Registry: reg,
		Log:      io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	spec := RunSpec{Scenario: "epidemic", Agents: 120, Seed: 9, Ticks: 12, Partitions: 4, EpochTicks: 3}
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, m, st.ID, 60*time.Second)
	if fin.State != StateDone {
		t.Fatalf("state = %s (error: %q)", fin.State, fin.Error)
	}

	solo, err := distrib.Run(distrib.Options{
		Addrs:    startFleet(t, 2),
		Scenario: spec.Scenario,
		Agents:   spec.Agents, Seed: spec.Seed,
		Partitions: spec.Partitions, Ticks: spec.Ticks,
		EpochTicks: spec.EpochTicks,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	requireSamePopulation(t, "registry-fed mesh", solo.Agents, res.Agents)
	if res.RelayedDataFrames != 0 {
		t.Errorf("coordinator relayed %d data frames in a healthy mesh", res.RelayedDataFrames)
	}

	for _, w := range m.Fleet() {
		if !w.Registered {
			t.Errorf("worker %s not marked registered", w.Addr)
		}
	}
}
