package distrib

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/partition"
	"github.com/bigreddata/brace/internal/scenario"
	"github.com/bigreddata/brace/internal/spatial"
	"github.com/bigreddata/brace/internal/transport"
)

// startWorkers launches n single-session worker daemons on loopback TCP
// listeners and returns their addresses. Each runs the exact code path of
// cmd/bracesim-worker (distrib.ServeWith), just inside this process so the
// suite stays fast and race-instrumented; the real multi-OS-process run is
// exercised by cmd/bracesim's distributed test.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { lis.Close() })
		addrs[i] = lis.Addr().String()
		go ServeWith(lis, ServeOptions{Once: true})
	}
	return addrs
}

// memReference runs the same configuration fully in-process on the
// in-memory transport.
func memReference(t *testing.T, name string, agents int, extent float64, seed uint64, parts, ticks int) agent.Population {
	t.Helper()
	sp, ok := scenario.Lookup(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	m, pop, err := sp.New(scenario.Config{Agents: agents, Seed: seed, Extent: extent})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.NewDistributed(m, pop, engine.Options{
		Workers: parts, Index: spatial.KindKDTree, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}
	return eng.Agents()
}

// TestLoopbackTCPBitIdentical is the tentpole's acceptance oracle: a run
// across real sockets, with the partitions split over ≥ 2 worker
// processes, must end in bit-identical state to the in-memory transport
// at the same seed and partition count for local-effect scenarios — and
// the peer mesh must carry its own data plane: the coordinator relays no
// data frame in a healthy run.
func TestLoopbackTCPBitIdentical(t *testing.T) {
	const (
		agents = 96
		extent = 30.0
		seed   = uint64(5)
		parts  = 4
		ticks  = 8
	)
	for _, name := range []string{"epidemic", "evacuate", "fish"} {
		name := name
		t.Run(name, func(t *testing.T) {
			want := memReference(t, name, agents, extent, seed, parts, ticks)
			res, err := Run(Options{
				Addrs:    startWorkers(t, 2),
				Scenario: name,
				Agents:   agents, Extent: extent, Seed: seed,
				Partitions: parts, Ticks: ticks, Index: spatial.KindKDTree,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Ticks != ticks || res.Procs != 2 {
				t.Fatalf("ticks=%d procs=%d", res.Ticks, res.Procs)
			}
			assertSamePopulation(t, name+"/loopback", want, res.Agents)
			if res.Net.SentMsgs == 0 {
				t.Error("no traffic crossed the wire; the run was not actually distributed")
			}
			if res.RelayedDataFrames != 0 {
				t.Errorf("coordinator relayed %d data frames (%d bytes); a healthy mesh carries its own data plane",
					res.RelayedDataFrames, res.RelayedDataBytes)
			}
		})
	}
}

// Three processes with an uneven partition split must agree too — the
// block assignment, not just the halves, is semantics-free.
func TestLoopbackTCPUnevenBlocks(t *testing.T) {
	want := memReference(t, "epidemic", 90, 30, 11, 5, 6)
	res, err := Run(Options{
		Addrs:    startWorkers(t, 3),
		Scenario: "epidemic",
		Agents:   90, Extent: 30, Seed: 11,
		Partitions: 5, Ticks: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Agents) != len(want) {
		t.Fatalf("population sizes differ: %d vs %d", len(res.Agents), len(want))
	}
	for i := range want {
		if !want[i].Equal(res.Agents[i]) {
			t.Fatalf("agent %d differs", want[i].ID)
		}
	}
}

// cutAllPeers cuts every outgoing peer link of a session before its first
// send, so the coordinator relay carries the session's whole data plane.
func cutAllPeers(tr transport.Transport, h *transport.Hello) transport.Transport {
	for dst := 0; dst < h.NumProcs; dst++ {
		if dst != h.Proc {
			tr.(*transport.TCP).CutPeer(dst)
		}
	}
	return tr
}

// The cross-transport load-balancing oracle: `-lb` over loopback TCP must
// make the *same migration decisions* as the in-memory engine — same
// rebalanced-or-not verdict and same strip cuts at every epoch — and end in
// bit-identical state, for every registered local-effect scenario in the
// suite. This is what one master buys: engine.Master on worker statistics
// ≡ engine.Master on in-process state. Each scenario runs twice: with the
// data plane on direct peer links, and with every peer link cut before the
// first send, so the coordinator relay carries all of it while checkpoint
// frames of every epoch share the hub with it. The first run's daemons are
// one-shot (Once), so it also pins that such a daemon keeps accepting peer
// links while its one coordinator session runs: no data frame may fall
// back to the relay.
func TestLoopbackTCPLoadBalanceEquivalence(t *testing.T) {
	const (
		agents = 96
		seed   = uint64(5)
		parts  = 4
		ticks  = 12
		epoch  = 4
	)
	// An eager balancer so the runs actually rebalance within 12 ticks.
	bal := partition.Balancer{MigrateCostPerAgent: 1e-9, HorizonTicks: 1000, MinRelativeGain: 0.01}
	for _, sp := range scenario.All() {
		if !sp.LocalOnly {
			continue // non-local effects are not bit-stable across partitionings
		}
		name := sp.Name
		extent := 30.0
		if name == "traffic" {
			extent = 1800 // traffic derives its population from Extent
		}
		t.Run(name, func(t *testing.T) {
			mem := memEngine(t, name, agents, extent, seed, engine.Options{
				Workers: parts, Seed: seed,
				EpochTicks:  epoch,
				LoadBalance: true, Balancer: bal,
			})
			// One RunTicks per epoch, to read the cuts each barrier leaves.
			var memCuts [][]float64
			for mem.Tick() < ticks {
				if err := mem.RunTicks(epoch); err != nil {
					t.Fatal(err)
				}
				memCuts = append(memCuts, mem.Partition().Cuts())
			}
			memEpochs := mem.Epochs()

			for _, run := range []struct {
				path  string
				addrs []string
				ckpt  int
			}{
				{"peer links", startWorkers(t, 2), 0},
				{"relay", startChaosWorkers(t, 2, cutAllPeers), 1},
			} {
				res, err := Run(Options{
					Addrs:    run.addrs,
					Scenario: name,
					Agents:   agents, Extent: extent, Seed: seed,
					Partitions: parts, Ticks: ticks,
					EpochTicks: epoch, CheckpointEveryEpochs: run.ckpt,
					LoadBalance: true, Balancer: bal,
				})
				if err != nil {
					t.Fatalf("%s: %v", run.path, err)
				}

				// Identical migration decisions and cuts, epoch by epoch.
				if len(memEpochs) != len(res.Epochs) {
					t.Fatalf("%s: epoch counts differ: mem %d vs tcp %d", run.path, len(memEpochs), len(res.Epochs))
				}
				for i, me := range memEpochs {
					te := res.Epochs[i]
					if me.Tick != te.Tick || me.Rebalanced != te.Rebalanced {
						t.Errorf("%s epoch %d: mem (tick %d, rebalanced %v) vs tcp (tick %d, rebalanced %v)",
							run.path, i, me.Tick, me.Rebalanced, te.Tick, te.Rebalanced)
					}
					if !slices.Equal(memCuts[i], te.Cuts) {
						t.Fatalf("%s epoch %d: cuts differ: mem %v vs tcp %v", run.path, i, memCuts[i], te.Cuts)
					}
				}
				if res.Rebalances == 0 {
					t.Errorf("%s: no rebalances happened; the equivalence was not exercised", run.path)
				}

				// Identical final state.
				assertSamePopulation(t, name+"/lb-equivalence/"+run.path, mem.Agents(), res.Agents)
				if run.ckpt == 0 {
					if res.RelayedDataFrames != 0 {
						t.Errorf("coordinator relayed %d data frames; one-shot daemons must still accept peer links", res.RelayedDataFrames)
					}
					continue
				}
				if res.RelayedDataFrames == 0 {
					t.Error("relay: no data frames were relayed; the peer links were never cut")
				}
				if res.Recoveries != 0 {
					t.Errorf("relay: recoveries = %d, want 0: a link that is down is not a dead worker", res.Recoveries)
				}
			}
		})
	}
}

// A worker that rejects the handshake must fail the coordinator with the
// worker's reason, not a hang.
func TestHandshakeRejection(t *testing.T) {
	_, err := Run(Options{
		Addrs:      startWorkers(t, 2),
		Scenario:   "epidemic",
		Partitions: 1, // cannot cover 2 procs: coordinator-side validation
		Ticks:      1,
	})
	if err == nil || !strings.Contains(err.Error(), "cannot cover") {
		t.Fatalf("err = %v", err)
	}

	_, err = Run(Options{
		Addrs:      []string{"127.0.0.1:1"}, // nothing listens on port 1
		Scenario:   "epidemic",
		Partitions: 2,
		Ticks:      1,
	})
	if err == nil {
		t.Fatal("dialing a dead worker succeeded")
	}

	// A Hello this daemon must not serve is refused by checkHello — before
	// anything is built from it — and the daemon says why on the Ack
	// instead of hanging up: version skew (typed), run sizes outside the
	// limits, which would otherwise size a population from a number read
	// off the network, and a roster or run ID that peer links could not
	// use.
	hello := func(mut func(*transport.Hello)) *transport.Hello {
		h := (&Options{Addrs: []string{"x"}, RunID: "run-1", Scenario: "epidemic", Partitions: 1}).hello(0, 1, []int{0})
		mut(h)
		return h
	}
	old := hello(func(h *transport.Hello) { h.Proto = 12 })
	var ve *transport.VersionError
	if _, err := checkHello(old); !errors.As(err, &ve) || ve.Got != 12 || ve.Want != 13 || transport.ProtoVersion != 13 {
		t.Fatalf("checkHello(v12) = %v, want *transport.VersionError{12, 13}", err)
	}
	badIndex := hello(func(h *transport.Hello) { h.Index = 7 })
	var uk *spatial.UnknownKindError
	if _, err := checkHello(badIndex); !errors.As(err, &uk) {
		t.Fatalf("checkHello(Index 7) = %v, want a *spatial.UnknownKindError", err)
	}
	for _, tc := range []struct {
		name, want string
		h          *transport.Hello
	}{
		{"stale version", "protocol version 12", old},
		{"stale version 11", "protocol version 11", hello(func(h *transport.Hello) { h.Proto = 11 })},
		{"stale version 10", "protocol version 10", hello(func(h *transport.Hello) { h.Proto = 10 })},
		{"index out of range", `unknown index "7"`, badIndex},
		{"agents over limit", "agents outside the limit", hello(func(h *transport.Hello) { h.Agents = MaxAgents + 1 })},
		{"negative agents", "agents outside the limit", hello(func(h *transport.Hello) { h.Agents = -1 })},
		{"negative epoch ticks", "negative epoch ticks", hello(func(h *transport.Hello) { h.EpochTicks = -3 })},
		// A coordinator from before every run was a mesh sent no roster
		// and no run ID.
		{"star hello", "Peers lists 0 addresses for 1 processes", hello(func(h *transport.Hello) { h.Peers, h.RunID = nil, "" })},
		{"roster longer than the fleet", "Peers lists 2 addresses for 1 processes", hello(func(h *transport.Hello) { h.Peers = []string{"x", "y"} })},
		{"empty run ID", "empty RunID", hello(func(h *transport.Hello) { h.RunID = "" })},
		{"partitions over limit", "partitions outside the limit", hello(func(h *transport.Hello) {
			h.Partitions = MaxPartitions + 1
			h.Assign = make([]int, h.Partitions)
		})},
	} {
		nc, err := net.Dial("tcp", startWorkers(t, 1)[0])
		if err != nil {
			t.Fatal(err)
		}
		fc := transport.NewConn(nc)
		if err := fc.Send(&transport.Frame{Kind: transport.FrameHello, Hello: tc.h}); err != nil {
			t.Fatal(err)
		}
		ack, err := fc.Recv()
		if err != nil || ack.Kind != transport.FrameAck || !strings.Contains(ack.Err, tc.want) {
			t.Errorf("%s: Hello answered with %+v, %v; want an Ack carrying %q", tc.name, ack, err, tc.want)
		}
		fc.Close()
	}
}

// A v10 coordinator's hello was a gob stream. A v12 daemon's handshake
// reader must refuse one with a typed *transport.ProtocolError, promptly
// and without a panic.
func TestHandshakeRefusesV10GobHello(t *testing.T) {
	h := (&Options{Addrs: []string{"x"}, Scenario: "epidemic", Partitions: 1}).hello(0, 1, []int{0})
	h.Proto = 10
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(&transport.Frame{Kind: transport.FrameHello, Hello: h}); err != nil {
		t.Fatal(err)
	}
	msg := append(binary.BigEndian.AppendUint32(nil, uint32(body.Len())), body.Bytes()...)
	coord, worker := net.Pipe()
	defer coord.Close()
	go coord.Write(msg)
	done := make(chan error, 1)
	go func() {
		_, err := serveConn(worker, ServeOptions{})
		done <- err
	}()
	select {
	case err := <-done:
		var pe *transport.ProtocolError
		if !errors.As(err, &pe) {
			t.Fatalf("v10 hello: %v, want a *transport.ProtocolError", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("v10 hello hung the handshake")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Options{Scenario: "epidemic"}); err == nil {
		t.Error("no addresses accepted")
	}
	if _, err := Run(Options{Addrs: []string{"x"}, Scenario: "no-such", Partitions: 1}); err == nil ||
		!strings.Contains(err.Error(), "no-such") {
		t.Errorf("unknown scenario: %v", err)
	}
	var unknown *spatial.UnknownKindError
	if _, err := Run(Options{Addrs: []string{"x"}, Scenario: "epidemic", Partitions: 1, Index: 7}); !errors.As(err, &unknown) {
		t.Errorf("unknown index: %v, want a *spatial.UnknownKindError", err)
	}
	// Zero selects the default; a negative cadence or timeout is refused
	// before anything is dialled, never quietly read as the default.
	for _, o := range []Options{
		{EpochTicks: -3},
		{CheckpointEveryEpochs: -1},
		{Tunables: Tunables{DialTimeout: -time.Second}},
	} {
		o.Addrs, o.Scenario, o.Partitions = []string{"x"}, "epidemic", 1
		if _, err := Run(o); err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("%+v: %v", o, err)
		}
	}
}
