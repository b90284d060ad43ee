package main

import (
	"bytes"
	"fmt"
	"net"
	"time"

	brace "github.com/bigreddata/brace"
	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/cluster"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/partition"
	"github.com/bigreddata/brace/internal/spatial"
	"github.com/bigreddata/brace/internal/transport"
)

// The per-layer probes time calls into one layer's public functions on
// the workload's own data: population snapshots one epoch apart from its
// sequential trajectory. A workload probes only the layers it runs
// through; the others' metrics stay 0, which is the predicted "no change"
// of a workload that bypasses the layer.

const (
	probeReps      = 21  // repetitions behind each reported median
	emptyTicks     = 200 // ticks of the 8-agent barrier-latency runs
	loopbackFrames = 200 // frames streamed for the loopback rate
	probePart      = partitions / 2
)

// layerValues collects per-layer metric values by catalogue name.
type layerValues map[string]float64

// probe runs fn as a named span.
func (b *bench) probe(name string, fn func() error) error {
	id := b.rec.begin("probe." + name)
	defer b.rec.end(id)
	if err := fn(); err != nil {
		return fmt.Errorf("probe %s: %w", name, err)
	}
	return nil
}

// probes fills out with every per-layer metric the workload's layers
// yield from outside. cuts are the strip boundaries in force at the end of
// the run (nil: the initial quantile cuts).
func (b *bench) probes(tr *trajectory, cuts []float64, out layerValues) error {
	s := tr.schema
	var err error
	run := func(name string, fn func() error) {
		if err == nil {
			err = b.probe(name, fn)
		}
	}
	run("setup", func() error { return b.setupProbes(out) })
	run("agent.pack_morton", func() error {
		pop := agent.Population(tr.last).Clone()
		out["agent.pack_morton_us"] = micros(medianDur(probeReps, func() { agent.PackMorton(s, pop) }))
		return nil
	})
	if b.w.sequential {
		run("spatial", func() error { spatialProbes(s, tr.last, tr.lists, out); return nil })
		return err
	}

	strips, serr := b.strips(tr, cuts)
	if serr != nil {
		return serr
	}
	var visible []*agent.Agent // what partition probePart's index holds
	var targets []int
	for _, a := range tr.last {
		targets = partition.ReplicaTargets(strips, a.Pos(s), s.Visibility, targets[:0])
		for _, p := range targets {
			if p == probePart {
				visible = append(visible, a)
			}
		}
	}
	boundary := boundaryEnvelopes(s, strips, tr.last)
	run("spatial", func() error { spatialProbes(s, visible, tr.lists, out); return nil })
	run("partition", func() error { partitionProbes(s, strips, tr.last, out); return nil })
	run("engine.delta", func() error { return deltaProbes(s, strips, tr, out) })
	run("mapreduce.empty_tick", func() error { return b.emptyTickProbe(out) })
	if !b.w.tcp {
		run("transport.mem", func() error { memProbe(s, boundary, out); return nil })
		return err
	}
	run("transport.frames", func() error { return frameProbes(s, strips, tr.last, boundary, out) })
	run("transport.loopback", func() error { return loopbackProbe(s, boundary, out) })
	run("distrib.empty_tick", func() error { return b.distribEmptyTickProbe(out) })
	return err
}

// strips rebuilds the run's strip partitioning: the given cuts, or the
// engine's own initial choice (equal-count quantiles of the tick-0 x
// coordinates).
func (b *bench) strips(tr *trajectory, cuts []float64) (*partition.Strips, error) {
	if cuts != nil {
		return partition.NewStripsFromCuts(cuts)
	}
	xs := make([]float64, len(tr.first))
	for i, a := range tr.first {
		xs[i] = a.Pos(tr.schema).X
	}
	return partition.InitialStrips(xs, partitions), nil
}

// setupProbes splits set-up into the scenario layer (population build)
// and, for the scripted workload, the BRASIL compiler.
func (b *bench) setupProbes(out layerValues) error {
	const reps = 5
	if b.w.brasil {
		var prog *brace.Program
		var err error
		out["brasil.compile_us"] = micros(medianDur(reps, func() {
			prog, err = brace.CompileBRASIL(avoidScript, brace.CompileOptions{})
		}))
		if err != nil {
			return err
		}
		out["scenario.build_ms"] = millis(medianDur(reps, func() {
			brace.SeedPopulation(prog.Schema(), brasilAgents, b.seeds[0], brasilSpan)
		}))
		return nil
	}
	sp, _ := brace.LookupScenario("fish")
	var err error
	out["scenario.build_ms"] = millis(medianDur(reps, func() {
		_, _, err = sp.New(brace.ScenarioConfig{Agents: fishAgents, Seed: b.seeds[0]})
	}))
	return err
}

// spatialProbes measures the index layer on one index instance's point
// set: a bare KD build, candidate-list construction (a cached rebuild with
// lists minus one without), and one probe per agent along the path the
// workload's engine takes — the Verlet lists when the run reused them,
// the tree otherwise.
func spatialProbes(s *agent.Schema, pop []*agent.Agent, lists bool, out layerValues) {
	n := len(pop)
	pts := make([]spatial.Point, n)
	xs, ys, keys := make([]float64, n), make([]float64, n), make([]int64, n)
	for i, a := range pop {
		p := a.Pos(s)
		pts[i] = spatial.Point{Pos: p, ID: int32(i)}
		xs[i], ys[i], keys[i] = p.X, p.Y, int64(a.ID)
	}
	tree := spatial.NewKDTree()
	buf := make([]spatial.Point, n)
	out["spatial.kd_build_us"] = micros(medianDur(probeReps, func() {
		copy(buf, pts) // Build reorders its argument
		tree.Build(buf)
	}))

	rad := s.Visibility
	if s.ProbeRadius > 0 && s.ProbeRadius < rad {
		rad = s.ProbeRadius
	}
	skin := spatial.DefaultSkin(rad, s.Reach)
	rebuild := func(c *spatial.CachedIndex) time.Duration {
		return medianDur(probeReps, func() {
			c.Invalidate()
			c.BuildKeyedCols(xs, ys, keys, nil)
		})
	}
	full := spatial.NewCached(rad, skin)
	withLists := rebuild(full)
	withoutLists := rebuild(spatial.NewCached(0, skin))
	if withLists > withoutLists {
		out["spatial.list_build_us"] = micros(withLists - withoutLists)
	}

	var candidates, hits int64
	var slots []int32
	r2 := rad * rad
	sweep := func() {
		candidates, hits = 0, 0
		for i := 0; i < n; i++ {
			if lists {
				cand, cur := full.SlotCandidates(int32(i))
				candidates += int64(len(cand))
				for _, c := range cand {
					if cur[c].Dist2(cur[i]) <= r2 {
						hits++
					}
				}
				continue
			}
			var visited int64
			slots, visited = full.RangeCircleInto(full.Current(int32(i)), rad, slots[:0])
			candidates += visited
			hits += int64(len(slots))
		}
	}
	d := medianDur(probeReps, sweep)
	if n > 0 && candidates > 0 {
		out["spatial.probe_ns_per_agent"] = float64(d) / float64(n)
		out["spatial.candidates_per_agent"] = float64(candidates) / float64(n)
		out["spatial.candidate_hit_ratio"] = float64(hits) / float64(candidates)
	}
}

// partitionProbes measures routing one population through the strips: the
// owner lookup plus the replica-target scan the map phase does per agent.
func partitionProbes(s *agent.Schema, strips *partition.Strips, pop []*agent.Agent, out layerValues) {
	owned := make([]float64, strips.N())
	var replicas int
	var targets []int
	route := func() {
		replicas = 0
		for i := range owned {
			owned[i] = 0
		}
		for _, a := range pop {
			pos := a.Pos(s)
			owned[strips.Locate(pos)]++
			targets = partition.ReplicaTargets(strips, pos, s.Visibility, targets[:0])
			replicas += len(targets) - 1
		}
	}
	d := medianDur(probeReps, route)
	out["partition.route_ns_per_agent"] = float64(d) / float64(len(pop))
	out["partition.replicas_per_agent"] = float64(replicas) / float64(len(pop))
	out["partition.imbalance"] = partition.Imbalance(owned)
}

// ownedEnvelopes wraps the agents a partition owns as the engine holds
// them between ticks.
func ownedEnvelopes(s *agent.Schema, strips *partition.Strips, pop []*agent.Agent, part int) []*engine.Envelope {
	var envs []*engine.Envelope
	for _, a := range pop {
		if strips.Locate(a.Pos(s)) == part {
			envs = append(envs, &engine.Envelope{A: a, SrcPart: int32(part)})
		}
	}
	return envs
}

// boundaryEnvelopes is the batch partition probePart sends its right-hand
// neighbour in one map phase: replicas of its agents within visibility of
// the shared cut.
func boundaryEnvelopes(s *agent.Schema, strips *partition.Strips, pop []*agent.Agent) []*engine.Envelope {
	var envs []*engine.Envelope
	var targets []int
	for _, a := range pop {
		pos := a.Pos(s)
		if strips.Locate(pos) != probePart {
			continue
		}
		targets = partition.ReplicaTargets(strips, pos, s.Visibility, targets[:0])
		for _, p := range targets {
			if p == probePart+1 {
				envs = append(envs, &engine.Envelope{A: a, Replica: true, SrcPart: probePart})
			}
		}
	}
	return envs
}

// deltaProbes measures the incremental-checkpoint codec on one
// partition's state one epoch apart.
func deltaProbes(s *agent.Schema, strips *partition.Strips, tr *trajectory, out layerValues) error {
	base := ownedEnvelopes(s, strips, tr.prev, probePart)
	cur := ownedEnvelopes(s, strips, tr.last, probePart)
	if len(cur) == 0 {
		return fmt.Errorf("partition %d owns no agents", probePart)
	}
	var delta []byte
	var ok bool
	out["engine.diff_us"] = micros(medianDur(probeReps, func() { delta, ok = engine.DiffPartition(base, cur) }))
	if !ok {
		return fmt.Errorf("DiffPartition refused a partition one epoch apart")
	}
	out["engine.delta_bytes_per_agent"] = float64(len(delta)) / float64(len(cur))
	var err error
	out["engine.apply_delta_us"] = micros(medianDur(probeReps, func() { _, err = engine.ApplyDelta(base, delta) }))
	if err != nil {
		return err
	}
	out["engine.clone_envelopes_us"] = micros(medianDur(probeReps, func() { engine.CloneEnvelopes(cur) }))
	return nil
}

// tinyFish is the population of the barrier-latency runs: one agent per
// partition, so a tick is all fixed phase overhead.
const tinyFish = partitions

// emptyTickProbe measures the in-memory runtime's fixed per-tick cost.
func (b *bench) emptyTickProbe(out layerValues) error {
	sp, _ := brace.LookupScenario("fish")
	m, pop, err := sp.New(brace.ScenarioConfig{Agents: tinyFish, Seed: b.seeds[0]})
	if err != nil {
		return err
	}
	sim, err := brace.New(m, pop, brace.Config{Workers: partitions, Seed: b.seeds[0]})
	if err != nil {
		return err
	}
	if err := sim.Run(warmEpochs * epochTicks); err != nil {
		return err
	}
	t0 := time.Now()
	if err := sim.Run(emptyTicks); err != nil {
		return err
	}
	out["mapreduce.empty_tick_us"] = micros(time.Since(t0)) / emptyTicks
	return nil
}

// distribEmptyTickProbe measures the distributed barrier latency l: the
// same 8-agent run across the daemons, where a tick is two phase barriers
// and every tenth adds the stats/directive round.
func (b *bench) distribEmptyTickProbe(out layerValues) error {
	f, err := startFleet(daemons)
	if err != nil {
		return err
	}
	var ls lapStats
	nb := *b
	nb.rec = nil // the epochs of this run are the probe's own, not the workload's
	_, err = nb.distRun(b.seeds[0], f.addrs, tinyFish, emptyTicks+warmEpochs*epochTicks, &ls)
	if serr := f.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	var timed time.Duration
	for _, d := range ls.epochs {
		timed += d
	}
	out["distrib.empty_tick_us"] = micros(timed) / emptyTicks
	return nil
}

// bufConn is an in-memory net.Conn: writes append to the buffer, reads
// consume it. It lets Conn.Send and Conn.RecvSized be timed apart.
type bufConn struct{ bytes.Buffer }

func (*bufConn) Close() error                     { return nil }
func (*bufConn) LocalAddr() net.Addr              { return nil }
func (*bufConn) RemoteAddr() net.Addr             { return nil }
func (*bufConn) SetDeadline(time.Time) error      { return nil }
func (*bufConn) SetReadDeadline(time.Time) error  { return nil }
func (*bufConn) SetWriteDeadline(time.Time) error { return nil }

// dataFrame is the FrameData a worker sends a peer for one envelope batch.
func dataFrame(s *agent.Schema, batch []*engine.Envelope) *transport.Frame {
	return &transport.Frame{
		Kind: transport.FrameData, Src: 0, Gen: 1, Phase: 1, Dst: 1, Seq: 1,
		Msg: cluster.Message{
			From: probePart, To: probePart + 1, Tag: 1,
			Payload: batch, Bytes: len(batch) * s.ByteSize(),
		},
	}
}

// codecTimes sends frame reps times into memory and reads the copies
// back, returning the median encode and decode times, the frame's wire
// size and the heap objects one send-receive pair allocates.
func codecTimes(frame *transport.Frame, reps int) (enc, dec time.Duration, size int, allocs float64, err error) {
	pipe := &bufConn{}
	conn := transport.NewConn(pipe)
	obj0, _ := allocCounters()
	enc = medianDur(reps, func() {
		if e := conn.Send(frame); e != nil {
			err = e
		}
	})
	if err != nil {
		return
	}
	dec = medianDur(reps, func() {
		_, n, e := conn.RecvSized()
		if e != nil {
			err = e
		}
		size = n
	})
	obj1, _ := allocCounters()
	allocs = float64(obj1-obj0) / float64(reps)
	return
}

// frameProbes measures the wire codec on the two frames that dominate the
// tcp workloads: a neighbour envelope batch and a full checkpoint part.
func frameProbes(s *agent.Schema, strips *partition.Strips, pop []*agent.Agent, boundary []*engine.Envelope, out layerValues) error {
	if len(boundary) == 0 {
		return fmt.Errorf("partition %d has no boundary agents", probePart)
	}
	enc, dec, size, allocs, err := codecTimes(dataFrame(s, boundary), probeReps)
	if err != nil {
		return err
	}
	out["transport.frame_encode_us"] = micros(enc)
	out["transport.frame_decode_us"] = micros(dec)
	out["transport.frame_bytes"] = float64(size)
	out["transport.frame_payload_bytes"] = float64(len(boundary) * s.ByteSize())
	out["transport.frame_allocs"] = allocs

	ckpt := &transport.Frame{
		Kind: transport.FrameCheckpoint, Src: 0, Gen: 1,
		Ckpt: &transport.CheckpointMsg{Proc: 0, Tick: 10, Parts: []transport.PartState{
			{Part: probePart, Full: true, Values: ownedEnvelopes(s, strips, pop, probePart)},
		}},
	}
	enc, _, size, _, err = codecTimes(ckpt, probeReps)
	if err != nil {
		return err
	}
	out["transport.ckpt_frame_encode_us"] = micros(enc)
	out["transport.ckpt_frame_bytes"] = float64(size)
	return nil
}

// loopbackProbe measures a real loopback socket under transport.Conn: the
// round trip of a ping and the rate at which envelope frames stream
// through encode, socket and decode.
func loopbackProbe(s *agent.Schema, boundary []*engine.Envelope, out layerValues) error {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer lis.Close()
	echoDone := make(chan error, 1)
	go func() { echoDone <- echoPings(lis) }()

	nc, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		return err
	}
	conn := transport.NewConn(nc)
	ping := &transport.Frame{Kind: transport.FramePing}
	roundTrip := func() error {
		if err := conn.Send(ping); err != nil {
			return err
		}
		_, err := conn.Recv()
		return err
	}
	var rtErr error
	rtt := medianDur(loopbackFrames, func() {
		if err := roundTrip(); err != nil {
			rtErr = err
		}
	})
	frame := dataFrame(s, boundary)
	_, _, size, _, err := codecTimes(frame, 1)
	t0 := time.Now()
	for i := 0; i < loopbackFrames && err == nil && rtErr == nil; i++ {
		err = conn.Send(frame)
	}
	if err == nil && rtErr == nil {
		err = roundTrip() // the echo answers only after reading every frame before it
	}
	d := time.Since(t0)
	conn.Close()
	if e := <-echoDone; err == nil {
		err = e
	}
	if err == nil {
		err = rtErr
	}
	if err != nil {
		return err
	}
	out["transport.loopback_rtt_us"] = micros(rtt)
	out["transport.loopback_mb_per_s"] = float64(size) * loopbackFrames / 1e6 / d.Seconds()
	return nil
}

// echoPings serves one connection: it decodes every frame and answers
// pings with pongs until the peer closes.
func echoPings(lis net.Listener) error {
	nc, err := lis.Accept()
	if err != nil {
		return err
	}
	conn := transport.NewConn(nc)
	defer conn.Close()
	pong := &transport.Frame{Kind: transport.FramePong}
	for {
		f, err := conn.Recv()
		if err != nil {
			return nil // the prober closed its end
		}
		if f.Kind == transport.FramePing {
			if err := conn.Send(pong); err != nil {
				return err
			}
		}
	}
}

// memProbe measures transport.Mem moving one phase's envelope batches:
// every partition sends its neighbour a batch, then every inbox drains.
func memProbe(s *agent.Schema, boundary []*engine.Envelope, out layerValues) {
	tr := transport.NewMem(partitions)
	bytes := len(boundary) * s.ByteSize()
	d := medianDur(probeReps*10, func() {
		for p := 0; p < partitions; p++ {
			tr.Send(cluster.Message{
				From: cluster.NodeID(p), To: cluster.NodeID((p + 1) % partitions),
				Tag: 1, Payload: boundary, Bytes: bytes,
			})
		}
		for p := 0; p < partitions; p++ {
			tr.Drain(cluster.NodeID(p))
		}
	})
	out["transport.mem_send_drain_ns_per_msg"] = float64(d) / partitions
}
