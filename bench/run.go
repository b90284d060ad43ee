package main

import (
	"fmt"
	"time"
)

const (
	// Set-up is sampled for this share of the measuring time, between
	// these counts.
	minSetups  = 15
	maxSetups  = 101
	setupShare = 0.025
	// A run measures at least this many rounds (of one lap per derived
	// seed), however slow the machine: the replicas of a lap are what a
	// disturbed one is rejected against.
	defaultMinRounds = 3
	// A traced run keeps the rest of its measuring time for the probes.
	tracedLapShare = 0.7
)

// options are the settings of one run.
type options struct {
	seed     uint64
	seconds  float64 // measuring time per run
	scale    float64 // multiplier of ticks per lap and of derived seeds
	traceDir string
	// minRounds overrides defaultMinRounds when positive (the smoke test
	// runs two: one plain, one traced).
	minRounds int
}

// runOutput is one run of one workload: the contract's result plus what a
// reader needs to judge it.
type runOutput struct {
	Workload     string   `json:"workload"`
	Traced       bool     `json:"traced"`
	Seed         uint64   `json:"seed"`
	Procs        int      `json:"gomaxprocs"`
	LapTicks     int      `json:"lap_ticks"`
	Rounds       int      `json:"rounds"`
	Laps         int      `json:"laps"`
	TimedEpochs  int      `json:"timed_epochs"`
	SetupSamples int      `json:"setup_samples"`
	Digests      []string `json:"digests"`
	References   []string `json:"reference_digests"`
	Problems     []string `json:"problems,omitempty"`
	TraceFile    string   `json:"trace_file,omitempty"`
	Seconds      float64  `json:"wall_s"`
	Result       result   `json:"result"`

	// Inputs of the traced report's tables.
	seqTick time.Duration // the sequential reference's mean tick
	tick    time.Duration // this workload's tick over the plain rounds
	self    map[string]time.Duration
}

// round is one lap per derived seed.
type round []*lapStats

// runWorkload measures one workload once: untraced for the end-to-end
// metrics, traced for the per-layer ones.
func runWorkload(w workload, opt options, traced bool) (*runOutput, error) {
	start := time.Now()
	b := newBench(w, opt.seed, opt.scale)
	defer pinProcs(b.procs())()
	var rec *recorder
	if traced {
		rec = newRecorder(w.name)
	}
	b.rec = rec
	out := &runOutput{
		Workload: w.name, Traced: traced, Seed: opt.seed,
		Procs: b.procs(), LapTicks: b.lapTicks,
	}

	want, probeInput, err := b.references(traced)
	if err != nil {
		return nil, fmt.Errorf("%s: reference: %w", w.name, err)
	}
	for _, d := range want {
		out.References = append(out.References, fmt.Sprintf("%016x", d))
	}
	if probeInput != nil {
		out.seqTick = probeInput.tick
	}

	budget := time.Duration(opt.seconds * float64(time.Second))
	setups, err := b.sampleSetups(time.Duration(setupShare * float64(budget)))
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	out.SetupSamples = len(setups)

	minRounds := defaultMinRounds
	if opt.minRounds > 0 {
		minRounds = opt.minRounds
	}
	if traced {
		budget = time.Duration(float64(budget) * tracedLapShare)
		minRounds = (minRounds + 1) / 2 // a traced round is twice the laps
	}
	plain, stepped, lapErr := b.measure(budget, minRounds, rec)
	rounds := append(append([]round(nil), plain...), stepped...)
	out.Rounds = len(rounds)

	if lapErr != nil {
		out.Problems = append(out.Problems, lapErr.Error())
	}
	for j := range b.seeds {
		var laps []*lapStats
		for _, r := range rounds {
			if r[j] != nil {
				laps = append(laps, r[j])
			}
		}
		if len(laps) == 0 {
			continue
		}
		failed, problems := b.verify(j, laps, want[j])
		out.Result.Failed += failed
		out.Problems = append(out.Problems, problems...)
		got := laps[0].final
		if w.sequential {
			got = laps[0].check
		}
		out.Digests = append(out.Digests, fmt.Sprintf("%016x", got))
		for _, ls := range laps {
			out.Laps++
			out.Result.Attempted += ls.attempted
			out.TimedEpochs += len(ls.epochs)
		}
	}
	out.Result.Correct = len(out.Problems) == 0
	if lapErr != nil {
		// An incomplete round cannot be reduced; the failure is the result.
		out.Result.Metrics = map[string]metric{}
		out.Seconds = time.Since(start).Seconds()
		return out, nil
	}

	if !traced {
		out.Result.Metrics = metricsOf(endToEndDefs, endToEnd(setups, rounds, b.agents()))
	} else {
		values := layerValues{}
		b.layerCounters(plain, stepped, values)
		if err := b.probes(probeInput, finalCuts(stepped), values); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		out.Result.Metrics = metricsOf(perLayerDefs, values)
		out.tick = time.Duration(float64(time.Second) * float64(b.agents()) / rate(plain, b.agents()))
		out.self = rec.selfTime()
		if out.TraceFile, err = rec.write(opt.traceDir, opt.seed); err != nil {
			return nil, err
		}
	}
	out.Seconds = time.Since(start).Seconds()
	return out, nil
}

// references computes the digest every derived seed's laps are checked
// against. A traced run also gets the first seed's sequential trajectory
// with snapshots, which its probes work on.
func (b *bench) references(traced bool) (want []uint64, probeInput *trajectory, err error) {
	want = make([]uint64, len(b.seeds))
	for j, seed := range b.seeds {
		snapshots := traced && j == 0
		if b.w.sequential {
			if want[j], err = b.partitionedDigest(seed, b.checkTick()); err != nil {
				return nil, nil, err
			}
			if !snapshots {
				continue
			}
		}
		tr, err := b.seqTrajectory(seed, b.lapTicks, snapshots)
		if err != nil {
			return nil, nil, err
		}
		if !b.w.sequential {
			want[j] = tr.digest
		}
		if j == 0 {
			probeInput = tr
		}
	}
	return want, probeInput, nil
}

// sampleSetups times constructions of the workload, cycling through the
// derived seeds, until the budget is spent.
func (b *bench) sampleSetups(budget time.Duration) ([]float64, error) {
	var setups []float64
	for t0 := time.Now(); len(setups) < minSetups || (time.Since(t0) < budget && len(setups) < maxSetups); {
		d, err := b.setupOnce(b.seeds[len(setups)%len(b.seeds)])
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	return setups, nil
}

// measure runs rounds until the budget is used up, and at least
// minRounds. With a recorder every plain lap is paired with a traced lap
// of the same seed, which records spans and steps the sequential engine
// tick by tick: the plain laps run exactly as an untraced run's do, and
// each pair gives the tracing overhead from two laps a second apart. On a
// lap's error the last round is left incomplete.
func (b *bench) measure(budget time.Duration, minRounds int, rec *recorder) (plain, stepped []round, err error) {
	defer func() { b.rec = rec }()
	for t0 := time.Now(); err == nil && (time.Since(t0) < budget || len(plain) < minRounds); {
		p, s := make(round, len(b.seeds)), make(round, len(b.seeds))
		for j, seed := range b.seeds {
			// Which lap of a pair goes first alternates, so that whatever
			// the second of two identical laps gains cancels out.
			for k := 0; k < 2 && err == nil; k++ {
				if withSpans := k == j%2; !withSpans {
					b.rec = nil
					p[j], err = b.lap(seed, false)
				} else if rec != nil {
					b.rec = rec
					s[j], err = b.lap(seed, true)
				}
			}
		}
		plain = append(plain, p)
		if rec != nil {
			stepped = append(stepped, s)
		}
	}
	return plain, stepped, err
}

// rate is the rounds' agent-ticks per second of timed epochs. Every lap
// has one replica per round doing bit-identical work, so each epoch's
// time is taken as the median over its replicas — a burst of interference
// that slows one replica moves nothing — and the rate is all derived
// seeds' work over the sum of those medians.
func rate(rounds []round, agents int) float64 {
	var total float64 // seconds
	epochs := 0
	replicas := make([]float64, len(rounds))
	for j := range rounds[0] {
		for e := range rounds[0][j].epochs {
			for r := range rounds {
				replicas[r] = rounds[r][j].epochs[e].Seconds()
			}
			total += median(replicas)
			epochs++
		}
	}
	return float64(agents) * float64(epochs*epochTicks) / total
}

// pooledEpochs returns every timed epoch of the rounds, in milliseconds.
func pooledEpochs(rounds []round) []float64 {
	var ms []float64
	for _, r := range rounds {
		for _, ls := range r {
			for _, d := range ls.epochs {
				ms = append(ms, millis(d))
			}
		}
	}
	return ms
}

// overSeeds reduces a per-lap quantity to one number per derived seed —
// the median over that seed's replicas — and returns those.
func overSeeds(rounds []round, of func(*lapStats) float64) []float64 {
	out := make([]float64, len(rounds[0]))
	replicas := make([]float64, len(rounds))
	for j := range out {
		for r := range rounds {
			replicas[r] = of(rounds[r][j])
		}
		out[j] = median(replicas)
	}
	return out
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// endToEnd reduces the rounds to the end-to-end metrics.
func endToEnd(setups []float64, rounds []round, agents int) map[string]float64 {
	ticks := float64(rounds[0][0].attempted * epochTicks)
	peak := 0.0
	for _, p := range overSeeds(rounds, func(ls *lapStats) float64 { return float64(ls.heapPeak - ls.heapBase) }) {
		if p > peak {
			peak = p
		}
	}
	return map[string]float64{
		"setup_s":           median(setups),
		"agent_ticks_per_s": rate(rounds, agents),
		"epoch_ms_p50":      median(pooledEpochs(rounds)),
		"allocs_per_tick":   mean(overSeeds(rounds, func(ls *lapStats) float64 { return float64(ls.objects) })) / ticks,
		"alloc_kb_per_tick": mean(overSeeds(rounds, func(ls *lapStats) float64 { return float64(ls.bytes) })) / 1024 / ticks,
		"heap_live_peak_mb": peak / (1 << 20),
	}
}

// layerCounters fills the per-layer metrics that are counted at the lap
// boundaries of the traced run rather than probed: the engines' own
// counters, the coordinator's result, and the tracing overhead. Counts are those of the first
// derived seed, the one the probes work on.
func (b *bench) layerCounters(plain, stepped []round, out layerValues) {
	ls := stepped[len(stepped)-1][0]
	ticks := float64(b.lapTicks)
	out["wire_bytes_per_tick"] = float64(ls.wireBytes) / ticks
	if !b.w.sequential {
		out["mapreduce.local_bytes_per_tick"] = float64(ls.localBytes) / ticks
	}
	if r := ls.dist; r != nil {
		out["distrib.epoch_ms_p90"] = quantile(pooledEpochs(stepped), 0.9)
		out["distrib.msgs_per_tick"] = float64(ls.wireMsgs) / ticks
		out["distrib.ckpt_bytes_per_epoch"] = float64(r.CheckpointBytes) / (ticks / epochTicks)
		out["distrib.full_parts"] = float64(r.CheckpointFullParts)
		out["distrib.delta_parts"] = float64(r.CheckpointDeltaParts)
		out["distrib.rebalances"] = float64(r.Rebalances)
		out["distrib.relayed_frames"] = float64(r.RelayedDataFrames)
		out["distrib.recoveries"] = float64(r.Recoveries)
		out["distrib.stall_drops"] = float64(r.StallDrops)
	} else {
		out["engine.epoch_ms_p90"] = quantile(pooledEpochs(stepped), 0.9)
		if n := ls.builds + ls.reuses; n > 0 {
			out["engine.cache_reuse_ratio"] = float64(ls.reuses) / float64(n)
		}
		out["engine.candidates_per_agent_tick"] = float64(ls.candidates) / float64(ls.agentTicks)
		var build, reuse []float64
		for _, r := range stepped {
			for _, l := range r {
				for _, d := range l.buildTicks {
					build = append(build, micros(d))
				}
				for _, d := range l.reuseTicks {
					reuse = append(reuse, micros(d))
				}
			}
		}
		out["engine.tick_us_build"] = median(build)
		out["engine.tick_us_reuse"] = median(reuse)
	}
	// Tracing overhead: the median, over every timed epoch, of how much
	// longer the traced lap took than the plain lap it is paired with.
	var slower []float64
	for r := range stepped {
		for j, l := range stepped[r] {
			for e, d := range l.epochs {
				p := plain[r][j].epochs[e]
				slower = append(slower, float64(d-p)/float64(p))
			}
		}
	}
	out["trace.overhead_pct"] = 100 * median(slower)
}

// finalCuts returns the strip cuts in force at the end of the first
// derived seed's load-balanced lap; nil when the run kept its initial
// partitioning.
func finalCuts(stepped []round) []float64 {
	r := stepped[len(stepped)-1][0].dist
	if r == nil || r.Rebalances == 0 || len(r.Epochs) == 0 {
		return nil
	}
	return r.Epochs[len(r.Epochs)-1].Cuts
}
