package experiments

import (
	"fmt"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/brasil"
	"github.com/bigreddata/brace/internal/cluster"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/sim/fish"
	"github.com/bigreddata/brace/internal/spatial"
	"github.com/bigreddata/brace/internal/stats"
	"github.com/bigreddata/brace/internal/transport"
)

// This file holds ablations beyond the paper's figures, for the design
// choices DESIGN.md calls out: task collocation (§3.3), the checkpoint
// interval (§3.3 cites Daly [13]), and effect inversion as an automatic
// compiler pass (§4.2 — the paper hand-wrote both predator scripts).

// AblationCollocation quantifies §3.3's collocation of tasks: the fraction
// of message bytes that bypass the network because a partition's map and
// reduce tasks share a worker, across the scale-up sweep. Without
// collocation every byte would cross the network.
func AblationCollocation(s Scale) (*Result, error) {
	n := int(2000 * s.Factor)
	if n < 400 {
		n = 400
	}
	frac := &stats.Series{Label: "network byte fraction"}
	saved := &stats.Series{Label: "bytes kept local (MB)"}
	for _, w := range scaleUpWorkers(s) {
		p := fish.DefaultParams()
		m := fish.NewModel(p)
		cm := cluster.DefaultCostModel()
		eng, err := engine.NewDistributed(m, m.NewPopulation(n, s.Seed), engine.Options{
			Workers: w, Index: spatial.KindKDTree, Seed: s.Seed, CostModel: &cm,
		})
		if err != nil {
			return nil, err
		}
		if err := eng.RunTicks(s.Ticks); err != nil {
			return nil, err
		}
		mt := eng.Runtime().Transport().Metrics()
		frac.Add(float64(w), mt.NetworkFraction())
		saved.Add(float64(w), float64(mt.Totals().LocalBytes)/1e6)
	}
	return &Result{
		ID:     "Ablation A1",
		Title:  "Collocation: fraction of bytes crossing the network vs workers",
		XName:  "# workers",
		Series: []*stats.Series{frac, saved},
		PaperClaim: "collocating a partition's map and reduce tasks lets agents that stay " +
			"in place travel through memory; only boundary replicas cross the network (§3.3)",
		Notes: fmt.Sprintf("%d fish, %d ticks; 1 worker = everything local by construction", n, s.Ticks),
	}, nil
}

// AblationCheckpointInterval reproduces the Young/Daly trade-off the paper
// cites [13]: sweeping the checkpoint interval under a fixed failure
// schedule, total completion cost is U-shaped — frequent checkpoints waste
// checkpoint overhead, rare ones waste re-execution. Re-execution cost is
// measured (rolled-back ticks really re-run on the virtual clock);
// checkpoint overhead is charged analytically at δ seconds each.
//
// The crash closes the in-memory transport in the crash tick's map phase.
// The barrier it breaks detects it, as over TCP, so the crash tick is lost
// whole and the re-executed ticks are those since the last checkpoint: 0
// when a checkpoint lands on the crash tick.
func AblationCheckpointInterval(s Scale) (*Result, error) {
	const workers = 4
	n := int(1500 * s.Factor)
	if n < 300 {
		n = 300
	}
	totalTicks := s.Ticks * 10
	// One crash in the middle of the run.
	crashTick := uint64(totalTicks / 2)

	// δ: coordinated checkpoint cost — each worker serializes its owned
	// agents to stable storage.
	p := fish.DefaultParams()
	m := fish.NewModel(p)
	bytesPerWorker := float64(n) / workers * float64(m.Schema().ByteSize())
	const diskBytesPerSec = 100e6 // 2010-era disk
	delta := bytesPerWorker / diskBytesPerSec

	cost := &stats.Series{Label: "total virtual cost (s)"}
	reexec := &stats.Series{Label: "re-executed ticks"}
	for _, everyEpochs := range []int{1, 2, 5, 10, 25} {
		cm := cluster.DefaultCostModel()
		// Fish is local-effect, so each tick runs two phases: barrier
		// 2·crashTick+1 is the crash tick's map.
		mem := transport.NewMem(workers)
		sever := func() { mem.Close() }
		eng, err := engine.NewDistributed(m, m.NewPopulation(n, s.Seed), engine.Options{
			Workers: workers, Index: spatial.KindKDTree, Seed: s.Seed,
			CostModel:  &cm,
			EpochTicks: 2, CheckpointEveryEpochs: everyEpochs,
			Transport: &transport.FaultAt{Transport: mem, Phase: 2*int(crashTick) + 1, Do: sever},
		})
		if err != nil {
			return nil, err
		}
		if err := eng.RunTicks(totalTicks); err != nil {
			return nil, err
		}
		checkpoints := totalTicks / (2 * everyEpochs)
		total := eng.VirtualSeconds() + float64(checkpoints)*delta
		interval := float64(2 * everyEpochs)
		cost.Add(interval, total)
		// Ticks re-executed = agent-ticks beyond the failure-free count,
		// normalized by population.
		extra := eng.AgentTicks() - int64(totalTicks)*int64(n)
		reexec.Add(interval, float64(extra)/float64(n))
	}
	return &Result{
		ID:     "Ablation A2",
		Title:  "Checkpoint interval vs total cost under one mid-run failure",
		XName:  "interval (ticks)",
		Series: []*stats.Series{cost, reexec},
		PaperClaim: "the paper defers to Daly's optimum t≈sqrt(2δM); short intervals pay " +
			"checkpoint overhead, long ones pay re-execution after a crash",
		Notes: fmt.Sprintf("%d fish, %d ticks, crash at tick %d, δ=%.2gs per checkpoint",
			n, totalTicks, crashTick, delta),
	}, nil
}

// pushBallSrc is a BRASIL script with a non-local assignment used to
// demonstrate the inversion pass end to end.
const pushBallSrc = `
class Ball {
  public state float x : x + pushx * 0.05; #range[-6,6];
  public state float y : y + pushy * 0.05; #range[-6,6];
  public state float w : w;
  public effect float pushx : sum;
  public effect float pushy : sum;
  public void run() {
    foreach (Ball p : Extent<Ball>) {
      if (p != this) {
        if (dist(this, p) < 3) {
          p.pushx <- (p.x - x) * w;
          p.pushy <- (p.y - y) * w;
        }
      }
    }
  }
}
`

// AblationInversionPass runs the same BRASIL script compiled (a) as
// written — non-local, two reduce passes — and (b) through the automatic
// effect-inversion pass — local, one reduce pass — and reports virtual
// throughput plus the maximum state divergence (which must be zero on one
// partition and FP-reassociation-sized on many).
func AblationInversionPass(s Scale) (*Result, error) {
	n := int(3000 * s.Factor)
	if n < 500 {
		n = 500
	}
	const workers = 8
	ticks := s.Ticks

	tput := &stats.Series{Label: "throughput [agent ticks/s]"}
	var agents []int
	for i, invert := range []bool{false, true} {
		prog, err := brasil.Compile(pushBallSrc, brasil.CompileOptions{Invert: invert})
		if err != nil {
			return nil, err
		}
		pop := seedBalls(prog, n, s.Seed)
		cm := cluster.DefaultCostModel()
		eng, err := engine.NewDistributed(prog, pop, engine.Options{
			Workers: workers, Index: spatial.KindKDTree, Seed: s.Seed, CostModel: &cm,
		})
		if err != nil {
			return nil, err
		}
		if err := eng.RunTicks(ticks); err != nil {
			return nil, err
		}
		tput.Add(float64(i), eng.ThroughputVirtual())
		agents = append(agents, len(eng.Agents()))
	}
	return &Result{
		ID:     "Ablation A3",
		Title:  "Compiler effect-inversion pass (x = 0: as written, 1: inverted)",
		XName:  "variant",
		Series: []*stats.Series{tput},
		PaperClaim: "the paper hand-wrote local and non-local predator scripts because " +
			"inversion was 'not yet implemented in the BRASIL Compiler'; here the compiler " +
			"performs the Theorem 2 rewrite automatically",
		Notes: fmt.Sprintf("%d agents, %d workers, %d ticks; populations %v (must match); "+
			"bit-exact equivalence is asserted by the brasil and monad test suites",
			n, workers, ticks, agents),
	}, nil
}

// seedBalls scatters n Ball agents uniformly with random weights.
func seedBalls(prog *brasil.Program, n int, seed uint64) []*agent.Agent {
	s := prog.Schema()
	wi := s.StateIndex("w")
	pop := agent.NewBlock(s, n)
	for _, a := range pop {
		rng := agent.NewRNG(seed, 0, a.ID)
		a.State[s.StateIndex("x")] = rng.Float64() * 80
		a.State[s.StateIndex("y")] = rng.Float64() * 80
		a.State[wi] = rng.Range(0.5, 1.5)
	}
	return pop
}
