package experiments

import (
	"fmt"
	"math"

	"github.com/bigreddata/brace/internal/cluster"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/sim/fish"
	"github.com/bigreddata/brace/internal/sim/traffic"
	"github.com/bigreddata/brace/internal/spatial"
	"github.com/bigreddata/brace/internal/stats"
)

// scaleUpWorkers is the node sweep used by Figs. 6–7 (the paper sweeps 1
// to 36 slave nodes); reduced scales use a shorter sweep so the quick
// harness stays fast.
func scaleUpWorkers(s Scale) []int {
	if s.Factor < 0.5 {
		return []int{1, 2, 4, 8, 16}
	}
	return []int{1, 2, 4, 8, 16, 24, 36}
}

// Fig6 reproduces "Traffic: Scalability": agent-tick throughput as nodes
// grow with the problem size scaled linearly (scale-up, not speed-up).
// Traffic density is nearly uniform, so load stays balanced with the load
// balancer disabled and throughput grows linearly.
func Fig6(s Scale) (*Result, error) {
	// Per-worker segment must be long enough that per-tick compute
	// dominates the boundary-replica network traffic (the paper's per-node
	// partitions are km-scale); below that the simulated network hides the
	// linear scale-up the experiment is about.
	perWorkerLength := 4000 * s.Factor
	if perWorkerLength < 2500 {
		perWorkerLength = 2500
	}
	cm := cluster.DefaultCostModel()
	series := &stats.Series{Label: "BRACE - indexing, no LB"}
	for _, w := range scaleUpWorkers(s) {
		p := traffic.DefaultParams(perWorkerLength * float64(w))
		m := traffic.NewModel(p)
		eng, err := engine.NewDistributed(m, m.NewPopulation(s.Seed), engine.Options{
			Workers:   w,
			Index:     spatial.KindKDTree,
			Seed:      s.Seed,
			CostModel: &cm,
		})
		if err != nil {
			return nil, err
		}
		if err := eng.RunTicks(s.Ticks); err != nil {
			return nil, err
		}
		series.Add(float64(w), eng.ThroughputVirtual())
	}
	return &Result{
		ID:     "Figure 6",
		Title:  "Traffic: throughput vs slave nodes (problem scaled with nodes)",
		XName:  "# workers",
		Series: []*stats.Series{series},
		PaperClaim: "throughput grows linearly with node count even without load " +
			"balancing, because the uniform road keeps load balanced (the paper's dip " +
			"near 20 nodes is a multi-switch artifact of their cluster)",
		Notes: fmt.Sprintf("segment %.0f per worker, %d ticks, virtual-time throughput on the simulated cluster",
			perWorkerLength, s.Ticks),
	}, nil
}

// fishScaleEngine builds the Fig. 7/8 fish workload: two informed classes
// pulling the school apart along x. The school radius grows with √n so
// density (and with it per-fish query cost) stays constant across the
// scale-up sweep, and the swim speed is raised so the schools separate
// across partitions within the measured window.
func fishScaleEngine(s Scale, n, workers int, lb bool, epochTicks int) (*engine.Distributed, error) {
	p := fish.DefaultParams()
	p.InformedFrac = 0.2
	p.Omega = 0.8
	p.Speed = 2.5
	p.Rho = 4
	p.Alpha = 1
	p.SchoolRadius = 12 * math.Sqrt(float64(n)/150)
	m := fish.NewModel(p)
	cm := cluster.DefaultCostModel()
	return engine.NewDistributed(m, m.NewPopulation(n, s.Seed), engine.Options{
		Workers:     workers,
		Index:       spatial.KindKDTree,
		Seed:        s.Seed,
		CostModel:   &cm,
		LoadBalance: lb,
		EpochTicks:  epochTicks,
	})
}

// Fig7 reproduces "Fish: Scalability": with load balancing the fish
// simulation scales linearly; without it the two emerging schools
// concentrate on two nodes and throughput collapses.
func Fig7(s Scale) (*Result, error) {
	perWorker := int(1500 * s.Factor)
	if perWorker < 120 {
		perWorker = 120
	}
	// The schools must have time to separate across partitions; the
	// separation distance scales with the school radius (√n), so the tick
	// budget here is fixed rather than scaled.
	const ticks = 48
	withLB := &stats.Series{Label: "BRACE - indexing, LB"}
	noLB := &stats.Series{Label: "BRACE - indexing, No LB"}
	for _, w := range scaleUpWorkers(s) {
		for _, cfg := range []struct {
			lb     bool
			series *stats.Series
		}{
			{true, withLB},
			{false, noLB},
		} {
			eng, err := fishScaleEngine(s, perWorker*w, w, cfg.lb, 4)
			if err != nil {
				return nil, err
			}
			if err := eng.RunTicks(ticks); err != nil {
				return nil, err
			}
			cfg.series.Add(float64(w), eng.ThroughputVirtual())
		}
	}
	return &Result{
		ID:     "Figure 7",
		Title:  "Fish: throughput vs slave nodes, with and without load balancing",
		XName:  "# workers",
		Series: []*stats.Series{withLB, noLB},
		PaperClaim: "with LB the partition grids are adjusted periodically and throughput " +
			"grows linearly; without LB two fish schools end up on the two extreme nodes " +
			"and the other nodes idle",
		Notes: fmt.Sprintf("%d fish per worker, %d ticks, virtual-time throughput", perWorker, 48),
	}, nil
}

// Fig8 reproduces "Fish: Load Balancing": per-epoch simulation time over
// the run; flat with LB, rising toward the two-node plateau without.
func Fig8(s Scale) (*Result, error) {
	const workers = 16
	n := int(8000 * s.Factor)
	if n < 600 {
		n = 600
	}
	epochTicks := 5
	epochs := s.Ticks // one recorded point per epoch

	withLB := &stats.Series{Label: "BRACE - indexing, LB"}
	noLB := &stats.Series{Label: "BRACE - indexing, no LB"}
	for _, cfg := range []struct {
		lb     bool
		series *stats.Series
	}{
		{true, withLB},
		{false, noLB},
	} {
		eng, err := fishScaleEngine(s, n, workers, cfg.lb, epochTicks)
		if err != nil {
			return nil, err
		}
		if err := eng.RunTicks(epochs * epochTicks); err != nil {
			return nil, err
		}
		for i, ep := range eng.Epochs() {
			cfg.series.Add(float64(i+1), ep.VirtualSec)
		}
	}
	return &Result{
		ID:     "Figure 8",
		Title:  "Fish: epoch simulation time vs epoch number",
		XName:  "epoch",
		Series: []*stats.Series{noLB, withLB},
		PaperClaim: "with load balancing the per-epoch time stays essentially flat; " +
			"without it the epoch time gradually rises to the value of all agents being " +
			"simulated by only two nodes",
		Notes: fmt.Sprintf("%d fish, 16 workers, epoch = %d ticks, %d epochs, virtual seconds per epoch",
			n, epochTicks, epochs),
	}, nil
}
