package experiments

import (
	"fmt"
	"strings"

	"github.com/bigreddata/brace/internal/cluster"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/scenario"
	"github.com/bigreddata/brace/internal/spatial"
	"github.com/bigreddata/brace/internal/stats"
)

// sweepConfig sizes one scenario for the sweep. Traffic derives its
// population from segment length; everything else honors the agent count,
// floored at 500 agents: the sweep is strong scaling, and below ~60 owned
// agents per partition at 8 workers the replicas outnumber them several
// times over, so the partitions' probes read more halo than core and the
// replicated work eats the speedup.
func sweepConfig(sp scenario.Spec, s Scale) scenario.Config {
	cfg := scenario.Config{Seed: s.Seed, Agents: int(3000 * s.Factor)}
	if cfg.Agents < 500 {
		cfg.Agents = 500
	}
	if sp.Name == "traffic" {
		cfg.Extent = 4000 * s.Factor
		if cfg.Extent < 1500 {
			cfg.Extent = 1500
		}
	}
	return cfg
}

// ScenarioSweep runs every registered scenario on the distributed engine
// across a worker sweep and reports virtual-time throughput — one labeled
// series per scenario. New workloads appear here (and in the benchmark
// sweep) the moment they register; no experiment code changes.
func ScenarioSweep(s Scale) (*Result, error) {
	workerSweep := []int{1, 2, 4, 8}
	cm := cluster.DefaultCostModel()
	var series []*stats.Series
	var sizes []string
	for _, sp := range scenario.All() {
		srs := &stats.Series{Label: sp.Name}
		cfg := sweepConfig(sp, s)
		for _, w := range workerSweep {
			m, pop, err := sp.New(cfg)
			if err != nil {
				return nil, err
			}
			if w == workerSweep[0] {
				sizes = append(sizes, fmt.Sprintf("%s=%d", sp.Name, len(pop)))
			}
			eng, err := engine.NewDistributed(m, pop, engine.Options{
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
			srs.Add(float64(w), eng.ThroughputVirtual())
		}
		series = append(series, srs)
	}
	return &Result{
		ID:     "Scenario Sweep",
		Title:  "all registered scenarios: throughput vs slave nodes",
		XName:  "# workers",
		Series: series,
		PaperClaim: "beyond the paper: the registry generalizes its three workloads — every " +
			"registered scenario runs on the same engine and scales with workers",
		Notes: fmt.Sprintf("initial agents: %s; %d ticks, virtual-time throughput",
			strings.Join(sizes, " "), s.Ticks),
	}, nil
}
