// Traffic example: run the MITSIM-derived driving model on BRACE and
// validate it against the hand-coded single-node simulator, reproducing a
// miniature Table 2 (RMSPE of per-lane statistics).
package main

import (
	"fmt"
	"log"

	"github.com/bigreddata/brace"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/sim/traffic"
	"github.com/bigreddata/brace/internal/spatial"
)

func main() {
	const seed = 11
	p := brace.DefaultTrafficParams(8000) // 8 km, 4 lanes
	fmt.Printf("segment %.0f m, %d lanes, %d vehicles, lookahead %.0f\n",
		p.Length, p.Lanes, p.Vehicles(), p.Lookahead)

	// Side A: the hand-coded nearest-neighbor simulator.
	mit := traffic.NewMITSIM(p, seed)
	ref, err := traffic.CollectMITSIM(mit, 90, 30)
	if err != nil {
		log.Fatal(err)
	}

	// Side B: the same model on BRACE with fixed-ρ spatial indexing.
	m := traffic.NewModel(p)
	eng, err := engine.NewDistributed(m, m.NewPopulation(seed), engine.Options{Workers: 1, Index: spatial.KindKDTree, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	meas, err := traffic.CollectBRACE(eng, m, 90, 30)
	if err != nil {
		log.Fatal(err)
	}

	rows, err := traffic.Validate(ref, meas)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nRMSPE between MITSIM and BRACE (Table 2 style):")
	fmt.Printf("%-6s %16s %14s %14s\n", "Lane", "ChangeFreq", "AvgDensity", "AvgVelocity")
	for _, r := range rows {
		fmt.Printf("L%-5d %15.1f%% %13.1f%% %13.3f%%\n",
			r.Lane, r.ChangeFreq*100, r.Density*100, r.MeanV*100)
	}
	fmt.Println("\nexpect: tight velocity agreement everywhere; the right-most lane")
	fmt.Println("is sparsest (driver reluctance), so its ratios wobble the most.")
}
