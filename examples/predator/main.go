// Predator example: the paper's non-local-effect workload. A fish bites
// every weaker fish in range ("hurt" effects assigned to the victim), so
// the engine needs the map-reduce-reduce dataflow — unless the script is
// effect-inverted, in which case victims collect their own bites and one
// reduce pass suffices (Theorem 2 / Figure 5).
//
// This example runs both variants on the same population, shows they
// agree, and compares their virtual-time cost.
package main

import (
	"fmt"
	"log"

	"github.com/bigreddata/brace"
)

func main() {
	const (
		n     = 4000
		ticks = 60
		seed  = 5
	)
	type outcome struct {
		name   string
		agents int
		vsec   float64
		tput   float64
	}
	var outcomes []outcome
	for _, inverted := range []bool{false, true} {
		m := brace.NewPredatorModel(brace.DefaultPredatorParams(), inverted)
		sim, err := brace.New(m, m.NewPopulation(n, seed), brace.Config{
			Workers:     8,
			Seed:        seed,
			VirtualTime: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := sim.Run(ticks); err != nil {
			log.Fatal(err)
		}
		mt := sim.Metrics()
		name := "non-local (2 reduce passes)"
		if inverted {
			name = "inverted  (1 reduce pass) "
		}
		outcomes = append(outcomes, outcome{name, mt.Agents, mt.VirtualSeconds, mt.ThroughputVirtual})
	}

	fmt.Printf("predator simulation: %d fish, %d ticks, 8 workers\n\n", n, ticks)
	for _, o := range outcomes {
		fmt.Printf("%s  survivors=%4d  virtual=%.4fs  throughput=%.3g agent-ticks/s\n",
			o.name, o.agents, o.vsec, o.tput)
	}
	fmt.Printf("\ninversion speedup: %.1f%%  (the Fig. 5 effect)\n",
		100*(outcomes[1].tput/outcomes[0].tput-1))
	fmt.Println("note: population sizes agree up to floating-point reassociation of ⊕;")
	fmt.Println("on one worker the two variants agree bit-for-bit (see tests).")
}
