// Evacuation example: a crowd leaves a two-exit room under social-force
// repulsion plus exit seeking, both expressed in the state-effect
// pattern with local-only effect assignments. Evacuated agents are
// removed from the simulation, so the population drains — and because
// kills are deterministic, the drain curve is identical at any worker
// count.
//
// This example also shows the registry path: the scenario is resolved by
// name through brace.NewScenario rather than a model constructor.
package main

import (
	"fmt"
	"log"

	"github.com/bigreddata/brace"
)

func main() {
	const (
		n    = 2000
		seed = 23
	)
	sim, err := brace.NewScenario("evacuate",
		brace.ScenarioConfig{Agents: n, Seed: seed},
		brace.Config{Workers: 8, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("evacuation: %d pedestrians, two exits, 8 workers\n\n", n)
	fmt.Printf("%6s %12s %12s\n", "tick", "remaining", "evacuated")
	const step = 10
	remaining := n
	for t := 0; remaining > 0 && t <= 400; t += step {
		if t > 0 {
			if err := sim.Run(step); err != nil {
				log.Fatal(err)
			}
			remaining = len(sim.Agents())
		}
		fmt.Printf("%6d %12d %12d\n", t, remaining, n-remaining)
	}
	fmt.Printf("\n%v\n", sim.Metrics())
}
