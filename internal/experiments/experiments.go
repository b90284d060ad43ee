// Package experiments regenerates every table and figure of the paper's
// evaluation (§5): Table 2 and Figures 3–8. Each runner returns a Result
// with the same rows/series the paper reports; cmd/experiments prints
// them. (Timing the engine itself is bench/'s job, see BENCHMARK.json.)
//
// Substitution note (see DESIGN.md §4): the paper's cluster experiments
// (Figs. 5–8) ran on 60 physical nodes; here worker nodes are simulated
// and *virtual-time* throughput is reported, driven by the calibrated cost
// model in internal/cluster. Single-node experiments (Table 2, Figs. 3–4)
// use real wall-clock time, as in the paper.
package experiments

import (
	"fmt"
	"strings"

	"github.com/bigreddata/brace/internal/sim/traffic"
	"github.com/bigreddata/brace/internal/stats"
)

// Scale shrinks experiments so they run in seconds on a laptop while
// preserving the shapes the paper reports. Scale 1.0 approximates the
// paper's problem sizes.
type Scale struct {
	// Factor scales problem sizes (segment lengths, fish counts).
	Factor float64
	// Ticks is the measured tick count per configuration.
	Ticks int
	// WarmupTicks are run and discarded first ("we eliminate start-up
	// transients by discarding initial ticks", §5.1).
	WarmupTicks int
	// Seed drives all randomness.
	Seed uint64
}

// Quick returns the scale used by tests and the default CLI run.
func Quick() Scale { return Scale{Factor: 0.12, Ticks: 30, WarmupTicks: 5, Seed: 42} }

// Full approximates the paper's sizes (minutes of runtime).
func Full() Scale { return Scale{Factor: 1.0, Ticks: 100, WarmupTicks: 20, Seed: 42} }

// Result is one regenerated table or figure.
type Result struct {
	// ID is the paper artifact ("Table 2", "Figure 3", ...).
	ID string
	// Title restates what is measured.
	Title string
	// XName labels the x axis for series results.
	XName string
	// Series holds one labeled curve per engine configuration.
	Series []*stats.Series
	// Work holds deterministic work-counter curves (index candidates
	// examined) for the single-node figures: the mechanism behind the
	// wall-clock curves, and what the tests assert on since it is immune
	// to timer noise.
	Work []*stats.Series
	// Rows holds Table 2's RMSPE rows (nil for figures).
	Rows []traffic.Row
	// PaperClaim summarizes what the paper reports for this artifact.
	PaperClaim string
	// Notes records scale factors and substitutions for the report.
	Notes string
}

// String renders the result as the harness's standard text block.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if r.PaperClaim != "" {
		fmt.Fprintf(&b, "paper: %s\n", r.PaperClaim)
	}
	if r.Notes != "" {
		fmt.Fprintf(&b, "notes: %s\n", r.Notes)
	}
	if len(r.Rows) > 0 {
		fmt.Fprintf(&b, "%-6s %18s %14s %14s\n", "Lane", "ChangeFreq RMSPE", "Density RMSPE", "Velocity RMSPE")
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "L%-5d %17.2f%% %13.2f%% %13.4f%%\n",
				row.Lane, row.ChangeFreq*100, row.Density*100, row.MeanV*100)
		}
	}
	if len(r.Series) > 0 {
		b.WriteString(stats.Table(r.Title, r.XName, r.Series...))
	}
	if len(r.Work) > 0 {
		b.WriteString(stats.Table(r.Title+" — candidates examined", r.XName, r.Work...))
	}
	return b.String()
}

// Runner is one registered experiment: the paper's artifacts, the
// reproduction's ablations, and the registry-driven scenario sweep.
// cmd/experiments enumerates this list (-exp list), so adding an
// experiment here is the only wiring it needs.
type Runner struct {
	// Name is the canonical id (-exp takes it).
	Name string
	// Aliases are accepted alternative ids.
	Aliases []string
	// Title is a one-line summary for listings.
	Title string
	// Run regenerates the artifact at the given scale.
	Run func(Scale) (*Result, error)
}

// Runners returns every registered experiment in presentation order.
func Runners() []Runner {
	return []Runner{
		// Table 2 (§5.1): the engine reproduces MITSIM's lane statistics.
		{"table2", []string{"t2"}, "traffic validation RMSPE vs MITSIM", Table2},
		// Fig. 3 (§5.2): KD-tree vs no index as the traffic segment grows.
		{"fig3", []string{"figure3"}, "traffic: indexing vs segment length", Fig3},
		// Fig. 4 (§5.2): KD-tree vs no index as fish visibility grows.
		{"fig4", []string{"figure4"}, "fish: indexing vs visibility", Fig4},
		// Fig. 5 (§5.2): non-local predator script vs its inverted form.
		{"fig5", []string{"figure5"}, "predator: effect inversion", Fig5},
		// Fig. 6 (§5.3): traffic throughput vs worker count (virtual time).
		{"fig6", []string{"figure6"}, "traffic scale-up", Fig6},
		// Fig. 7 (§5.3): fish throughput vs worker count, load balancer on/off.
		{"fig7", []string{"figure7"}, "fish scale-up, LB on/off", Fig7},
		// Fig. 8 (§5.3): fish per-epoch time as the school drifts, LB on/off.
		{"fig8", []string{"figure8"}, "fish epoch time, LB on/off", Fig8},
		// Kept: the only measurement of §3.3's task collocation (local vs network bytes).
		{"collocation", []string{"a1"}, "ablation: collocated vs shipped update phase", AblationCollocation},
		// Kept: the only run of §3.3's checkpoint-interval trade-off (Daly [13]) under failures.
		{"checkpoint", []string{"a2"}, "ablation: checkpoint interval cost", AblationCheckpointInterval},
		// Kept: shows §4.2's inversion as a compiler pass; Fig. 5's two scripts are hand-written.
		{"inversion", []string{"a3"}, "ablation: compiler inversion pass", AblationInversionPass},
		// Kept: per-scenario throughput vs workers for every registered workload, not only the paper's three.
		{"scenarios", []string{"sweep"}, "every registered scenario: throughput vs workers", ScenarioSweep},
	}
}

// All runs every experiment at the given scale: the paper's artifacts
// first, then the ablations and sweeps this reproduction adds.
func All(s Scale) ([]*Result, error) {
	runners := Runners()
	out := make([]*Result, 0, len(runners))
	for _, rn := range runners {
		r, err := rn.Run(s)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// ByName resolves an experiment id like "table2" or "fig5" against the
// runner registry.
func ByName(name string) (func(Scale) (*Result, error), error) {
	want := strings.ToLower(strings.TrimSpace(name))
	names := make([]string, 0, len(Runners()))
	for _, rn := range Runners() {
		if rn.Name == want {
			return rn.Run, nil
		}
		for _, a := range rn.Aliases {
			if a == want {
				return rn.Run, nil
			}
		}
		names = append(names, rn.Name)
	}
	return nil, fmt.Errorf("unknown experiment %q (registered: %s)", name, strings.Join(names, ", "))
}
