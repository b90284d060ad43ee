package experiments

import (
	"fmt"
	"time"

	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/sim/fish"
	"github.com/bigreddata/brace/internal/sim/traffic"
	"github.com/bigreddata/brace/internal/spatial"
	"github.com/bigreddata/brace/internal/stats"
)

// Fig3 reproduces "Traffic: Indexing vs. Segment Length": total simulation
// time as the segment (and with it the vehicle count) grows, for the
// hand-coded MITSIM, BRACE without indexing (quadratic) and BRACE with the
// KD-tree index (log-linear).
func Fig3(s Scale) (*Result, error) {
	base := 20000 * s.Factor
	// Below ~16000 units the vehicle counts are small enough that fixed
	// per-tick overheads mask the quadratic-vs-log-linear separation the
	// figure is about (and ρ=200 covers too much of the road) — keep the
	// sweep in the paper's regime.
	if base < 16000 {
		base = 16000
	}
	lengths := []float64{base * 0.25, base * 0.5, base * 0.75, base}

	mitsim := &stats.Series{Label: "MITSIM"}
	noidx := &stats.Series{Label: "BRACE - no indexing"}
	idx := &stats.Series{Label: "BRACE - indexing"}
	noidxWork := &stats.Series{Label: "no indexing"}
	idxWork := &stats.Series{Label: "indexing"}

	for _, L := range lengths {
		p := traffic.DefaultParams(L)

		mit := traffic.NewMITSIM(p, s.Seed)
		mit.RunTicks(s.WarmupTicks)
		start := time.Now()
		mit.RunTicks(s.Ticks)
		mitsim.Add(L, time.Since(start).Seconds())

		for _, cfg := range []struct {
			kind         spatial.Kind
			series, work *stats.Series
		}{
			{spatial.KindScan, noidx, noidxWork},
			{spatial.KindKDTree, idx, idxWork},
		} {
			m := traffic.NewModel(p)
			eng, err := engine.NewSequential(m, m.NewPopulation(s.Seed), cfg.kind, s.Seed)
			if err != nil {
				return nil, err
			}
			if err := eng.RunTicks(s.WarmupTicks); err != nil {
				return nil, err
			}
			before := eng.Visited()
			start := time.Now()
			if err := eng.RunTicks(s.Ticks); err != nil {
				return nil, err
			}
			cfg.series.Add(L, time.Since(start).Seconds())
			cfg.work.Add(L, float64(eng.Visited()-before))
		}
	}
	return &Result{
		ID:     "Figure 3",
		Title:  "Traffic: total simulation time vs segment length",
		XName:  "segment",
		Series: []*stats.Series{mitsim, noidx, idx},
		Work:   []*stats.Series{noidxWork, idxWork},
		PaperClaim: "no-indexing grows quadratically; indexing converts the probe to an " +
			"orthogonal range query giving log-linear growth, comparable to but slightly " +
			"slower than MITSIM's hand-coded nearest-neighbor lists",
		Notes: fmt.Sprintf("%d measured ticks per point, wall-clock, single node", s.Ticks),
	}, nil
}

// Fig4 reproduces "Fish: Indexing vs. Visibility": total simulation time
// as the visibility range ρ grows; indexing wins 2–3× but the gap narrows
// as each probe returns more of the school.
func Fig4(s Scale) (*Result, error) {
	n := int(8000 * s.Factor)
	// The index needs enough fish that a probe's candidate set is a small
	// fraction of the school; below ~2000 the index build (KD-tree and
	// candidate lists) dominates and the comparison leaves the paper's
	// regime.
	if n < 2000 {
		n = 2000
	}
	base := fish.DefaultParams()
	// Spread the ocean so the visibility sweep spans "few neighbors" to "a
	// good chunk of the school" (the paper sweeps 25–300 on its ocean),
	// and slow the fish so the density profile stays put over the short
	// measured window — otherwise attraction collapses the school into a
	// ball and every probe degenerates to a full scan regardless of index.
	base.SchoolRadius = 800
	base.Alpha = 2
	base.Speed = 0.2
	base.InformedFrac = 0

	visibilities := []float64{10, 25, 50, 100, 150}

	noidx := &stats.Series{Label: "BRACE - no indexing"}
	idx := &stats.Series{Label: "BRACE - indexing"}
	noidxWork := &stats.Series{Label: "no indexing"}
	idxWork := &stats.Series{Label: "indexing"}

	for _, rho := range visibilities {
		p := base
		p.Rho = rho
		for _, cfg := range []struct {
			kind         spatial.Kind
			series, work *stats.Series
		}{
			{spatial.KindScan, noidx, noidxWork},
			{spatial.KindKDTree, idx, idxWork},
		} {
			m := fish.NewModel(p)
			eng, err := engine.NewSequential(m, m.NewPopulation(n, s.Seed), cfg.kind, s.Seed)
			if err != nil {
				return nil, err
			}
			if err := eng.RunTicks(s.WarmupTicks); err != nil {
				return nil, err
			}
			before := eng.Visited()
			start := time.Now()
			if err := eng.RunTicks(s.Ticks); err != nil {
				return nil, err
			}
			cfg.series.Add(rho, time.Since(start).Seconds())
			cfg.work.Add(rho, float64(eng.Visited()-before))
		}
	}
	return &Result{
		ID:     "Figure 4",
		Title:  "Fish: total simulation time vs visibility range",
		XName:  "visibility",
		Series: []*stats.Series{noidx, idx},
		Work:   []*stats.Series{noidxWork, idxWork},
		PaperClaim: "KD-tree indexing is 2-3x faster across the range; its advantage " +
			"shrinks as visibility grows because each probe returns more results",
		Notes: fmt.Sprintf("%d fish, %d measured ticks per point, wall-clock, single node", n, s.Ticks),
	}, nil
}
