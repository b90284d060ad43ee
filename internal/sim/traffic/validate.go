package traffic

import (
	"fmt"

	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/stats"
)

// LaneSeries holds the windowed per-lane telemetry Table 2 compares:
// lane-change counts, vehicle density, and mean velocity, sampled every
// window ticks. Indexing is [lane][window].
type LaneSeries struct {
	Lanes                   int
	Changes, Density, MeanV [][]float64
}

func newLaneSeries(lanes int) *LaneSeries {
	ls := &LaneSeries{Lanes: lanes}
	ls.Changes = make([][]float64, lanes)
	ls.Density = make([][]float64, lanes)
	ls.MeanV = make([][]float64, lanes)
	return ls
}

// tickStepper runs one simulation tick and reports the per-vehicle view;
// implemented for both the BRACE engine and the hand-coded MITSIM so the
// telemetry pipeline is identical for the two sides of Table 2.
type tickStepper interface {
	step() error
	each(fn func(id uint64, lane int, v float64))
	params() Params
}

// collect runs `ticks` ticks, recording per-lane stats every window ticks.
// Lane changes are detected by diffing each vehicle's lane across ticks
// (recycled vehicles get fresh IDs and don't count as changes), so both
// simulators are measured by the same instrument.
func collect(s tickStepper, ticks, window int) (*LaneSeries, error) {
	p := s.params()
	ls := newLaneSeries(p.Lanes)
	prev := make(map[uint64]int)
	s.each(func(id uint64, lane int, v float64) { prev[id] = lane })

	changes := make([]float64, p.Lanes)
	for t := 1; t <= ticks; t++ {
		if err := s.step(); err != nil {
			return nil, err
		}
		cur := make(map[uint64]int, len(prev))
		counts := make([]float64, p.Lanes)
		sumV := make([]float64, p.Lanes)
		s.each(func(id uint64, lane int, v float64) {
			cur[id] = lane
			counts[lane]++
			sumV[lane] += v
			if old, ok := prev[id]; ok && old != lane {
				changes[lane]++
			}
		})
		prev = cur
		if t%window == 0 {
			for l := 0; l < p.Lanes; l++ {
				ls.Changes[l] = append(ls.Changes[l], changes[l])
				ls.Density[l] = append(ls.Density[l], counts[l]/p.Length)
				mv := 0.0
				if counts[l] > 0 {
					mv = sumV[l] / counts[l]
				}
				ls.MeanV[l] = append(ls.MeanV[l], mv)
			}
			changes = make([]float64, p.Lanes)
		}
	}
	return ls, nil
}

// braceStepper adapts a BRACE engine running a traffic Model.
type braceStepper struct {
	m *Model
	e *engine.Distributed
}

func (b *braceStepper) step() error { return b.e.RunTicks(1) }
func (b *braceStepper) each(fn func(uint64, int, float64)) {
	for _, a := range b.e.Agents() {
		fn(uint64(a.ID), b.m.Lane(a), b.m.Speed(a))
	}
}
func (b *braceStepper) params() Params { return b.m.P }

// CollectBRACE gathers windowed lane statistics from a BRACE engine.
func CollectBRACE(e *engine.Distributed, m *Model, ticks, window int) (*LaneSeries, error) {
	return collect(&braceStepper{m: m, e: e}, ticks, window)
}

// mitsimStepper adapts the hand-coded simulator.
type mitsimStepper struct{ s *MITSIM }

func (m *mitsimStepper) step() error { m.s.RunTicks(1); return nil }
func (m *mitsimStepper) each(fn func(uint64, int, float64)) {
	for _, c := range m.s.cars {
		fn(c.id, c.lane, c.v)
	}
}
func (m *mitsimStepper) params() Params { return m.s.P }

// CollectMITSIM gathers windowed lane statistics from the hand-coded
// simulator.
func CollectMITSIM(s *MITSIM, ticks, window int) (*LaneSeries, error) {
	return collect(&mitsimStepper{s: s}, ticks, window)
}

// Row is one lane's row of Table 2: RMSPE of change frequency, average
// density and average velocity between the reference (MITSIM) and measured
// (BRACE) series.
type Row struct {
	Lane                       int
	ChangeFreq, Density, MeanV float64
}

// Validate computes the Table 2 rows. ref is the hand-coded MITSIM run,
// meas the BRACE run.
func Validate(ref, meas *LaneSeries) ([]Row, error) {
	if ref.Lanes != meas.Lanes {
		return nil, fmt.Errorf("traffic: lane counts differ: %d vs %d", ref.Lanes, meas.Lanes)
	}
	rows := make([]Row, ref.Lanes)
	for l := 0; l < ref.Lanes; l++ {
		cf, err := stats.RMSPE(ref.Changes[l], meas.Changes[l])
		if err != nil {
			return nil, fmt.Errorf("traffic: lane %d changes: %w", l+1, err)
		}
		de, err := stats.RMSPE(ref.Density[l], meas.Density[l])
		if err != nil {
			return nil, fmt.Errorf("traffic: lane %d density: %w", l+1, err)
		}
		mv, err := stats.RMSPE(ref.MeanV[l], meas.MeanV[l])
		if err != nil {
			return nil, fmt.Errorf("traffic: lane %d velocity: %w", l+1, err)
		}
		rows[l] = Row{Lane: l + 1, ChangeFreq: cf, Density: de, MeanV: mv}
	}
	return rows, nil
}
