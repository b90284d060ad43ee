package agent

import "sort"

// PackMorton repacks the population's State and Effect vectors into a
// single shared arena laid out in Morton (Z-order) sequence of the agents'
// current positions. The population slice itself is untouched — it keeps
// its ID-ascending order, and every vector keeps its exact values — only
// the backing memory moves, so spatially adjacent agents become adjacent
// in memory and the query phase's neighbor walks stop striding the heap.
//
// Each arena segment is handed out with a full three-index slice
// expression, so an append through one agent's slice can never spill into
// its neighbor's segment.
//
// Packing is safe at any tick boundary: it is a pure relayout with no
// value change, so determinism suites and checkpoints see identical
// populations whether or not (and however often) it runs.
func PackMorton(s *Schema, pop []*Agent) {
	n := len(pop)
	if n == 0 {
		return
	}
	ns, ne := s.NumState(), s.NumEffect()

	// Quantize positions to 16 bits per axis over the population's bounding
	// box and interleave into a 32-bit Morton code.
	minX, minY := pop[0].State[s.PosX], pop[0].State[s.PosY]
	maxX, maxY := minX, minY
	for _, a := range pop[1:] {
		x, y := a.State[s.PosX], a.State[s.PosY]
		if x < minX {
			minX = x
		} else if x > maxX {
			maxX = x
		}
		if y < minY {
			minY = y
		} else if y > maxY {
			maxY = y
		}
	}
	sx, sy := 0.0, 0.0
	if maxX > minX {
		sx = 65535 / (maxX - minX)
	}
	if maxY > minY {
		sy = 65535 / (maxY - minY)
	}
	codes := make([]uint32, n)
	for i, a := range pop {
		qx := uint32((a.State[s.PosX] - minX) * sx)
		qy := uint32((a.State[s.PosY] - minY) * sy)
		codes[i] = uint32(spread16(qx) | spread16(qy)<<1)
	}

	// Arena slots in Morton order; ties (same cell) break by ID so the
	// layout itself is deterministic.
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool {
		if codes[perm[a]] != codes[perm[b]] {
			return codes[perm[a]] < codes[perm[b]]
		}
		return pop[perm[a]].ID < pop[perm[b]].ID
	})

	stride := ns + ne
	arena := make([]float64, n*stride)
	for rank, idx := range perm {
		a := pop[idx]
		off := rank * stride
		st := arena[off : off+ns : off+ns]
		ef := arena[off+ns : off+stride : off+stride]
		copy(st, a.State)
		copy(ef, a.Effect)
		a.State, a.Effect = st, ef
	}
}

// spread16 interleaves zeros between the low 16 bits of v.
func spread16(v uint32) uint64 {
	x := uint64(v & 0xffff)
	x = (x | x<<8) & 0x00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f
	x = (x | x<<2) & 0x33333333
	x = (x | x<<1) & 0x55555555
	return x
}
