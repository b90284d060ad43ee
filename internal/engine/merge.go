package engine

import "cmp"

// runMerger orders a slice that is a concatenation of sorted runs, as
// what a reduce phase receives is: the batch a partition sent itself, then
// each peer's batch, every batch emitted in the order its sender walked
// its own ordered input. A descent scan finds the runs and a bottom-up
// pairwise merge joins them through one buffer the merger keeps, so k runs
// of n values cost O(n log k) compares and, in steady state, no
// allocation. The result is exact for any input — a batch out of order
// just adds runs — and the merge is stable.
type runMerger[T any] struct {
	buf   []T
	bound []int // run boundaries: run i is [bound[i], bound[i+1])
}

// sort orders s by cmp in place.
func (m *runMerger[T]) sort(s []T, cmp func(a, b T) int) {
	i := 1
	for i < len(s) && cmp(s[i-1], s[i]) <= 0 {
		i++
	}
	if i >= len(s) {
		return // no run or one run: sorted already
	}
	bound := append(m.bound[:0], 0, i)
	for i++; i < len(s); i++ {
		if cmp(s[i-1], s[i]) > 0 {
			bound = append(bound, i)
		}
	}
	bound = append(bound, len(s))
	m.bound = bound
	m.buf = resize(m.buf, len(s))
	src, dst := s, m.buf
	for len(bound) > 2 {
		// Merge runs 2j and 2j+1 into run j; an odd last run is copied.
		// Run j's end goes to bound[j+1], which this pair or an earlier
		// one has already read.
		k := 1
		for r := 0; r+1 < len(bound); r += 2 {
			lo, mid, hi := bound[r], bound[r+1], bound[r+1]
			if r+2 < len(bound) {
				hi = bound[r+2]
			}
			mergeInto(dst[lo:hi], src[lo:mid], src[mid:hi], cmp)
			bound[k] = hi
			k++
		}
		bound = bound[:k]
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
	// The buffer holds the same values as s; let go of them.
	clear(m.buf)
}

// mergeInto merges the sorted a and b into dst (len(a)+len(b) long),
// taking from a on ties.
func mergeInto[T any](dst, a, b []T, cmp func(x, y T) int) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if cmp(a[i], b[j]) <= 0 {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// byID is reduce₁'s order: agent ID, unique among one partition's copies
// (a partition receives at most one copy of an agent per phase).
func byID(a, b *Envelope) int { return cmp.Compare(a.A.ID, b.A.ID) }

// byPartial is reduce₂'s order: agent ID, then the owned copy before the
// partials, then the partials by ascending SrcPart, so that the ⊕ fold
// order is a function of the partitioning alone. Each sender's batch holds
// at most one copy of an agent, so each batch is one run.
func byPartial(a, b *Envelope) int {
	if c := cmp.Compare(a.A.ID, b.A.ID); c != 0 {
		return c
	}
	if a.Replica != b.Replica {
		if b.Replica {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.SrcPart, b.SrcPart)
}
