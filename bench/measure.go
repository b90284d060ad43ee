package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"github.com/bigreddata/brace/internal/agent"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// medianDur times fn reps times and returns the median duration.
func medianDur(reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t := time.Now()
		fn()
		ds[i] = float64(time.Since(t))
	}
	return time.Duration(median(ds))
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// digest is the correctness gate's fingerprint: FNV-64a over the
// ID-ordered population's identity, liveness and exact state/effect bits.
// Two runs agree on it only if they agree bit for bit.
func digest(pop []*agent.Agent) uint64 {
	sorted := append(agent.Population(nil), pop...)
	sort.Sort(sorted)
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, a := range sorted {
		put(uint64(a.ID))
		if a.Dead {
			put(1)
		} else {
			put(0)
		}
		for _, v := range a.State {
			put(math.Float64bits(v))
		}
		for _, v := range a.Effect {
			put(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// allocCounters reads the process's exact cumulative allocation counts.
// ReadMemStats stops the world to flush per-P caches, which is what makes
// a count of a few allocations per tick repeat exactly; it is called only
// at the edges of a timed window, never inside a timed epoch.
func allocCounters() (objects, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// heapLive reads the bytes the last GC cycle found live — a cheap,
// non-stopping read, sampled at epoch boundaries.
func heapLive() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
