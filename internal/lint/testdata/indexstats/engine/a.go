// Package engine exercises indexstats inside a package that decides
// simulation behavior.
package engine

import "example.com/indexstats/spatial"

type engineStats struct{ n int }

func (engineStats) Stats() int { return 0 }

func Flagged(ix spatial.Index, c *spatial.Cached) int64 {
	cost := ix.Stats().Visited          // want "Stats reads a spatial index's work counters"
	cost += c.Stats().Probes            // want "Stats reads a spatial index's work counters"
	return cost + c.CacheStats().Builds // want "CacheStats reads a spatial index's work counters"
}

func FlaggedValueUse(c *spatial.Cached) func() spatial.Stats {
	return c.Stats // want "Stats reads a spatial index's work counters"
}

func AllowedGauge(ix spatial.Index) int64 {
	before := ix.Stats().Visited //bracevet:allow indexstats metrics-only: candidates-seen gauge
	//bracevet:allow indexstats metrics-only: candidates-seen gauge
	return ix.Stats().Visited - before
}

func AllowedWithoutReason(c *spatial.Cached) spatial.CacheStats {
	//bracevet:allow indexstats
	return c.CacheStats() // want "missing its required reason"
}

func FineUses(ix spatial.Index, s engineStats) int {
	// Other methods of an index, and same-named methods of types declared
	// elsewhere, are not index counters.
	return ix.Len() + s.Stats()
}
