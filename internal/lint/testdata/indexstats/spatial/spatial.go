// Package spatial declares the counters indexstats guards.
package spatial

type Stats struct{ Probes, Visited int64 }

type CacheStats struct{ Builds, Reuses int64 }

type Index interface {
	Len() int
	Stats() Stats
}

type Cached struct {
	stats Stats
	cs    CacheStats
}

func (c *Cached) Len() int               { return 0 }
func (c *Cached) Stats() Stats           { return c.stats }
func (c *Cached) CacheStats() CacheStats { return c.cs }

// Reading its own counters is the index's business.
func (c *Cached) Hot() bool { return c.Stats().Visited > 0 }
