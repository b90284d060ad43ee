// Package service only reports: metrics endpoints may read any counter, so
// indexstats does not apply here.
package service

import "example.com/indexstats/spatial"

func Report(c *spatial.Cached) int64 { return c.CacheStats().Reuses }
