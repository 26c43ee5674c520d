package stack

// InvalidateRoutes and RouteCacheStats are pins: the benchmark module
// (perf/, which changes only on its own) still compiles against them, and
// they go when ROADMAP item 5 rewrites its route rows. There is no
// route-decision cache behind them — RouteLookup asks the route slot every
// time — so InvalidateRoutes has nothing to do and RouteCacheStats is
// truthfully zero. Nothing outside perf/ may call either.

// RouteCacheStats is what perf reads of a route-decision cache.
type RouteCacheStats struct {
	Hits          uint64
	Misses        uint64
	Invalidations uint64
}

// RouteCacheStats returns the zero value.
func (h *Host) RouteCacheStats() RouteCacheStats { return RouteCacheStats{} }

// InvalidateRoutes does nothing.
func (h *Host) InvalidateRoutes() {}
