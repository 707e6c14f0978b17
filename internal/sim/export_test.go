package sim

// DropIdleArenas lets the package's external tests and benchmarks measure
// a fresh realisation.
func DropIdleArenas() { dropIdleArenas() }

// InFlight reports how many tasks of a running realisation are still in
// flight, so an external benchmark can step until every batch has landed.
func InFlight(r *Realisation) int { return r.s.inFlight }
