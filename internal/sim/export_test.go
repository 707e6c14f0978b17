package sim

// DropIdleArenas lets the package's external tests and benchmarks measure
// a fresh realisation.
func DropIdleArenas() { dropIdleArenas() }
