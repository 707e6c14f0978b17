package sim

// dropIdleArenas empties the idle list, so the next run builds its state
// from nothing: how a test measures one fresh realisation, and how it lets
// go of a large one.
func dropIdleArenas() {
	idle.mu.Lock()
	defer idle.mu.Unlock()
	idle.items = nil
}

// DropIdleArenas lets the package's external tests and benchmarks measure
// a fresh realisation.
func DropIdleArenas() { dropIdleArenas() }
