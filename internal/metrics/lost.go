package metrics

// TasksLost takes count tasks out of the system without completing them —
// the live daemon's accounting for a failed send — from the in-flight
// population (a transfer that never landed) or the queued one. It is not
// part of sim.TaskObserver: the simulator cannot lose a task. (Its own
// file, so that metrics.go — which the simulated serving path executes —
// stays as the daemon-free layers left it.)
func (c *Collector) TasksLost(count int, inFlight bool, t float64) {
	c.advance(t)
	if inFlight {
		c.inFlight -= count
	} else {
		c.queued -= count
	}
}
