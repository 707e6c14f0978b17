//go:build race

package cluster

// raceEnabled lets allocation-count assertions stand down under -race.
const raceEnabled = true
