//go:build race

package daemon

// raceEnabled reports whether this test binary runs under the race detector,
// which makes sync.Pool drop items at random: allocation pins skip themselves.
const raceEnabled = true
