//go:build race

package kvs

// raceEnabled reports that this test binary runs under the race detector,
// where sync.Pool drops items at random and allocation counts mean nothing.
const raceEnabled = true
