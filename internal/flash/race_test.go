//go:build race

package flash

// raceEnabled reports that this test binary runs under the race detector,
// where every lock costs many times more, so single-goroutine differential
// sweeps thin out to keep the run short.
const raceEnabled = true
