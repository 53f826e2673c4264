//go:build race

package ftl

// raceEnabled reports that this test binary runs under the race detector,
// where sync.Pool (used by the core commit path) intentionally drops items
// and allocation guards are meaningless.
const raceEnabled = true
