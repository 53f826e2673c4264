package kvs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// checkTotals recounts the usable free pages and the used and live record
// bytes page by page, as the compaction trigger once did on every call, and
// fails unless the store's running totals match.
func checkTotals(t testing.TB, s *Store) {
	t.Helper()
	var want pageTotals
	for p := 0; p < s.np; p++ {
		if s.pageSeq[p] == freeSeq {
			if !s.pageBad[p] {
				want.free++
			}
			continue
		}
		if u := s.pageUsed[p] - pageHeaderSize; u > 0 {
			want.used += u
		}
		want.live += s.pageLive[p]
	}
	if s.totals != want {
		t.Fatalf("running page totals %+v, recount %+v", s.totals, want)
	}
}

// TestPageTotalsTrackPageState: under churn with every way a page's state
// changes — opens, appends, supersedes, proactive and forced compaction,
// compactions cut short by ErrFull, free pages quarantined at open, page
// tails retired over a dirty landing zone, quarantine at mount and reclaim,
// checkpoint and scan remounts — the running totals equal a recount after
// every step.
func TestPageTotalsTrackPageState(t *testing.T) {
	r := newGCRig(t)
	rng := xrand.New(0x707A)
	keys := make([]string, 90)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%03d", i)
	}
	full := func(err error) bool { return errors.Is(err, ErrFull) || errors.Is(err, ErrDeviceReadOnly) }
	var partial, retired, quarantined int
	for step := 0; step < 3000; step++ {
		var err error
		q0 := r.s.Stats().QuarantinedPages
		op := "put"
		switch x := rng.Intn(100); {
		case x < 70:
			v := make([]byte, 8+rng.Intn(40))
			for i := range v {
				v[i] = rng.Byte()
			}
			err = r.s.Put(keys[rng.Intn(len(keys))], v)
		case x < 82:
			op = "delete"
			err = r.s.Delete(keys[rng.Intn(len(keys))])
		case x < 86:
			// Clear a cell just past the head's fill point: the next
			// append finds its landing zone dirty and retires the tail.
			op = "dirty-landing"
			h := r.s.head
			if h < 0 || r.s.pageUsed[h] >= r.s.ps {
				continue
			}
			f := r.dev.Flash()
			addr := r.s.pageBase(h) + r.s.pageUsed[h]
			if err := f.ProgramByte(addr, f.Peek(addr)&^0x08); err != nil {
				t.Fatal(err)
			}
			before := r.s.Stats().RetiredPages
			err = r.s.Put(keys[rng.Intn(len(keys))], []byte("landing"))
			if r.s.Stats().RetiredPages > before {
				retired++
			}
		case x < 88:
			// As in TestPageKeyListsMatchIndexWalk: dirty every free
			// header, then compact the fullest page into no space.
			op = "compact-into-full"
			for p := 0; p < r.s.np; p++ {
				if r.s.usableFree(p) {
					r.clearHeaderBits(t, p, 0x01)
				}
			}
			victim, most := -1, 0
			for p := 0; p < r.s.np; p++ {
				if n := len(r.s.keysOnPage(p)); p != r.s.head && r.s.pageSeq[p] != freeSeq && n > most {
					victim, most = p, n
				}
			}
			if victim < 0 {
				continue
			}
			err = r.s.compactPage(victim)
			if full(err) && len(r.s.keysOnPage(victim)) > 0 {
				partial++
			}
		case x < 92:
			op = "damage-header"
			p := rng.Intn(r.s.np)
			if r.s.pageSeq[p] == freeSeq || r.s.pageBad[p] {
				continue
			}
			r.clearHeaderBits(t, p, 0x11)
		case x < 96:
			op = "remount"
			r.mount(t, rng.Intn(3) == 0)
			q0 = 0
		default:
			op = "checkpoint"
			err = r.s.Checkpoint()
		}
		if err != nil && !full(err) {
			t.Fatalf("step %d %s: %v", step, op, err)
		}
		if q := r.s.Stats().QuarantinedPages; q > q0 {
			quarantined += int(q - q0)
		}
		checkTotals(t, r.s)
	}
	t.Logf("%d compactions cut short, %d tails retired over a dirty landing zone, %d pages quarantined",
		partial, retired, quarantined)
	if partial < 5 || retired < 20 || quarantined < 20 {
		t.Errorf("weak run: %d partial compactions, %d retired tails, %d quarantined pages", partial, retired, quarantined)
	}
}

// TestPutSteadyStateAllocs: a Put on a store in compaction steady state —
// its GC copies and the compaction trigger included — allocates nothing.
func TestPutSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; allocation counts are meaningless")
	}
	c := newBenchChurn(t)
	before := c.s.Compactions()
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		if err := c.s.Put(c.keys[c.pick()], c.vals[i%len(c.vals)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("steady-state Put allocates %.2f objects per op, want 0", allocs)
	}
	if n := c.s.Compactions() - before; n < 20 {
		t.Errorf("measured Puts ran %d compactions: the GC path was not exercised", n)
	}
}

// TestPutForcesGCMidAppend: with no proactive compaction, an append that
// finds no space runs GC inside itself, and GC's own appends re-encode the
// victim's records while the outer record waits. Every key must read back
// its newest value after every Put.
func TestPutForcesGCMidAppend(t *testing.T) {
	s, _ := newStore(t, 6)
	rng := xrand.New(0x6C)
	model := map[string][]byte{}
	for i := 0; i < 600; i++ {
		k := fmt.Sprintf("k%d", rng.Intn(12))
		v := make([]byte, 1+rng.Intn(30))
		for j := range v {
			v[j] = rng.Byte()
		}
		if err := s.Put(k, v); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		model[k] = v
		for mk, mv := range model {
			got, err := s.Get(mk)
			if err != nil || !bytes.Equal(got, mv) {
				t.Fatalf("put %d: Get(%q) = %x, %v; want %x", i, mk, got, err, mv)
			}
		}
		checkTotals(t, s)
	}
	if s.Compactions() < 20 {
		t.Errorf("%d compactions: the forced GC path was not exercised", s.Compactions())
	}
}
