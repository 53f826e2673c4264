package flash

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// spanTwins runs every page operation on two devices built from one spec:
// got programs through ProgramPageSpan with a dirty span, want through
// ProgramPage with the same whole-page buffer.
type spanTwins struct {
	got, want       *Device
	gotLog, wantLog copyingLog
}

func newSpanTwins(spec Spec, programAll bool) *spanTwins {
	tw := &spanTwins{got: MustNewDevice(spec), want: MustNewDevice(spec)}
	tw.got.Attach(&tw.gotLog)
	tw.want.Attach(&tw.wantLog)
	tw.got.SetProgramAll(programAll)
	tw.want.SetProgramAll(programAll)
	return tw
}

// both applies op to the two devices.
func (tw *spanTwins) both(op func(d *Device)) {
	op(tw.got)
	op(tw.want)
}

// program issues one span program and its whole-page twin and fails unless
// the two leave the same error (text included, so the same byte index),
// array, drift and rise masks, Stats, FaultsFired and events since the
// previous call.
func (tw *spanTwins) program(t *testing.T, at string, p int, buf []byte, lo, hi int) error {
	t.Helper()
	gerr := tw.got.ProgramPageSpan(p, buf, lo, hi)
	werr := tw.want.ProgramPage(p, buf)
	at = fmt.Sprintf("%s [%d, %d)", at, lo, hi)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s: error %v, whole page %v", at, gerr, werr)
	}
	if !bytes.Equal(tw.got.array, tw.want.array) {
		t.Fatalf("%s: arrays differ", at)
	}
	for q := range tw.got.drift {
		if !slices.Equal(tw.got.drift[q], tw.want.drift[q]) || (tw.got.drift[q] == nil) != (tw.want.drift[q] == nil) {
			t.Fatalf("%s: page %d drift masks differ", at, q)
		}
		if !slices.Equal(tw.got.rise[q], tw.want.rise[q]) || (tw.got.rise[q] == nil) != (tw.want.rise[q] == nil) {
			t.Fatalf("%s: page %d rise masks differ", at, q)
		}
	}
	if g, w := tw.got.Stats(), tw.want.Stats(); g != w {
		t.Fatalf("%s: stats\nspan       %+v\nwhole page %+v", at, g, w)
	}
	if g, w := tw.got.FaultsFired(), tw.want.FaultsFired(); g != w {
		t.Fatalf("%s: %d faults fired, whole page %d", at, g, w)
	}
	if len(tw.gotLog.events) != len(tw.wantLog.events) {
		t.Fatalf("%s: %d events, whole page %d", at, len(tw.gotLog.events), len(tw.wantLog.events))
	}
	for i, g := range tw.gotLog.events {
		w := tw.wantLog.events[i]
		if g.Kind != w.Kind || g.Bank != w.Bank || g.Seq != w.Seq || g.Addr != w.Addr ||
			g.Bytes != w.Bytes || g.Value != w.Value || g.Energy != w.Energy || g.Busy != w.Busy ||
			!bytes.Equal(g.Data, w.Data) || !bytes.Equal(g.Prev, w.Prev) {
			t.Fatalf("%s: event %d:\nspan       %+v\nwhole page %+v", at, i, g, w)
		}
	}
	tw.gotLog.events, tw.wantLog.events = tw.gotLog.events[:0], tw.wantLog.events[:0]
	return gerr
}

// spanEdges returns the spans every page size is checked at: empty and
// one-byte spans at both edges and inside, word-straddling spans, and the
// whole page.
func spanEdges(ps int) [][2]int {
	return [][2]int{
		{0, 0}, {0, 1}, {ps - 1, ps}, {ps, ps}, {ps / 2, ps / 2}, {ps / 2, ps/2 + 1},
		{0, ps}, {3, 13}, {0, 9}, {ps - 9, ps}, {1, ps - 1},
	}
}

// TestProgramPageSpanMatchesFullPage: a span program must be
// indistinguishable from ProgramPage with the same buffer — same array,
// drift and rise masks, Stats (busy time and energy included), events with
// their page images, fault firings, and the same error naming the same
// byte — for every cell mode, at the page edges, for empty and one-byte
// spans, under live drift and rise masks, with an observer attached, under
// programAll, and with power-loss and transient faults armed in bank and
// shared scope. Some rounds change a byte outside the span or place an
// unreachable byte there, which must widen the program to the whole page.
func TestProgramPageSpanMatchesFullPage(t *testing.T) {
	for _, cell := range []CellMode{SLC, MLC, TLC} {
		for _, ps := range []int{100, 4096} {
			for _, programAll := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v/ps=%d/programAll=%v", cell, ps, programAll), func(t *testing.T) {
					testSpanProgram(t, cell, ps, programAll)
				})
			}
		}
	}
}

func testSpanProgram(t *testing.T, cell CellMode, ps int, programAll bool) {
	spec := DensitySpec(DefaultSpec(), cell)
	spec.PageSize, spec.NumPages, spec.Banks = ps, 4, 2
	tw := newSpanTwins(spec, programAll)
	rng := xrand.New(0x5BA4 + uint64(ps) + uint64(cell)<<20)
	cur := make([]byte, ps)
	buf := make([]byte, ps)
	edges := spanEdges(ps)
	var masked, narrow, widened, rejected, faulted int
	for round := 0; round < 400; round++ {
		p := rng.Intn(spec.NumPages)
		if rng.Intn(10) == 0 {
			tw.both(func(d *Device) {
				if err := d.ErasePage(p); err != nil {
					t.Fatal(err)
				}
			})
		}
		// Sparse rise and drift bits, as retention and faults leave them.
		// Drift is rarer: a page with a drift mask always walks it all.
		for _, drift := range []bool{false, true} {
			if rng.Intn(4) != 0 || (drift && rng.Intn(3) != 0) {
				continue
			}
			for n := rng.Intn(8) + 1; n > 0; n-- {
				off, bit := rng.Intn(ps), byte(1)<<uint(rng.Intn(8))
				tw.both(func(d *Device) {
					if drift {
						d.recordDrift(p, off, bit)
					} else {
						d.recordRise(p, off, bit)
					}
				})
			}
		}
		lo, hi := rng.Intn(ps+1), 0
		hi = lo + rng.Intn(ps-lo+1)
		if round < len(edges) || rng.Intn(4) == 0 {
			e := edges[round%len(edges)]
			lo, hi = e[0], e[1]
		}
		tw.got.PeekPage(p, cur)
		copy(buf, cur)
		for i := lo; i < hi; i++ {
			if rng.Intn(3) != 0 {
				buf[i] = reachableTarget(cell, cur[i], rng)
			}
		}
		outside := lo > 0 || hi < ps
		switch r := rng.Intn(10); {
		case r == 0 && hi > lo:
			// An unreachable byte inside the span.
			plantUnreachable(cell, cur, buf, lo, hi, rng)
		case r == 1 && outside:
			// A reachable change outside the span: programs it all.
			i := outsideIndex(lo, hi, ps, rng)
			buf[i] = reachableTarget(cell, cur[i], rng)
			if buf[i] != cur[i] {
				widened++
			}
		case r == 2 && outside:
			// An unreachable byte outside the span, as a disturb that
			// cleared cells after the caller read the page leaves it.
			i := outsideIndex(lo, hi, ps, rng)
			plantUnreachable(cell, cur, buf, i, i+1, rng)
		}
		if rng.Intn(4) == 0 {
			f := Fault{Kind: FaultPowerLoss, After: rng.Intn(hi - lo + 2)}
			if rng.Intn(2) == 0 {
				f = Fault{Kind: FaultTransientProgram, After: f.After, Retries: 1 + rng.Intn(2)}
			}
			shared := rng.Intn(2) == 0
			tw.both(func(d *Device) {
				if shared {
					d.ArmFault(f)
				} else {
					d.ArmBankFault(d.BankOf(p), f)
				}
			})
		}
		if tw.got.drift[p] != nil || tw.got.rise[p] != nil {
			masked++
		}
		base := tw.got.PageBase(p)
		if !programAll && tw.got.drift[p] == nil &&
			bytes.Equal(buf[:lo], tw.got.array[base:base+lo]) && bytes.Equal(buf[hi:], tw.got.array[base+hi:base+ps]) {
			narrow++ // the program stays on the span
		}
		at := fmt.Sprintf("round %d page %d", round, p)
		err := tw.program(t, at, p, buf, lo, hi)
		switch {
		case errors.Is(err, ErrNeedsErase):
			rejected++
		case errors.Is(err, ErrPowerLoss) || errors.Is(err, ErrTransient):
			faulted++
			// Re-issue until the incident drains, as a controller would.
			for issue := 1; err != nil && !errors.Is(err, ErrNeedsErase); issue++ {
				if issue > 4 {
					t.Fatalf("%s: still failing after %d issues: %v", at, issue, err)
				}
				err = tw.program(t, fmt.Sprintf("%s issue %d", at, issue), p, buf, lo, hi)
			}
		}
		tw.both(func(d *Device) { d.ClearFaults() })
	}
	if masked < 50 || (!programAll && narrow < 100) || widened < 10 || rejected < 20 || faulted < 10 {
		t.Errorf("weak run: %d programs over masks, %d on the span alone, %d widened, %d rejected, %d faulted",
			masked, narrow, widened, rejected, faulted)
	}
	t.Logf("%d programs over masks, %d on the span alone, %d widened, %d rejected, %d faulted",
		masked, narrow, widened, rejected, faulted)
}

// plantUnreachable sets one byte of buf[lo:hi] to a value its stored byte
// cannot reach without an erase, when a few random tries find one.
func plantUnreachable(cell CellMode, cur, buf []byte, lo, hi int, rng *xrand.RNG) {
	for tries := 0; tries < 64; tries++ {
		i, v := lo+rng.Intn(hi-lo), rng.Byte()
		if !cell.Reachable(cur[i], v) {
			buf[i] = v
			return
		}
	}
}

// outsideIndex returns a random byte offset outside [lo, hi) of a page of
// ps bytes; the span must not cover the whole page.
func outsideIndex(lo, hi, ps int, rng *xrand.RNG) int {
	i := rng.Intn(ps - (hi - lo))
	if i >= lo {
		i += hi - lo
	}
	return i
}

// TestProgramPageSpanWidensOnDisturb: cells a read disturb clears outside
// the span after the caller's read must not be papered over. The program
// widens to the whole page and fails with ErrNeedsErase at the disturbed
// byte, exactly as ProgramPage does; a reachable change outside the span is
// programmed as ProgramPage would program it.
func TestProgramPageSpanWidensOnDisturb(t *testing.T) {
	spec := DefaultSpec()
	spec.PageSize, spec.NumPages, spec.Banks = 256, 2, 1
	tw := newSpanTwins(spec, false)
	const p = 1
	buf := make([]byte, spec.PageSize)
	for i := range buf {
		buf[i] = 0xF0 | byte(i)
	}
	tw.program(t, "prior", p, buf, 0, len(buf))
	// The caller read the page, then a disturb cleared a cell of byte 7.
	tw.both(func(d *Device) { d.array[d.PageBase(p)+7] &^= 0x80 })
	buf[100] &^= 0x01
	err := tw.program(t, "disturbed", p, buf, 100, 101)
	if !errors.Is(err, ErrNeedsErase) || !bytes.Contains([]byte(err.Error()), []byte("byte 7 ")) {
		t.Fatalf("span program over a disturbed page: %v, want ErrNeedsErase at byte 7", err)
	}
	// A reachable change outside the span is programmed, not dropped.
	tw.both(func(d *Device) { d.array[d.PageBase(p)+7] |= 0x80 })
	buf[7] &^= 0x02
	if err := tw.program(t, "outside change", p, buf, 100, 101); err != nil {
		t.Fatal(err)
	}
	if got := tw.got.Peek(tw.got.PageBase(p) + 7); got != buf[7] {
		t.Fatalf("byte 7 = %08b, want %08b", got, buf[7])
	}
}

// TestProgramPageSpanRejectsBadSpan: spans outside the page are refused
// before anything is charged.
func TestProgramPageSpanRejectsBadSpan(t *testing.T) {
	spec := DefaultSpec()
	spec.PageSize, spec.NumPages = 64, 2
	d := MustNewDevice(spec)
	buf := make([]byte, spec.PageSize)
	for _, s := range [][2]int{{-1, 4}, {5, 4}, {0, 65}} {
		if err := d.ProgramPageSpan(0, buf, s[0], s[1]); !errors.Is(err, ErrBounds) {
			t.Errorf("span %v: %v, want ErrBounds", s, err)
		}
	}
	if st := d.Stats(); st != (Stats{}) {
		t.Errorf("rejected spans charged %+v", st)
	}
}
