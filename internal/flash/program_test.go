package flash

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/flipbit-sim/flipbit/internal/energy"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// refProgramPage is the per-byte page program the word-wise path replaced,
// kept as the oracle of TestProgramPageWordwiseMatchesPerByte: a per-byte
// reachability pre-pass, then one byte per step through the page, its
// drift mask and its rise mask, emitting the same two batched events.
func refProgramPage(d *Device, p int, buf []byte) error {
	b := d.BankOf(p)
	bk := &d.banks[b]
	bk.mu.Lock()
	defer bk.mu.Unlock()
	base := d.PageBase(p)
	for i, v := range buf {
		if !d.spec.Cell.Reachable(d.array[base+i], v) {
			return fmt.Errorf("%w: page %d byte %d stored %08b want %08b (%v)",
				ErrNeedsErase, p, i, d.array[base+i], v, d.spec.Cell)
		}
	}
	page := d.array[base : base+d.spec.PageSize]
	var prev []byte
	if len(bk.obs) > 0 {
		prev = slices.Clone(page)
	}
	programmed := 0
	m, rm := d.drift[p], d.rise[p]
	for i, v := range buf {
		if page[i] != v {
			page[i] = v
			programmed++
			if rm != nil {
				rm[i] = 0
			}
		}
		if m != nil {
			m[i] &= v
		}
	}
	if programmed > 0 {
		d.emit(OpEvent{
			Kind: OpProgram, Bank: b, Addr: base, Bytes: programmed,
			Data: page, Prev: prev,
			Energy: d.spec.ProgramEnergy * energy.Energy(programmed),
			Busy:   d.spec.ProgramLatency * time.Duration(programmed),
		})
	}
	if skipped := len(buf) - programmed; skipped > 0 {
		d.emit(OpEvent{Kind: OpProgramSkip, Bank: b, Addr: base, Bytes: skipped})
	}
	return nil
}

// copyingLog records events with private copies of their page images.
type copyingLog struct{ events []OpEvent }

func (l *copyingLog) OnOp(ev OpEvent) {
	ev.Data, ev.Prev = slices.Clone(ev.Data), slices.Clone(ev.Prev)
	l.events = append(l.events, ev)
}

// reachableTarget returns a random value every cell field of which is at
// most the corresponding field of cur, so cur → target needs no erase.
func reachableTarget(cell CellMode, cur byte, rng *xrand.RNG) byte {
	w := uint(cell.Bits())
	var v byte
	for shift := uint(0); shift < 8; shift += w {
		mask := byte(1)<<w - 1
		f := cur >> shift & mask
		v |= byte(rng.Intn(int(f)+1)) << shift
	}
	return v
}

// TestProgramPageWordwiseMatchesPerByte: the word-wise page program must
// leave exactly what the per-byte loop left — array, drift and rise masks,
// merged stats, and the batched events' sizes, costs and page images — and
// reject an unreachable byte with the same ErrNeedsErase text, for every
// cell mode and for page sizes with and without a byte tail.
func TestProgramPageWordwiseMatchesPerByte(t *testing.T) {
	for _, cell := range []CellMode{SLC, MLC, TLC} {
		for _, ps := range []int{100, 256, 4096} {
			t.Run(fmt.Sprintf("%v/ps=%d", cell, ps), func(t *testing.T) {
				spec := DensitySpec(DefaultSpec(), cell)
				spec.PageSize, spec.NumPages, spec.Banks = ps, 4, 2
				got, want := MustNewDevice(spec), MustNewDevice(spec)
				var gotLog, wantLog copyingLog
				got.Attach(&gotLog)
				want.Attach(&wantLog)
				rng := xrand.New(0xB17 + uint64(ps) + uint64(cell)<<20)
				buf := make([]byte, ps)
				cur := make([]byte, ps)
				var masked, rejected, programs int
				for round := 0; round < 300; round++ {
					p := rng.Intn(spec.NumPages)
					if rng.Intn(8) == 0 {
						if err := got.ErasePage(p); err != nil {
							t.Fatal(err)
						}
						if err := want.ErasePage(p); err != nil {
							t.Fatal(err)
						}
					}
					if rng.Intn(3) == 0 {
						// Drift and rise masks as faults and retention leave them:
						// sparse bits on a few bytes, identical on both devices.
						for n := rng.Intn(ps/4 + 1); n > 0; n-- {
							off, bit := rng.Intn(ps), byte(1)<<uint(rng.Intn(8))
							got.recordDrift(p, off, bit)
							want.recordDrift(p, off, bit)
							off = rng.Intn(ps)
							got.recordRise(p, off, bit)
							want.recordRise(p, off, bit)
						}
					}
					got.PeekPage(p, cur)
					for i := range buf {
						buf[i] = cur[i]
						if rng.Intn(3) != 0 {
							buf[i] = reachableTarget(cell, cur[i], rng)
						}
					}
					if rng.Intn(5) == 0 {
						// One unreachable byte at a random offset.
						for tries := 0; tries < 64; tries++ {
							i, v := rng.Intn(ps), rng.Byte()
							if !cell.Reachable(cur[i], v) {
								buf[i] = v
								break
							}
						}
					}
					if got.drift[p] != nil || got.rise[p] != nil {
						masked++
					}
					gerr := got.ProgramPage(p, buf)
					werr := refProgramPage(want, p, buf)
					if fmt.Sprint(gerr) != fmt.Sprint(werr) {
						t.Fatalf("round %d: error %v, per-byte %v", round, gerr, werr)
					}
					if werr != nil {
						rejected++
					} else {
						programs++
					}
					if !bytes.Equal(got.array, want.array) {
						t.Fatalf("round %d: arrays differ", round)
					}
					for q := 0; q < spec.NumPages; q++ {
						if !slices.Equal(got.drift[q], want.drift[q]) || (got.drift[q] == nil) != (want.drift[q] == nil) {
							t.Fatalf("round %d: page %d drift masks differ", round, q)
						}
						if !slices.Equal(got.rise[q], want.rise[q]) || (got.rise[q] == nil) != (want.rise[q] == nil) {
							t.Fatalf("round %d: page %d rise masks differ", round, q)
						}
					}
					if got.Stats() != want.Stats() {
						t.Fatalf("round %d: stats\nword-wise %+v\nper-byte  %+v", round, got.Stats(), want.Stats())
					}
				}
				if len(gotLog.events) != len(wantLog.events) {
					t.Fatalf("%d events, per-byte %d", len(gotLog.events), len(wantLog.events))
				}
				for i, g := range gotLog.events {
					w := wantLog.events[i]
					if g.Kind != w.Kind || g.Bank != w.Bank || g.Seq != w.Seq || g.Addr != w.Addr ||
						g.Bytes != w.Bytes || g.Energy != w.Energy || g.Busy != w.Busy ||
						!bytes.Equal(g.Data, w.Data) || !bytes.Equal(g.Prev, w.Prev) {
						t.Fatalf("event %d:\nword-wise %+v\nper-byte  %+v", i, g, w)
					}
				}
				if masked < 50 || rejected < 20 || programs < 150 {
					t.Errorf("weak run: %d programs over masks, %d rejected, %d committed", masked, rejected, programs)
				}
			})
		}
	}
}
