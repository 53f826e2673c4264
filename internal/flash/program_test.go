package flash

import (
	"bytes"
	"errors"
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

// faultSweep returns the pulse indices a fault is armed to fire at for a
// page program that charges n pulses: every index in 0..n (n itself never
// fires) up to 512 pulses, and above that the first and last 32 plus every
// 61st in between, a stride that walks every offset within a word. Under
// the race detector every sweep keeps only the first and last 8 and every
// 509th: the test runs on one goroutine, and every index takes the same
// code path.
func faultSweep(n int) []int {
	dense, edge, stride := 512, 32, 61
	if raceEnabled {
		dense, edge, stride = 0, 8, 509
	}
	var ks []int
	for k := 0; k <= n; k++ {
		if n <= dense || k < edge || k > n-edge || k%stride == 0 {
			ks = append(ks, k)
		}
	}
	return ks
}

// errKind names the sentinel an error wraps, for comparing errors whose
// messages legitimately differ.
func errKind(err error) error {
	for _, k := range []error{ErrPowerLoss, ErrTransient, ErrNeedsErase} {
		if errors.Is(err, k) {
			return k
		}
	}
	return err
}

// TestFaultedProgramMatchesByteOracle: a page program on a fault-armed
// device must leave what one ProgramByte per byte leaves. A power-loss or
// transient-program fault (with 1-3 retries) is armed, in bank scope and
// in the shared scope, to fire at each pulse index of the program; the
// program is then re-issued until it succeeds, draining any transient
// residue. After every issue the two devices must agree on the array, the
// drift and rise masks, every Stats counter and the busy time, the
// FaultsFired count and the error kind, with energy equal within 1e-9.
// Runs with and without programAll and with and without an attached trace,
// over previous contents that leave some bytes unchanged and under live
// drift and rise masks. With programAll off the traces must agree too;
// with it on the page program's trace lists only the bytes whose value
// changed, since the batched event carries page images, not pulses.
func TestFaultedProgramMatchesByteOracle(t *testing.T) {
	faults := []Fault{
		{Kind: FaultPowerLoss},
		{Kind: FaultTransientProgram, Retries: 1},
		{Kind: FaultTransientProgram, Retries: 2},
		{Kind: FaultTransientProgram, Retries: 3},
	}
	for _, cell := range []CellMode{SLC, MLC, TLC} {
		for _, ps := range []int{100, 256, 4096} {
			for _, programAll := range []bool{false, true} {
				for _, observed := range []bool{false, true} {
					name := fmt.Sprintf("%v/ps=%d/programAll=%v/observed=%v", cell, ps, programAll, observed)
					t.Run(name, func(t *testing.T) {
						testFaultedProgram(t, cell, ps, programAll, observed, faults)
					})
				}
			}
		}
	}
}

func testFaultedProgram(t *testing.T, cell CellMode, ps int, programAll, observed bool, faults []Fault) {
	spec := DensitySpec(DefaultSpec(), cell)
	spec.PageSize, spec.NumPages, spec.Banks = ps, 4, 2
	const p = 1
	rng := xrand.New(0xFA17 + uint64(ps) + uint64(cell)<<20)
	// Previous contents, the masks' bits, and a reachable target that
	// changes a third of a small page's bytes but only one in 64 of a
	// large one, so the sweep still covers every pulse when only the
	// changed bytes are charged.
	prior := make([]byte, ps)
	for i := range prior {
		prior[i] = rng.Byte()
	}
	changeEvery := 3
	if ps > 512 {
		changeEvery = 64
	}
	buf := slices.Clone(prior)
	charged := 0
	for i := range buf {
		if rng.Intn(changeEvery) == 0 {
			buf[i] = reachableTarget(cell, prior[i], rng)
		}
		if programAll || buf[i] != prior[i] {
			charged++
		}
	}
	type bit struct {
		off  int
		mask byte
	}
	var drift, rise []bit
	for n := ps / 4; n > 0; n-- {
		drift = append(drift, bit{rng.Intn(ps), byte(1) << uint(rng.Intn(8))})
		rise = append(rise, bit{rng.Intn(ps), byte(1) << uint(rng.Intn(8))})
	}
	setup := func() (*Device, *Trace) {
		d := MustNewDevice(spec)
		if err := d.ProgramPage(p, prior); err != nil {
			t.Fatal(err)
		}
		for _, b := range drift {
			d.recordDrift(p, b.off, b.mask)
		}
		for _, b := range rise {
			d.recordRise(p, b.off, b.mask)
		}
		d.SetProgramAll(programAll)
		var tr *Trace
		if observed {
			tr = NewTrace(0)
			d.SetTracer(tr)
		}
		return d, tr
	}
	fires := 0
	for _, f := range faults {
		for _, shared := range []bool{false, true} {
			for _, k := range faultSweep(charged) {
				got, gotTrace := setup()
				want, wantTrace := setup()
				f.After = k
				for _, d := range []*Device{got, want} {
					if shared {
						d.ArmFault(f)
					} else {
						d.ArmBankFault(d.BankOf(p), f)
					}
				}
				where := fmt.Sprintf("%v retries=%d shared=%v at pulse %d", f.Kind, f.Retries, shared, k)
				for issue := 0; ; issue++ {
					gerr := got.ProgramPage(p, buf)
					werr := programPageByBytes(want, p, buf)
					at := fmt.Sprintf("%s, issue %d", where, issue)
					if errKind(gerr) != errKind(werr) {
						t.Fatalf("%s: error %v, byte oracle %v", at, gerr, werr)
					}
					if !bytes.Equal(got.array, want.array) {
						t.Fatalf("%s: arrays differ", at)
					}
					if !slices.Equal(got.drift[p], want.drift[p]) || !slices.Equal(got.rise[p], want.rise[p]) {
						t.Fatalf("%s: drift or rise masks differ", at)
					}
					gs, ws := got.Stats(), want.Stats()
					if diff := float64(gs.Energy - ws.Energy); diff > 1e-9 || diff < -1e-9 {
						t.Fatalf("%s: energy %v, byte oracle %v", at, gs.Energy, ws.Energy)
					}
					gs.Energy, ws.Energy = 0, 0
					if gs != ws {
						t.Fatalf("%s: stats\npage program %+v\nbyte oracle  %+v", at, gs, ws)
					}
					if g, w := got.FaultsFired(), want.FaultsFired(); g != w {
						t.Fatalf("%s: %d faults fired, byte oracle %d", at, g, w)
					}
					if observed && !programAll && !slices.Equal(gotTrace.Entries(), wantTrace.Entries()) {
						t.Fatalf("%s: traces differ", at)
					}
					if k := errKind(werr); k != ErrPowerLoss && k != ErrTransient {
						break
					}
					fires++
					if issue > f.retries() {
						t.Fatalf("%s: still failing", at)
					}
				}
			}
		}
	}
	if fires == 0 {
		t.Error("no fault fired")
	}
}
