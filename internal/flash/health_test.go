package flash

import (
	"errors"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/xrand"
)

func healthSpec() Spec {
	s := DefaultSpec()
	s.PageSize = 32
	s.NumPages = 8
	s.Banks = 2
	return s
}

// TestDriftMaskGroundTruth: the drift mask must reconstruct the intended
// image (data | mask) through fault flips, and programs must absorb mask
// bits they intentionally clear.
func TestDriftMaskGroundTruth(t *testing.T) {
	d := MustNewDevice(healthSpec())
	const p = 0
	ps := d.Spec().PageSize

	if n := d.StuckBits(p); n != 0 {
		t.Fatalf("fresh page reports %d stuck bits", n)
	}

	// A silent stuck-bits erase: page should read FF except the stuck
	// cells, and mask must cover exactly the difference.
	d.ArmBankFault(d.BankOf(p), Fault{Kind: FaultStuckBits, Bits: 16})
	if err := d.ErasePage(p); err != nil {
		t.Fatal(err)
	}
	mask := make([]byte, ps)
	n, err := d.StuckMaskInto(p, mask)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("stuck-bits fault recorded no drift")
	}
	page := make([]byte, ps)
	d.PeekPage(p, page)
	for i := range page {
		if page[i]|mask[i] != 0xFF {
			t.Fatalf("byte %d: data %08b | mask %08b != FF", i, page[i], mask[i])
		}
	}

	// Find a stuck byte and intentionally program its stuck bits to 0:
	// the mask must absorb them (restoring a 1 there would now corrupt).
	stuckAt := -1
	for i := range mask {
		if mask[i] != 0 {
			stuckAt = i
			break
		}
	}
	base := d.PageBase(p)
	if err := d.ProgramByte(base+stuckAt, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.StuckMaskInto(p, mask); err != nil {
		t.Fatal(err)
	}
	if mask[stuckAt] != 0 {
		t.Errorf("program did not absorb drift: mask[%d] = %08b", stuckAt, mask[stuckAt])
	}

	// An erase forgets all drift.
	if err := d.ErasePage(p); err != nil {
		t.Fatal(err)
	}
	if n := d.StuckBits(p); n != 0 {
		t.Errorf("drift survived erase: %d bits", n)
	}
}

// TestDriftFromWornOutErase: past-endurance erases stick cells and the
// mask tracks them, so data | mask is still all-1s (the intended image).
func TestDriftFromWornOutErase(t *testing.T) {
	s := healthSpec()
	s.EnduranceCycles = 2
	d := MustNewDevice(s)
	const p = 1
	for i := 0; i < 3; i++ {
		err := d.ErasePage(p)
		if i < 2 && err != nil {
			t.Fatal(err)
		}
		if i == 2 && !errors.Is(err, ErrWornOut) {
			t.Fatalf("erase %d: got %v, want ErrWornOut", i, err)
		}
	}
	if !d.WornOut(p) || !d.Degraded(p) {
		t.Error("page past endurance not marked worn/degraded")
	}
	ps := d.Spec().PageSize
	mask := make([]byte, ps)
	if _, err := d.StuckMaskInto(p, mask); err != nil {
		t.Fatal(err)
	}
	page := make([]byte, ps)
	d.PeekPage(p, page)
	for i := range page {
		if page[i]|mask[i] != 0xFF {
			t.Fatalf("byte %d: data %08b | mask %08b != FF", i, page[i], mask[i])
		}
	}
}

func TestRetire(t *testing.T) {
	d := MustNewDevice(healthSpec())
	const p = 3
	if err := d.ProgramByte(d.PageBase(p), 0xA5); err != nil {
		t.Fatal(err)
	}
	if err := d.Retire(p); err != nil {
		t.Fatal(err)
	}
	if !d.Retired(p) || !d.Degraded(p) {
		t.Error("retired page not reported retired/degraded")
	}
	if err := d.ProgramByte(d.PageBase(p), 0x00); !errors.Is(err, ErrPageRetired) {
		t.Errorf("program on retired page: got %v, want ErrPageRetired", err)
	}
	buf := make([]byte, d.Spec().PageSize)
	if err := d.ProgramPage(p, buf); !errors.Is(err, ErrPageRetired) {
		t.Errorf("program-page on retired page: got %v, want ErrPageRetired", err)
	}
	if err := d.ErasePage(p); !errors.Is(err, ErrPageRetired) {
		t.Errorf("erase on retired page: got %v, want ErrPageRetired", err)
	}
	// Reads keep working: the remap copy may still be in flight.
	if v, err := d.ReadByteAt(d.PageBase(p)); err != nil || v != 0xA5 {
		t.Errorf("read on retired page: %v, %#x", err, v)
	}
	// Idempotent, and exactly one retirement counted.
	if err := d.Retire(p); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().Retirements; got != 1 {
		t.Errorf("Retirements = %d, want 1", got)
	}
}

func TestNoteScrubCountsOnBus(t *testing.T) {
	d := MustNewDevice(healthSpec())
	var events int
	d.Attach(ObserverFunc(func(ev OpEvent) {
		if ev.Kind == OpScrub {
			events++
		}
	}))
	d.NoteScrub(2)
	d.NoteScrub(5)
	if got := d.Stats().Scrubs; got != 2 {
		t.Errorf("Scrubs = %d, want 2", got)
	}
	if events != 2 {
		t.Errorf("observer saw %d scrub events, want 2", events)
	}
	if OpScrub.String() != "scrub" || OpRetire.String() != "retire" {
		t.Errorf("op kind strings: %q %q", OpScrub, OpRetire)
	}
}

func TestWearSnapshot(t *testing.T) {
	d := MustNewDevice(healthSpec())
	for p := 0; p < d.Spec().NumPages; p++ {
		for i := 0; i <= p; i++ {
			if err := d.ErasePage(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap := d.WearSnapshot()
	if len(snap) != d.Spec().NumPages {
		t.Fatalf("snapshot length %d", len(snap))
	}
	for p, w := range snap {
		if w != uint32(p+1) || w != d.Wear(p) {
			t.Errorf("page %d: snapshot %d, Wear %d, want %d", p, w, d.Wear(p), p+1)
		}
	}
	if d.MaxWear() != uint32(d.Spec().NumPages) {
		t.Errorf("MaxWear = %d", d.MaxWear())
	}
}

func TestHealthReport(t *testing.T) {
	s := healthSpec()
	s.EnduranceCycles = 4
	d := MustNewDevice(s)
	// Page 0: worn out (5 erases). Page 1: half worn. Page 2: retired.
	for i := 0; i < 5; i++ {
		d.ErasePage(0)
	}
	for i := 0; i < 2; i++ {
		if err := d.ErasePage(1); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Retire(2); err != nil {
		t.Fatal(err)
	}

	rep := d.Health()
	if rep.Endurance != 4 || len(rep.Banks) != 2 {
		t.Fatalf("report header: %+v", rep)
	}
	if rep.MaxWear != 5 || rep.Dead != 1 || rep.Retired != 1 {
		t.Errorf("totals: max %d dead %d retired %d", rep.MaxWear, rep.Dead, rep.Retired)
	}
	if rep.Stuck == 0 {
		t.Error("worn-out page recorded no stuck cells")
	}
	pages := 0
	for _, bh := range rep.Banks {
		hist := 0
		for _, c := range bh.Histogram {
			hist += c
		}
		if hist != bh.Pages {
			t.Errorf("bank %d: histogram sums to %d of %d pages", bh.Bank, hist, bh.Pages)
		}
		pages += bh.Pages
	}
	if pages != d.Spec().NumPages {
		t.Errorf("banks cover %d pages", pages)
	}
}

// TestWearHealthInto: the one-pass health snapshot must equal WearSnapshot
// plus per-page Degraded || AtRating on a multi-bank device holding every
// page state: fresh, worn, at rating, past rating (dead) and retired.
func TestWearHealthInto(t *testing.T) {
	s := healthSpec()
	s.NumPages = 24
	s.Banks = 4
	s.EnduranceCycles = 6
	d := MustNewDevice(s)
	rng := xrand.New(7)
	for p := 0; p < s.NumPages; p++ {
		for i := rng.Intn(int(s.EnduranceCycles) + 3); i > 0; i-- {
			_ = d.ErasePage(p) // past the rating the erase reports ErrWornOut
		}
	}
	for _, p := range []int{1, 6, 19} {
		if err := d.Retire(p); err != nil {
			t.Fatal(err)
		}
	}

	wear := make([]uint32, s.NumPages)
	unusable := make([]bool, s.NumPages)
	if err := d.WearHealthInto(wear, unusable); err != nil {
		t.Fatal(err)
	}
	snap := d.WearSnapshot()
	var dead, atRating, retired, usable int
	for p := range wear {
		want := d.Degraded(p) || d.AtRating(p)
		if wear[p] != snap[p] || unusable[p] != want {
			t.Errorf("page %d: wear %d unusable %v, want wear %d unusable %v",
				p, wear[p], unusable[p], snap[p], want)
		}
		switch {
		case d.Retired(p):
			retired++
		case d.WornOut(p):
			dead++
		case d.AtRating(p):
			atRating++
		default:
			usable++
		}
	}
	if dead == 0 || atRating == 0 || retired == 0 || usable == 0 {
		t.Fatalf("fixture lacks a page state: dead %d at-rating %d retired %d usable %d",
			dead, atRating, retired, usable)
	}

	if allocs := testing.AllocsPerRun(100, func() { _ = d.WearHealthInto(wear, unusable) }); allocs != 0 {
		t.Errorf("WearHealthInto allocates %.1f times per call, want 0", allocs)
	}
	if err := d.WearHealthInto(wear[:1], unusable); !errors.Is(err, ErrBounds) {
		t.Errorf("short wear buffer: err = %v, want ErrBounds", err)
	}
	if err := d.WearHealthInto(wear, unusable[:1]); !errors.Is(err, ErrBounds) {
		t.Errorf("short unusable buffer: err = %v, want ErrBounds", err)
	}
}
