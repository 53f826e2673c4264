package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// faultQueue is a finite flash.FaultSchedule: it hands out its faults in
// order, then reports exhaustion.
type faultQueue []flash.Fault

func (q *faultQueue) Next() (flash.Fault, bool) {
	if len(*q) == 0 {
		return flash.Fault{}, false
	}
	f := (*q)[0]
	*q = (*q)[1:]
	return f, true
}

// eventLog records the flash events a device emits, without page images.
type eventLog struct{ events []flash.OpEvent }

func (l *eventLog) OnOp(ev flash.OpEvent) {
	ev.Data, ev.Prev = nil, nil
	l.events = append(l.events, ev)
}

// randomPage returns one page of seeded random bytes.
func randomPage(d *Device, seed uint64) []byte {
	rng := xrand.New(seed)
	data := make([]byte, d.Flash().Spec().PageSize)
	for i := range data {
		data[i] = rng.Byte()
	}
	return data
}

// TestRetrySavesTransientProgramMidPage: a transient verify failure on the
// eleventh pulse of an exact commit stops the page program there — the
// first ten bytes land as one batched program, the victim byte fails — and
// the controller's re-issue finishes the page. The write succeeds, the
// data reads back, and the retry is counted as a save.
func TestRetrySavesTransientProgramMidPage(t *testing.T) {
	const backoff = 3 * time.Microsecond
	log := &eventLog{}
	d, err := NewDevice(testSpec(),
		WithRetry(2, backoff),
		WithFaultSchedule(&faultQueue{{Kind: flash.FaultTransientProgram, After: 10, Retries: 1}}),
		WithObserver(log))
	if err != nil {
		t.Fatal(err)
	}
	data := randomPage(d, 0x5A7E)
	for i := range data {
		data[i] &^= 0x80 // every byte differs from the erased 0xFF
	}
	if err := d.Write(0, data); err != nil {
		t.Fatalf("write with a retry budget: %v", err)
	}
	got := make([]byte, len(data))
	if err := d.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("page does not read back after the retry")
	}
	st := d.Stats()
	if st.RetryAttempts != 1 || st.RetrySaves != 1 || st.RetryRetired != 0 {
		t.Errorf("retry stats %+v, want 1 attempt, 1 save, 0 retired", st)
	}
	fst := d.Flash().Stats()
	if fst.ProgramFails != 1 || fst.Waits != 1 || d.Flash().FaultsFired() != 1 {
		t.Errorf("flash stats %+v, %d faults fired; want 1 program fail, 1 wait, 1 fault", fst, d.Flash().FaultsFired())
	}
	// The first issue: page read, a batched program of the ten bytes
	// before the victim, then the victim's failed pulse.
	var first []flash.OpEvent
	for _, ev := range log.events {
		if ev.Kind == flash.OpProgram || ev.Kind == flash.OpProgramFail {
			first = append(first, ev)
		}
	}
	if len(first) < 2 || first[0].Kind != flash.OpProgram || first[0].Bytes != 10 ||
		first[1].Kind != flash.OpProgramFail || first[1].Addr != 10 {
		t.Errorf("program events %+v, want a 10-byte batched program then a failed pulse at byte 10", first)
	}
}

// TestRetryBudgetExhaustedRetiresPage: a transient incident that outlasts
// the retry budget retires the page and reports ErrExactDegraded, the
// signal the FTL and the KVS treat as "place this data elsewhere".
func TestRetryBudgetExhaustedRetiresPage(t *testing.T) {
	d, err := NewDevice(testSpec(), WithRetry(2, time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	const page = 3
	d.Flash().ArmBankFault(d.Flash().BankOf(page),
		flash.Fault{Kind: flash.FaultTransientProgram, After: 5, Retries: 4})
	err = d.Write(d.Flash().PageBase(page), randomPage(d, 0xB0D6))
	if !errors.Is(err, ErrExactDegraded) {
		t.Fatalf("write: %v, want ErrExactDegraded", err)
	}
	if !d.Flash().Retired(page) {
		t.Error("page not retired after the budget ran out")
	}
	st := d.Stats()
	if st.RetryAttempts != 2 || st.RetrySaves != 0 || st.RetryRetired != 1 {
		t.Errorf("retry stats %+v, want 2 attempts, 0 saves, 1 retired", st)
	}
	if fails := d.Flash().Stats().ProgramFails; fails != 3 {
		t.Errorf("%d program fails, want 3 (the issue and two re-issues)", fails)
	}
	if err := d.Write(d.Flash().PageBase(page), []byte{0}); !errors.Is(err, flash.ErrPageRetired) {
		t.Errorf("write to the retired page: %v, want ErrPageRetired", err)
	}
}

// TestErasePageRetriesTransientErase: Device.ErasePage routes a management
// erase through the retry policy, so a transient erase failure is
// re-issued and the page ends fully erased.
func TestErasePageRetriesTransientErase(t *testing.T) {
	d, err := NewDevice(testSpec(), WithRetry(1, time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	const page = 2
	base := d.Flash().PageBase(page)
	if err := d.Write(base, randomPage(d, 0xE7A5)); err != nil {
		t.Fatal(err)
	}
	d.Flash().ArmFault(flash.Fault{Kind: flash.FaultTransientErase})
	if err := d.ErasePage(page); err != nil {
		t.Fatalf("erase with a retry budget: %v", err)
	}
	got := make([]byte, d.Flash().Spec().PageSize)
	if err := d.Read(base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{0xFF}, len(got))) {
		t.Error("page not erased after the retry")
	}
	st := d.Stats()
	if st.RetryAttempts != 1 || st.RetrySaves != 1 {
		t.Errorf("retry stats %+v, want 1 attempt, 1 save", st)
	}
	if fst := d.Flash().Stats(); fst.EraseFails != 1 || fst.Erases != 1 || d.Flash().Wear(page) != 2 {
		t.Errorf("flash stats %+v, wear %d; want 1 failed and 1 clean erase, wear 2", fst, d.Flash().Wear(page))
	}
}

// TestSensePageResolvesMarginalCells: after a retention fault leaves a
// programmed cell marginal, the controller's margin-aware sense still
// returns the stored page on every call, charged as one page of reads.
func TestSensePageResolvesMarginalCells(t *testing.T) {
	d := MustNewDevice(testSpec())
	const page = 1
	ps := d.Flash().Spec().PageSize
	base := d.Flash().PageBase(page)
	data := make([]byte, ps) // all zeros: every cell programmed
	if err := d.Write(base, data); err != nil {
		t.Fatal(err)
	}
	d.Flash().ArmFault(flash.Fault{Kind: flash.FaultRetention})
	if err := d.Read(base, make([]byte, ps)); err != nil {
		t.Fatal(err)
	}
	if d.Flash().RiseBits(page) == 0 {
		t.Fatal("retention fault marked no cell")
	}
	got := make([]byte, ps)
	for i := 0; i < 8; i++ {
		before := d.Flash().Stats().Reads
		if err := d.SensePage(page, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("sense %d returned %x, want the stored page", i, got)
		}
		if n := d.Flash().Stats().Reads - before; n != uint64(ps) {
			t.Fatalf("sense charged %d bytes of reads, want %d", n, ps)
		}
	}
	if err := d.SensePage(d.Flash().Spec().NumPages, got); !errors.Is(err, flash.ErrBounds) {
		t.Errorf("sense past the last page: %v, want ErrBounds", err)
	}
}
