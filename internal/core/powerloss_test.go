package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// TestTornCommitThenRecover: power lost in the middle of a page commit
// leaves the page torn; the controller surfaces the error, and simply
// rewriting the data afterwards converges to a correct page — the recovery
// discipline checkpointing firmware relies on.
func TestTornCommitThenRecover(t *testing.T) {
	d := MustNewDevice(testSpec())
	ps := d.Flash().Spec().PageSize
	rng := xrand.New(71)
	data := make([]byte, ps)
	for i := range data {
		data[i] = rng.Byte()
	}
	if err := d.Write(0, data); err != nil {
		t.Fatal(err)
	}
	// New content that definitely needs an erase.
	for i := range data {
		data[i] = ^data[i]
	}
	d.Flash().InjectPowerLoss(0)
	err := d.Write(0, data)
	if !errors.Is(err, flash.ErrPowerLoss) {
		t.Fatalf("want ErrPowerLoss through the controller, got %v", err)
	}
	// Rebooted: rewriting the same data must succeed and verify.
	if err := d.Write(0, data); err != nil {
		t.Fatalf("recovery write: %v", err)
	}
	got := make([]byte, ps)
	if err := d.Read(0, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d wrong after recovery", i)
		}
	}
}

// TestTornCommitMidMultiPageWrite: a power loss in page k of a multi-page
// write must leave earlier pages committed and report the failure, so a
// journaling caller can detect the partial write.
func TestTornCommitMidMultiPageWrite(t *testing.T) {
	d := MustNewDevice(testSpec())
	ps := d.Flash().Spec().PageSize
	rng := xrand.New(73)
	data := make([]byte, 3*ps)
	for i := range data {
		data[i] = rng.Byte()
	}
	if err := d.Write(0, data); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = ^data[i]
	}
	// Each rewritten page needs 1 erase + up to ps programs; interrupt
	// somewhere inside the second page's operations.
	d.Flash().InjectPowerLoss(int(uint(ps)) + ps/2)
	err := d.Write(0, data)
	if !errors.Is(err, flash.ErrPowerLoss) {
		t.Fatalf("want ErrPowerLoss, got %v", err)
	}
	// Page 0 must have fully committed.
	got := make([]byte, ps)
	if err := d.Read(0, got); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ps; i++ {
		if got[i] != data[i] {
			t.Fatalf("page 0 byte %d not committed before the fault", i)
		}
	}
}

// TestReadDisturbOnLoadMatchesWholePageProgram: a read disturb that fires
// on a Write's load clears cells after the load has served the page, so the
// exact buffer still holds them at 1. The erase-free program of the dirty
// span must not trust the bytes outside it: the commit fails with the
// ErrNeedsErase, and leaves the Stats, that a whole-page program of the
// same buffer gives — replayed here on a bare flash device with the same
// operations and fault.
func TestReadDisturbOnLoadMatchesWholePageProgram(t *testing.T) {
	spec := flash.DefaultSpec()
	spec.PageSize, spec.NumPages, spec.Banks = 256, 4, 1
	const page, off = 2, 100
	fault := flash.Fault{Kind: flash.FaultReadDisturb, Bits: 24}
	outside := 0
	for seed := uint64(1); seed <= 16; seed++ {
		rng := xrand.New(seed)
		prior := make([]byte, spec.PageSize)
		for i := range prior {
			prior[i] = rng.Byte()
		}
		// A record-sized store that only clears bits: erase-free.
		data := make([]byte, 8)
		for i := range data {
			data[i] = prior[off+i] & rng.Byte()
		}

		d := MustNewDevice(spec)
		if err := d.Write(spec.PageSize*page, prior); err != nil {
			t.Fatal(err)
		}
		d.Flash().ArmBankFault(d.Flash().BankOf(page), fault)
		err := d.Write(spec.PageSize*page+off, data)

		// The same traffic as whole-page flash operations.
		fl := flash.MustNewDevice(spec)
		buf := make([]byte, spec.PageSize)
		if err := fl.ReadPage(page, buf); err != nil {
			t.Fatal(err)
		}
		if err := fl.ProgramPage(page, prior); err != nil {
			t.Fatal(err)
		}
		fl.ArmBankFault(fl.BankOf(page), fault)
		if err := fl.ReadPage(page, buf); err != nil {
			t.Fatal(err)
		}
		copy(buf[off:], data)
		want := fl.ProgramPage(page, buf)

		if fmt.Sprint(err) != fmt.Sprint(want) {
			t.Fatalf("seed %d: Write error %v, whole-page program %v", seed, err, want)
		}
		if g, w := d.Flash().Stats(), fl.Stats(); g != w {
			t.Fatalf("seed %d: stats\nWrite      %+v\nwhole page %+v", seed, g, w)
		}
		got, wantPage := make([]byte, spec.PageSize), make([]byte, spec.PageSize)
		d.Flash().PeekPage(page, got)
		fl.PeekPage(page, wantPage)
		if !bytes.Equal(got, wantPage) {
			t.Fatalf("seed %d: pages differ", seed)
		}
		if errors.Is(want, flash.ErrNeedsErase) {
			outside++
		}
	}
	if outside == 0 {
		t.Error("no seed disturbed a cell outside the span")
	}
}
