package core

import (
	"fmt"
	"sync"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/approx"
	"github.com/flipbit-sim/flipbit/internal/bits"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// Tests for the batch encode-kernel wiring in the commit pipeline: the
// kernel path must be observationally identical to the scalar reference
// path (WithScalarEncode) — same flash contents, same controller stats,
// same flash op counts — and the span-restricted needsErase must agree
// with the full-page scan it replaced.

// fullPageNeedsErase is the pre-optimization reference: scan the whole
// page byte by byte under the cell mode.
func fullPageNeedsErase(s *session) bool {
	for i, v := range s.bufs.exact {
		if !s.d.cell.Reachable(s.bufs.previous[i], v) {
			return true
		}
	}
	return false
}

// TestNeedsEraseSpanEquivalence drives random partial-page sessions on
// SLC, MLC and TLC devices and checks the dirty-span needsErase against
// the full-page reference scan.
func TestNeedsEraseSpanEquivalence(t *testing.T) {
	for _, cell := range []flash.CellMode{flash.SLC, flash.MLC, flash.TLC} {
		spec := testSpec()
		spec.Cell = cell
		d := MustNewDevice(spec)
		rng := xrand.New(uint64(0xE5A5E + int(cell)))
		page := make([]byte, spec.PageSize)
		for round := 0; round < 200; round++ {
			for i := range page {
				page[i] = rng.Byte()
			}
			if err := d.Flash().EraseProgramPage(0, page); err != nil {
				t.Fatal(err)
			}
			off := rng.Intn(spec.PageSize)
			n := 1 + rng.Intn(spec.PageSize-off)
			data := make([]byte, n)
			for i := range data {
				switch round % 3 {
				case 0:
					data[i] = rng.Byte()
				case 1: // reachable: clear a few bits
					data[i] = page[off+i] &^ byte(rng.Intn(8))
				default: // unchanged
					data[i] = page[off+i]
				}
			}
			bufs := d.bufPool.Get().(*commitBuffers)
			s := &session{d: d, page: 0, off: off, data: data, bufs: bufs}
			if err := s.load(); err != nil {
				t.Fatal(err)
			}
			s.apply()
			if got, want := s.needsErase(), fullPageNeedsErase(s); got != want {
				t.Fatalf("%v off=%d len=%d: span needsErase=%v, full-page scan=%v",
					cell, off, n, got, want)
			}
			d.bufPool.Put(bufs)
		}
	}
}

// kernelEquivDevice builds the whole-array-approximatable device pair used
// by the differential test: one on the batch kernels, one forced onto the
// scalar reference path.
func kernelEquivDevice(t *testing.T, enc approx.Encoder, w bits.Width, thr float64, policy FallbackPolicy, scalar bool) *Device {
	t.Helper()
	opts := []Option{WithEncoder(enc), WithFallbackPolicy(policy)}
	if scalar {
		opts = append(opts, WithScalarEncode())
	}
	d := MustNewDevice(testSpec(), opts...)
	if err := d.SetApproxRegion(0, d.Flash().Spec().Size()); err != nil {
		t.Fatal(err)
	}
	if err := d.SetWidth(w); err != nil {
		t.Fatal(err)
	}
	d.SetThreshold(thr)
	return d
}

// TestBatchEncodeMatchesScalarDevice replays identical write workloads on a
// kernel device and a WithScalarEncode device and requires bit-identical
// behaviour end to end: controller stats, flash op counts, and every byte
// of the array.
func TestBatchEncodeMatchesScalarDevice(t *testing.T) {
	encoders := []approx.Encoder{approx.OneBit{}, approx.MustNBit(2), approx.MustNBit(8), approx.Exact{}}
	widths := []bits.Width{bits.W8, bits.W16, bits.W32}
	policies := []FallbackPolicy{FallbackPerPage, FallbackPerValue}
	for _, enc := range encoders {
		for _, w := range widths {
			for _, policy := range policies {
				name := fmt.Sprintf("%s/%v/policy%d", enc.Name(), w, policy)
				t.Run(name, func(t *testing.T) {
					kd := kernelEquivDevice(t, enc, w, 6, policy, false)
					sd := kernelEquivDevice(t, enc, w, 6, policy, true)
					spec := kd.Flash().Spec()
					rng := xrand.New(0xD1FF)
					buf := make([]byte, spec.PageSize)
					for op := 0; op < 120; op++ {
						page := rng.Intn(spec.NumPages)
						off := page * spec.PageSize
						n := spec.PageSize
						if op%3 == 1 { // partial, word-aligned writes too
							a := w.Bytes() * (1 + rng.Intn(spec.PageSize/w.Bytes()-1))
							off += 0
							n = a
						}
						for i := 0; i < n; i++ {
							buf[i] = rng.Byte()
						}
						if err := kd.Write(off, buf[:n]); err != nil {
							t.Fatal(err)
						}
						if err := sd.Write(off, buf[:n]); err != nil {
							t.Fatal(err)
						}
					}
					if ks, ss := kd.Stats(), sd.Stats(); ks != ss {
						t.Fatalf("controller stats diverge: kernel %+v, scalar %+v", ks, ss)
					}
					if kf, sf := kd.Flash().Stats(), sd.Flash().Stats(); kf != sf {
						t.Fatalf("flash op counts diverge: kernel %+v, scalar %+v", kf, sf)
					}
					kb := make([]byte, spec.Size())
					sb := make([]byte, spec.Size())
					if err := kd.Read(0, kb); err != nil {
						t.Fatal(err)
					}
					if err := sd.Read(0, sb); err != nil {
						t.Fatal(err)
					}
					for i := range kb {
						if kb[i] != sb[i] {
							t.Fatalf("flash contents diverge at byte %d: kernel %#x, scalar %#x", i, kb[i], sb[i])
						}
					}
				})
			}
		}
	}
}

// TestKernelEngagementMatrix pins the per-(encoder, cell mode) soundness
// matrix: the NCell kernel engages only on MLC (its outputs may set bits,
// which SLC cannot program, and a legal MLC cell move can raise a TLC
// field), Exact's SLC subset verdict engages only on SLC, subset-producing
// kernels engage everywhere, and encoders without kernels never do.
func TestKernelEngagementMatrix(t *testing.T) {
	modes := []flash.CellMode{flash.SLC, flash.MLC, flash.TLC}
	cases := []struct {
		enc  approx.Encoder
		want map[flash.CellMode]bool
	}{
		{approx.MustNCell(2), map[flash.CellMode]bool{flash.SLC: false, flash.MLC: true, flash.TLC: false}},
		{approx.Exact{}, map[flash.CellMode]bool{flash.SLC: true, flash.MLC: false, flash.TLC: false}},
		{approx.OneBit{}, map[flash.CellMode]bool{flash.SLC: true, flash.MLC: true, flash.TLC: true}},
		{approx.MustNBit(2), map[flash.CellMode]bool{flash.SLC: true, flash.MLC: true, flash.TLC: true}},
		{approx.Optimal{}, map[flash.CellMode]bool{flash.SLC: false, flash.MLC: false, flash.TLC: false}},
	}
	for _, c := range cases {
		for _, m := range modes {
			if got := kernelEngages(c.enc, m); got != c.want[m] {
				t.Errorf("kernelEngages(%s, %v) = %v, want %v", c.enc.Name(), m, got, c.want[m])
			}
		}
	}
}

// TestDenseCellKernelMatchesScalarDevice replays identical write workloads
// (full pages and word-aligned partials) on kernel and WithScalarEncode
// devices at MLC and TLC densities and requires bit-identical behaviour
// end to end — the replacement for the old TestMLCUsesScalarPath guard now
// that the kernels engage on dense cell modes.
func TestDenseCellKernelMatchesScalarDevice(t *testing.T) {
	cases := []struct {
		cell flash.CellMode
		enc  approx.Encoder
	}{
		{flash.MLC, approx.MustNCell(1)},
		{flash.MLC, approx.MustNCell(2)},
		{flash.MLC, approx.MustNCell(4)},
		{flash.TLC, approx.MustNBit(2)},
		{flash.TLC, approx.OneBit{}},
	}
	widths := []bits.Width{bits.W8, bits.W16, bits.W32}
	for _, c := range cases {
		for _, w := range widths {
			t.Run(fmt.Sprintf("%v/%s/%v", c.cell, c.enc.Name(), w), func(t *testing.T) {
				spec := testSpec()
				spec.Cell = c.cell
				mk := func(scalar bool) *Device {
					opts := []Option{WithEncoder(c.enc)}
					if scalar {
						opts = append(opts, WithScalarEncode())
					}
					d := MustNewDevice(spec, opts...)
					if err := d.SetApproxRegion(0, spec.Size()); err != nil {
						t.Fatal(err)
					}
					if err := d.SetWidth(w); err != nil {
						t.Fatal(err)
					}
					d.SetThreshold(6)
					return d
				}
				kd, sd := mk(false), mk(true)
				rng := xrand.New(0xD1FF)
				buf := make([]byte, spec.PageSize)
				for op := 0; op < 120; op++ {
					page := rng.Intn(spec.NumPages)
					off := page * spec.PageSize
					n := spec.PageSize
					if op%3 == 1 { // partial, word-aligned writes too
						n = w.Bytes() * (1 + rng.Intn(spec.PageSize/w.Bytes()-1))
					}
					for i := 0; i < n; i++ {
						buf[i] = rng.Byte()
					}
					if err := kd.Write(off, buf[:n]); err != nil {
						t.Fatal(err)
					}
					if err := sd.Write(off, buf[:n]); err != nil {
						t.Fatal(err)
					}
				}
				if ks, ss := kd.Stats(), sd.Stats(); ks != ss {
					t.Fatalf("controller stats diverge: kernel %+v, scalar %+v", ks, ss)
				}
				if kf, sf := kd.Flash().Stats(), sd.Flash().Stats(); kf != sf {
					t.Fatalf("flash op counts diverge: kernel %+v, scalar %+v", kf, sf)
				}
				kb := make([]byte, spec.Size())
				sb := make([]byte, spec.Size())
				if err := kd.Read(0, kb); err != nil {
					t.Fatal(err)
				}
				if err := sd.Read(0, sb); err != nil {
					t.Fatal(err)
				}
				for i := range kb {
					if kb[i] != sb[i] {
						t.Fatalf("flash contents diverge at byte %d: kernel %#x, scalar %#x", i, kb[i], sb[i])
					}
				}
			})
		}
	}
}

// TestMLCKernelCommitModeEquivalence drives identical per-bank write
// sequences through an MLC scalar-path oracle and two kernel-path drive
// modes — serial Write and one goroutine per bank — and requires
// byte-identical flash stats (global and per bank), controller stats, and
// array contents from both. This is the device-level proof that the NCell
// kernel wiring covers the serial and concurrent commit paths alike.
func TestMLCKernelCommitModeEquivalence(t *testing.T) {
	spec := concSpec()
	spec.Cell = flash.MLC
	enc := approx.MustNCell(2)
	const rounds = 80
	for _, threshold := range []float64{4, 255} {
		mk := func(opts ...Option) *Device {
			d := MustNewDevice(spec, append([]Option{WithEncoder(enc)}, opts...)...)
			if err := d.SetApproxRegion(0, spec.Size()); err != nil {
				t.Fatal(err)
			}
			d.SetThreshold(threshold)
			return d
		}

		oracle, serial := mk(WithScalarEncode()), mk()
		for b := 0; b < spec.Banks; b++ {
			bankWorkload(oracle, b, rounds, 0x31C+uint64(b))
			bankWorkload(serial, b, rounds, 0x31C+uint64(b))
		}

		conc := mk()
		var wg sync.WaitGroup
		for b := 0; b < spec.Banks; b++ {
			wg.Add(1)
			go func(b int) {
				defer wg.Done()
				bankWorkload(conc, b, rounds, 0x31C+uint64(b))
			}(b)
		}
		wg.Wait()

		for _, m := range []struct {
			name string
			d    *Device
		}{{"serial-kernel", serial}, {"concurrent-kernel", conc}} {
			if s, c := oracle.Flash().Stats(), m.d.Flash().Stats(); s != c {
				t.Errorf("threshold %v %s: flash stats differ\nscalar %+v\nkernel %+v", threshold, m.name, s, c)
			}
			for b := 0; b < spec.Banks; b++ {
				if s, c := oracle.Flash().BankStats(b), m.d.Flash().BankStats(b); s != c {
					t.Errorf("threshold %v %s: bank %d shard differs\nscalar %+v\nkernel %+v",
						threshold, m.name, b, s, c)
				}
			}
			if s, c := oracle.Stats(), m.d.Stats(); s != c {
				t.Errorf("threshold %v %s: controller stats differ\nscalar %+v\nkernel %+v", threshold, m.name, s, c)
			}
			for addr := 0; addr < spec.Size(); addr++ {
				if oracle.Flash().Peek(addr) != m.d.Flash().Peek(addr) {
					t.Fatalf("threshold %v %s: array differs at %#x", threshold, m.name, addr)
				}
			}
		}
	}
}

// TestCommitPageSteadyStateAllocsMLC mirrors the SLC steady-state guard on
// an MLC device with the NCell kernel engaged: the commit hot path must
// not allocate per page on the dense-cell path either.
func TestCommitPageSteadyStateAllocsMLC(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; allocation counts are meaningless")
	}
	spec := testSpec()
	spec.Cell = flash.MLC
	d := MustNewDevice(spec, WithEncoder(approx.MustNCell(2)))
	if err := d.SetApproxRegion(0, spec.Size()); err != nil {
		t.Fatal(err)
	}
	d.SetThreshold(255)
	rng := xrand.New(11)
	a := make([]byte, spec.PageSize)
	b := make([]byte, spec.PageSize)
	for i := range a {
		a[i] = rng.Byte()
		b[i] = byte(int(a[i]) + rng.Intn(5) - 2)
	}
	if err := d.Write(0, a); err != nil { // warm the pool, the page, and the LUT
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		buf := a
		if i%2 == 1 {
			buf = b
		}
		i++
		if err := d.Write(0, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.5 {
		t.Errorf("steady-state MLC commitPage allocates %.2f objects per op, want ~0", allocs)
	}
}

// TestCommitPageSteadyStateAllocs pins the zero-allocation property of the
// steady-state commit path with the batch kernels engaged. The buffer pool
// may be refilled by the GC mid-measurement, so a small tolerance is
// allowed instead of demanding exactly zero.
func TestCommitPageSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; allocation counts are meaningless")
	}
	d := newApproxDevice(t, 255)
	spec := d.Flash().Spec()
	rng := xrand.New(11)
	a := make([]byte, spec.PageSize)
	b := make([]byte, spec.PageSize)
	for i := range a {
		a[i] = rng.Byte()
		b[i] = byte(int(a[i]) + rng.Intn(5) - 2)
	}
	if err := d.Write(0, a); err != nil { // warm the pool and the page
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		buf := a
		if i%2 == 1 {
			buf = b
		}
		i++
		if err := d.Write(0, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.5 {
		t.Errorf("steady-state commitPage allocates %.2f objects per op, want ~0", allocs)
	}
}
