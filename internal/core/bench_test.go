package core

import (
	"sync/atomic"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// Commit-path micro-benchmarks: the per-page session cost bounds how fast
// the workload experiments can run.

func benchDevice(b *testing.B, threshold float64) (*Device, []byte, []byte) {
	b.Helper()
	spec := flash.DefaultSpec()
	spec.NumPages = 16
	d := MustNewDevice(spec)
	if err := d.SetApproxRegion(0, spec.Size()); err != nil {
		b.Fatal(err)
	}
	d.SetThreshold(threshold)
	rng := xrand.New(9)
	a := make([]byte, spec.PageSize)
	c := make([]byte, spec.PageSize)
	for i := range a {
		a[i] = rng.Byte()
		c[i] = byte(int(a[i]) + rng.Intn(5) - 2) // near neighbour
	}
	return d, a, c
}

// BenchmarkApproxCommit measures a page session that commits erase-free.
func BenchmarkApproxCommit(b *testing.B) {
	d, a, c := benchDevice(b, 255) // always approximate
	if err := d.Write(0, a); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := a
		if i%2 == 1 {
			buf = c
		}
		if err := d.Write(0, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWritePathKernel measures the end-to-end approximate commit with
// the batch encode kernels engaged (the default path on SLC).
func BenchmarkWritePathKernel(b *testing.B) {
	benchWritePath(b, false)
}

// BenchmarkWritePathScalar is the same workload forced onto the per-value
// reference encode path; the delta against BenchmarkWritePathKernel is the
// kernels' end-to-end impact.
func BenchmarkWritePathScalar(b *testing.B) {
	benchWritePath(b, true)
}

func benchWritePath(b *testing.B, scalar bool) {
	b.Helper()
	spec := flash.DefaultSpec()
	spec.NumPages = 16
	var opts []Option
	if scalar {
		opts = append(opts, WithScalarEncode())
	}
	d := MustNewDevice(spec, opts...)
	if err := d.SetApproxRegion(0, spec.Size()); err != nil {
		b.Fatal(err)
	}
	d.SetThreshold(255)
	rng := xrand.New(9)
	a := make([]byte, spec.PageSize)
	c := make([]byte, spec.PageSize)
	for i := range a {
		a[i] = rng.Byte()
		c[i] = byte(int(a[i]) + rng.Intn(5) - 2)
	}
	if err := d.Write(0, a); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(spec.PageSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := a
		if i%2 == 1 {
			buf = c
		}
		if err := d.Write(0, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWritePathConcurrent measures synchronous commits issued from
// b.RunParallel workers against a bank-sharded device — the contention
// profile of the sharded op-event bus. Run with -cpu=1,4 to see the
// single-core cost and the cross-bank scaling.
func BenchmarkWritePathConcurrent(b *testing.B) {
	spec := flash.DefaultSpec()
	spec.NumPages = 16
	d := MustNewDevice(spec)
	if err := d.SetApproxRegion(0, spec.Size()); err != nil {
		b.Fatal(err)
	}
	d.SetThreshold(255)
	rng := xrand.New(9)
	a := make([]byte, spec.PageSize)
	for i := range a {
		a[i] = rng.Byte()
	}
	for p := 0; p < spec.NumPages; p++ {
		if err := d.Write(d.Flash().PageBase(p), a); err != nil {
			b.Fatal(err)
		}
	}
	var next uint32
	b.SetBytes(int64(spec.PageSize))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Deal each worker its own page so workers map to banks
		// round-robin, like the writepath experiment.
		p := int(atomic.AddUint32(&next, 1)) % spec.NumPages
		for pb.Next() {
			if err := d.Write(d.Flash().PageBase(p), a); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExactCommit measures a page session that erases every time.
// Each op writes the next page in turn, alternating a page's image between
// a and its complement so every revisit erases; the device is rebuilt
// outside the timer long before any page nears its endurance rating, so
// the benchmark holds at any -benchtime.
func BenchmarkExactCommit(b *testing.B) {
	d, a, c := benchDevice(b, 0)
	for i := range c {
		c[i] = ^a[i] // force erases
	}
	spec := d.Flash().Spec()
	rebuild := int(spec.EnduranceCycles) / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, visit := i%spec.NumPages, i/spec.NumPages
		if p == 0 && visit > 0 && visit%rebuild == 0 {
			b.StopTimer()
			d, _, _ = benchDevice(b, 0)
			b.StartTimer()
		}
		buf := a
		if visit%2 == 1 {
			buf = c
		}
		if err := d.Write(p*spec.PageSize, buf); err != nil {
			b.Fatal(err)
		}
	}
}
