package kvs

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/isc"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// scanSpec returns the IndexSpec the scan tests use: records carry their
// status bucket in val[0] and region in val[1].
func scanSpec(maxKeys int) IndexSpec {
	return IndexSpec{
		MaxKeys: maxKeys,
		Fields: []IndexField{
			{Name: "status", Buckets: 4, Extract: func(_ string, v []byte) int {
				if len(v) < 1 {
					return -1
				}
				return int(v[0]) % 4
			}},
			{Name: "region", Buckets: 3, Extract: func(_ string, v []byte) int {
				if len(v) < 2 {
					return -1
				}
				return int(v[1]) % 3
			}},
		},
	}
}

func newScanStore(t *testing.T) (*Store, *core.Device) {
	t.Helper()
	spec := flash.DefaultSpec()
	spec.PageSize = 128
	spec.NumPages = 32
	spec.Banks = 2 // keeps the bitmap stride (and the carve) small
	dev := core.MustNewDevice(spec)
	s, err := Open(dev, WithScanIndex(scanSpec(64)))
	if err != nil {
		t.Fatal(err)
	}
	if !s.ScanIndexed() {
		t.Fatal("scan index did not come up on a core device")
	}
	return s, dev
}

// randScanPred draws a predicate over the status/region schema.
func randScanPred(rng *xrand.RNG) isc.Pred {
	leaf := func() isc.Pred {
		if rng.Intn(2) == 0 {
			return isc.Eq("status", rng.Intn(4))
		}
		return isc.Eq("region", rng.Intn(3))
	}
	switch rng.Intn(5) {
	case 0:
		return leaf()
	case 1:
		return isc.Not(leaf())
	case 2:
		return isc.And(leaf(), leaf())
	case 3:
		return isc.Or(leaf(), leaf(), leaf())
	default:
		return isc.And(isc.Or(leaf(), leaf()), isc.Not(leaf()))
	}
}

func sameKVs(t *testing.T, tag string, got, want []KV) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, host oracle has %d", tag, len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || !bytes.Equal(got[i].Val, want[i].Val) {
			t.Fatalf("%s: result %d = %q/%v, want %q/%v",
				tag, i, got[i].Key, got[i].Val, want[i].Key, want[i].Val)
		}
	}
}

// TestScanMatchesHostScan: under a churning workload — updates moving keys
// between buckets, deletes, GC passes, remounts — every indexed scan must
// return exactly what the read-everything host scan returns, while never
// reading the bitmap pages.
func TestScanMatchesHostScan(t *testing.T) {
	s, dev := newScanStore(t)
	rng := xrand.New(0x5CA9)
	keys := make([]string, 20)
	for i := range keys {
		keys[i] = fmt.Sprintf("dev%02d", i)
	}
	val := func() []byte {
		v := make([]byte, 2+rng.Intn(20))
		for i := range v {
			v[i] = rng.Byte()
		}
		return v
	}
	// Stats reset on remount; fold them so the end-of-test assertions see
	// the whole run.
	var scans, fallbacks, falsePos, compactions uint64
	fold := func() {
		st := s.Stats()
		scans += st.Scans
		fallbacks += st.ScanFallbacks
		falsePos += st.ScanFalsePositives
		compactions += st.Compactions
	}
	for step := 0; step < 600; step++ {
		k := keys[rng.Intn(len(keys))]
		switch rng.Intn(10) {
		case 0:
			if err := s.Delete(k); err != nil {
				t.Fatalf("step %d: delete: %v", step, err)
			}
		case 9:
			fold()
			var err error
			s, err = Open(dev, WithScanIndex(scanSpec(64)))
			if err != nil {
				t.Fatalf("step %d: remount: %v", step, err)
			}
			if !s.ScanIndexed() {
				t.Fatalf("step %d: index gone after remount", step)
			}
		default:
			if err := s.Put(k, val()); err != nil {
				t.Fatalf("step %d: put: %v", step, err)
			}
		}
		if step%10 != 0 {
			continue
		}
		p := randScanPred(rng)
		got, err := s.Scan(p)
		if err != nil {
			t.Fatalf("step %d: scan %s: %v", step, p, err)
		}
		want, err := s.ScanHost(p)
		if err != nil {
			t.Fatalf("step %d: host scan %s: %v", step, p, err)
		}
		sameKVs(t, fmt.Sprintf("step %d %s", step, p), got, want)
	}
	fold()
	if compactions == 0 {
		t.Error("workload never triggered GC; the stale-bit path went unexercised")
	}
	if scans == 0 || fallbacks != 0 {
		t.Errorf("scans %d indexed, %d fallbacks; want all indexed", scans, fallbacks)
	}
	if falsePos == 0 {
		t.Error("no stale-bit false positives despite updates and deletes")
	}
}

// TestScanFallbackWithoutExtension: on a backend that cannot sense, scans
// must silently take the host path with identical results.
func TestScanFallbackWithoutExtension(t *testing.T) {
	spec := flash.DefaultSpec()
	spec.PageSize = 128
	spec.NumPages = 32
	spec.Banks = 2
	dev := core.MustNewDevice(spec)
	// plainBackend's method set is exactly Backend: the extension methods
	// of the wrapped coreBackend are hidden from type assertions.
	type plainBackend struct{ Backend }
	s, err := OpenOn(plainBackend{coreBackend{dev}}, WithScanIndex(scanSpec(64)))
	if err != nil {
		t.Fatal(err)
	}
	if s.ScanIndexed() {
		t.Fatal("index claims to be live on a backend without the extension")
	}
	for i := 0; i < 12; i++ {
		if err := s.Put(fmt.Sprintf("k%02d", i), []byte{byte(i), byte(i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	p := isc.Eq("status", 1)
	got, err := s.Scan(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.ScanHost(p)
	if err != nil {
		t.Fatal(err)
	}
	sameKVs(t, "fallback", got, want)
	if got[0].Val[0]%4 != 1 {
		t.Fatalf("fallback scan returned a non-matching record: %v", got[0].Val)
	}
	if s.Stats().ScanFallbacks == 0 {
		t.Error("fallback scans not counted")
	}
}

// TestScanIndexOverflowDegrades: more keys than slots must disable the
// index — results stay exact via the host path, writes never fail.
func TestScanIndexOverflowDegrades(t *testing.T) {
	spec := flash.DefaultSpec()
	spec.PageSize = 128
	spec.NumPages = 32
	spec.Banks = 2
	dev := core.MustNewDevice(spec)
	s, err := Open(dev, WithScanIndex(scanSpec(4)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%02d", i), []byte{byte(i), 0, 0}); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if s.ScanIndexed() {
		t.Fatal("index still live past its slot capacity")
	}
	if s.Stats().ScanIndexDisabled == 0 {
		t.Error("degradation not counted")
	}
	got, err := s.Scan(isc.Eq("status", 2))
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.ScanHost(isc.Eq("status", 2))
	if err != nil {
		t.Fatal(err)
	}
	sameKVs(t, "overflow", got, want)
}

// TestScanIndexMaintenanceEraseFree: steady-state index maintenance (Puts,
// updates, deletes) must never erase index pages — only mounts reset the
// region.
func TestScanIndexMaintenanceEraseFree(t *testing.T) {
	s, dev := newScanStore(t)
	for i := 0; i < 40; i++ {
		// Updates that move the key between buckets leave stale bits
		// instead of rewriting bitmaps.
		if err := s.Put("hot", []byte{byte(i), byte(i), 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Data-log GC may erase data pages; assert the index region (which
	// starts where the data pages end) specifically: one erase per bitmap
	// payload page, from the mount-time reset only — 7 buckets of one
	// 8-byte chunk each — and none of the bank-alignment padding.
	erased := 0
	for p := s.np; p < dev.Flash().Spec().NumPages; p++ {
		switch w := dev.Flash().Wear(p); w {
		case 0:
		case 1:
			erased++
		default:
			t.Errorf("index page %d wear %d, want at most 1", p, w)
		}
	}
	if erased != 7 {
		t.Errorf("%d index pages erased, want the 7 payload pages", erased)
	}
}

// BenchmarkScanIndexed measures one pushdown scan over a populated store.
func BenchmarkScanIndexed(b *testing.B) {
	spec := flash.DefaultSpec()
	spec.PageSize = 128
	spec.NumPages = 64
	spec.Banks = 2
	dev := core.MustNewDevice(spec)
	s, err := Open(dev, WithScanIndex(scanSpec(64)))
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(9)
	for i := 0; i < 40; i++ {
		if err := s.Put(fmt.Sprintf("dev%02d", i), []byte{rng.Byte(), rng.Byte(), 0, 0}); err != nil {
			b.Fatal(err)
		}
	}
	p := isc.And(isc.Eq("status", 1), isc.Not(isc.Eq("region", 2)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Scan(p); err != nil {
			b.Fatal(err)
		}
	}
}
