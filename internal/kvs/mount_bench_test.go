package kvs

import (
	"fmt"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
)

// benchMountDevice builds a populated, checkpointed store image once per
// benchmark: 100 keys written three times each (so GC has run and the log
// carries garbage), then a final checkpoint. extra options (a scan index)
// ride along.
func benchMountDevice(b *testing.B, extra ...Option) *core.Device {
	b.Helper()
	spec := flash.DefaultSpec()
	spec.PageSize = 1024
	spec.NumPages = 256
	dev := core.MustNewDevice(spec)
	s, err := Open(dev, append([]Option{
		WithCheckpoint(CheckpointConfig{SlotPages: 8}),
		WithCompaction(CompactionConfig{})}, extra...)...)
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 64)
	for round := 0; round < 3; round++ {
		for i := 0; i < 100; i++ {
			val[0], val[1] = byte(i), byte(round)
			if err := s.Put(fmt.Sprintf("key%04d", i), val); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := s.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	return dev
}

func benchMount(b *testing.B, scanOnly bool) {
	dev := benchMountDevice(b)
	s, err := Open(dev, WithCheckpoint(CheckpointConfig{SlotPages: 8, ScanOnly: scanOnly}))
	if err != nil {
		b.Fatal(err)
	}
	if !scanOnly && s.Stats().CheckpointMounts != 1 {
		b.Fatalf("mount stats = %+v, want checkpoint mount", s.Stats())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Open(dev, WithCheckpoint(CheckpointConfig{SlotPages: 8, ScanOnly: scanOnly})); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMountFullScan(b *testing.B)     { benchMount(b, true) }
func BenchmarkMountCheckpointed(b *testing.B) { benchMount(b, false) }

// BenchmarkMountCheckpointedScanIndex is the checkpointed mount with a
// scan index armed: the slot table in the checkpoint lets every mount
// adopt the bitmaps with reads instead of erasing and rebuilding them.
func BenchmarkMountCheckpointedScanIndex(b *testing.B) {
	spec := IndexSpec{MaxKeys: 128, Fields: []IndexField{{
		Name: "b0", Buckets: 8, Extract: func(_ string, v []byte) int { return int(v[0]) % 8 },
	}}}
	dev := benchMountDevice(b, WithScanIndex(spec))
	opts := []Option{WithCheckpoint(CheckpointConfig{SlotPages: 8}), WithScanIndex(spec)}
	s, err := Open(dev, opts...)
	if err != nil {
		b.Fatal(err)
	}
	if st := s.Stats(); st.CheckpointMounts != 1 || st.ScanIndexRebuilds != 0 || !s.ScanIndexed() {
		b.Fatalf("mount stats = %+v, want a checkpoint mount that keeps the index", st)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Open(dev, opts...); err != nil {
			b.Fatal(err)
		}
	}
}
