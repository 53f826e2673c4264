package kvs

import (
	"fmt"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// Churn geometry for the Put/Get benchmarks: the kvscale layout cut to 10k
// keys — 7-byte keys, 128-byte values, 4 KiB pages on one bank, a log of
// 1.6× the live set, compaction {4, 0.45} and a checkpoint every keys/2
// appends — with 90% of the traffic on 10% of the keys.
const (
	benchKeys   = 10_000
	benchValLen = 128
	benchWarmup = 8_000 // skewed overwrites before timing, so the log has wrapped
)

// benchChurn is a store in compaction steady state plus the inputs the
// timed loop draws from.
type benchChurn struct {
	s    *Store
	keys []string
	vals [][]byte
	rng  *xrand.RNG
}

// pick returns a key index with the 90/10 skew.
func (c *benchChurn) pick() int {
	hot := benchKeys / 10
	if c.rng.Intn(100) < 90 {
		return c.rng.Intn(hot)
	}
	return hot + c.rng.Intn(benchKeys-hot)
}

func newBenchChurn(b testing.TB) *benchChurn {
	b.Helper()
	const ps = 4096
	recSize := recHeaderSize + 7 + benchValLen + crcSize
	dataPages := benchKeys*recSize*8/5/ps + 1
	slotPages := (30+dataPages*13+benchKeys*(10+7)+4)/ps + 2
	spec := flash.DefaultSpec()
	spec.PageSize = ps
	spec.NumPages = dataPages + 2*slotPages
	spec.Banks = 1
	s, err := Open(core.MustNewDevice(spec),
		WithCompaction(CompactionConfig{TriggerFreePages: 4, MaxGarbageRatio: 0.45}),
		WithCheckpoint(CheckpointConfig{SlotPages: slotPages, Interval: benchKeys / 2}))
	if err != nil {
		b.Fatal(err)
	}
	c := &benchChurn{s: s, keys: make([]string, benchKeys), vals: make([][]byte, 64), rng: xrand.New(7)}
	for i := range c.vals {
		c.vals[i] = make([]byte, benchValLen)
		for j := range c.vals[i] {
			c.vals[i][j] = c.rng.Byte()
		}
	}
	for i := range c.keys {
		c.keys[i] = fmt.Sprintf("k%06d", i)
		if err := s.Put(c.keys[i], c.vals[i%len(c.vals)]); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < benchWarmup; i++ {
		if err := s.Put(c.keys[c.pick()], c.vals[i%len(c.vals)]); err != nil {
			b.Fatal(err)
		}
	}
	if s.Compactions() == 0 {
		b.Fatal("warm-up never compacted: the log has not wrapped")
	}
	return c
}

// BenchmarkKVSPut: one skewed Put per op on a store whose GC runs inline.
func BenchmarkKVSPut(b *testing.B) {
	c := newBenchChurn(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.s.Put(c.keys[c.pick()], c.vals[i%len(c.vals)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKVSGet: one skewed Get per op on the same steady-state store.
func BenchmarkKVSGet(b *testing.B) {
	c := newBenchChurn(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.s.Get(c.keys[c.pick()]); err != nil {
			b.Fatal(err)
		}
	}
}
