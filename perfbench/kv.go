package main

import (
	"fmt"
	"time"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/isc"
	"github.com/flipbit-sim/flipbit/internal/kvs"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

const (
	kvPageSize = 4096
	kvKeyLen   = 7 // "k%06d"
	scanField  = "v0"
)

// kvConfig describes one key-value workload.
type kvConfig struct {
	keys, valSize, banks int
	// dataPages is the log size; 0 sizes it at 1.6× the live set, the
	// kvscale geometry, so compaction runs inline with Puts.
	dataPages int
	// Op mix in percent; what remains after Put, Get and Delete is Scan.
	putPct, getPct, delPct int
	// hotOpPct of the ops go to the first hotKeyPct of the keys (0: uniform).
	hotKeyPct, hotOpPct int
	// scanBuckets arms a scan index with one field of that many buckets,
	// taken from the first value byte (0: no index).
	scanBuckets int
	// warmupPuts overwrite keys, with the workload's skew, after the
	// populate and before measuring, so the log has wrapped and
	// compaction is in its steady state when timing starts.
	warmupPuts int

	prefixOps       int // deterministic prefix the device metrics cover
	rebootEvery     int // reboot every this many ops (0: once, after the prefix)
	mountsPerReboot int // back-to-back mounts per reboot
	setupReps       int // set-ups timed per run; setup_s is their median
	checkSample     int // keys re-read after every mount
}

// kvChurn: GC-heavy Put/Get/Delete churn on a store whose live set fills
// 62% of its log.
var kvChurn = kvConfig{
	keys: 100_000, valSize: 128, banks: 1,
	putPct: 45, getPct: 50, delPct: 5, hotKeyPct: 10, hotOpPct: 90, warmupPuts: 80_000,
	prefixOps: 150_000, mountsPerReboot: 3, setupReps: 3, checkSample: 256,
}

// kvScanReboot: reads and predicate scans beside writes on a store far
// below capacity, remounted every 2000 ops.
var kvScanReboot = kvConfig{
	keys: 5000, valSize: 64, banks: 4, dataPages: 512,
	putPct: 30, getPct: 60, scanBuckets: 100, warmupPuts: 10_000,
	prefixOps: 60_000, rebootEvery: 2000, mountsPerReboot: 1, setupReps: 9, checkSample: 256,
}

// kvWorkload is a mounted store plus the model the oracle checks it against.
type kvWorkload struct {
	cfg   *kvConfig
	dev   *core.Device
	opts  []kvs.Option
	store *kvs.Store
	rec   *recorder // nil in the untraced run

	names []string
	model [][]byte // last value written per key; nil = absent
	// byBucket tracks which keys hold which first-value-byte bucket, so
	// a scan's expected set is the union of the buckets it matches.
	byBucket []map[int]struct{}
	gen, chk *xrand.RNG
	retired  []kvs.Stats // stats of stores replaced by remounts

	// Tallies for the per-layer ledger.
	puts, gets, scans, mounts, gcPuts int
	userBytes, scanResults            int
}

func (c *kvConfig) geometry() (spec flash.Spec, slotPages int) {
	recSize := 5 + kvKeyLen + c.valSize + 4
	dataPages := c.dataPages
	if dataPages == 0 {
		dataPages = c.keys*recSize*8/5/kvPageSize + 1
	}
	// Checkpoint blob: header + page table + one entry per key + CRC,
	// with a spare page of slack.
	blob := 30 + dataPages*13 + c.keys*(10+kvKeyLen) + 4
	slotPages = blob/kvPageSize + 2
	np := dataPages + 2*slotPages
	if c.scanBuckets > 0 {
		np += c.indexConfig().Pages()
	}
	np = (np + c.banks - 1) / c.banks * c.banks
	spec = flash.DefaultSpec()
	spec.PageSize = kvPageSize
	spec.NumPages = np
	spec.Banks = c.banks
	return spec, slotPages
}

// indexConfig is the bitmap region the store carves for its scan index.
func (c *kvConfig) indexConfig() isc.IndexConfig {
	return isc.IndexConfig{
		PageSize: kvPageSize, Banks: c.banks, MaxSensePages: flash.DefaultMaxSensePages,
		Slots: 2 * c.keys, Fields: []isc.Field{{Name: scanField, Buckets: c.scanBuckets}},
	}
}

func (c *kvConfig) options(slotPages int) []kvs.Option {
	opts := []kvs.Option{
		kvs.WithCompaction(kvs.CompactionConfig{TriggerFreePages: 4, MaxGarbageRatio: 0.45}),
		kvs.WithCheckpoint(kvs.CheckpointConfig{SlotPages: slotPages, Interval: c.keys / 2}),
	}
	if n := c.scanBuckets; n > 0 {
		opts = append(opts, kvs.WithScanIndex(kvs.IndexSpec{
			MaxKeys: 2 * c.keys,
			Fields: []kvs.IndexField{{Name: scanField, Buckets: n, Extract: func(_ string, v []byte) int {
				if len(v) == 0 {
					return -1
				}
				return int(v[0]) % n
			}}},
		}))
	}
	return opts
}

// newKV builds the device, mounts the store and populates every key: the
// workload's set-up.
func newKV(cfg *kvConfig, seed uint64, rec *recorder) (*kvWorkload, error) {
	spec, slotPages := cfg.geometry()
	var copts []core.Option
	if rec != nil {
		copts = append(copts, core.WithObserver(rec))
	}
	dev, err := core.NewDevice(spec, copts...)
	if err != nil {
		return nil, err
	}
	w := &kvWorkload{
		cfg: cfg, dev: dev, opts: cfg.options(slotPages), rec: rec,
		names: make([]string, cfg.keys), model: make([][]byte, cfg.keys),
		gen: xrand.New(seed*0x9E3779B97F4A7C15 + 1), chk: xrand.New(seed*0x9E3779B97F4A7C15 + 2),
	}
	if cfg.scanBuckets > 0 {
		w.byBucket = make([]map[int]struct{}, cfg.scanBuckets)
		for b := range w.byBucket {
			w.byBucket[b] = map[int]struct{}{}
		}
	}
	if w.store, err = w.open(); err != nil {
		return nil, err
	}
	fill := xrand.New(seed*0x9E3779B97F4A7C15 + 3)
	for k := range w.names {
		w.names[k] = fmt.Sprintf("k%06d", k)
		v := w.newValue(fill)
		if err := w.store.Put(w.names[k], v); err != nil {
			return nil, fmt.Errorf("populate %s: %w", w.names[k], err)
		}
		w.setModel(k, v)
	}
	for i := 0; i < cfg.warmupPuts; i++ {
		k := w.pickKey(fill)
		v := w.newValue(fill)
		if err := w.store.Put(w.names[k], v); err != nil {
			return nil, fmt.Errorf("warm-up put %s: %w", w.names[k], err)
		}
		w.setModel(k, v)
	}
	return w, nil
}

// open mounts the store: through kvs.Open untraced, and through the
// tracing backend otherwise.
func (w *kvWorkload) open() (*kvs.Store, error) {
	if w.rec == nil {
		return kvs.Open(w.dev, w.opts...)
	}
	return kvs.OpenOn(tracedBackend{dev: w.dev, rec: w.rec}, w.opts...)
}

func (w *kvWorkload) newValue(r *xrand.RNG) []byte {
	v := make([]byte, w.cfg.valSize)
	for i := 0; i < len(v); i += 8 {
		x := r.Uint64()
		for j := 0; j < 8 && i+j < len(v); j++ {
			v[i+j] = byte(x >> (8 * j))
		}
	}
	if n := w.cfg.scanBuckets; n > 0 {
		v[0] = byte(r.Intn(n))
	}
	return v
}

func (w *kvWorkload) setModel(k int, v []byte) {
	if w.byBucket != nil {
		if old := w.model[k]; old != nil {
			delete(w.byBucket[int(old[0])%w.cfg.scanBuckets], k)
		}
		if v != nil {
			w.byBucket[int(v[0])%w.cfg.scanBuckets][k] = struct{}{}
		}
	}
	w.model[k] = v
}

func (w *kvWorkload) pickKey(r *xrand.RNG) int {
	n := w.cfg.keys
	if w.cfg.hotKeyPct == 0 {
		return r.Intn(n)
	}
	hot := max(1, n*w.cfg.hotKeyPct/100)
	if r.Intn(100) < w.cfg.hotOpPct {
		return r.Intn(hot)
	}
	return hot + r.Intn(n-hot)
}

// scanPred picks 1-5 buckets, about 1-5% of the keys, and asks for them
// either with In or as Not(In(every other bucket)).
func (w *kvWorkload) scanPred() isc.Pred {
	n := w.cfg.scanBuckets
	perm := w.gen.Perm(n)
	k := 1 + w.gen.Intn(5)
	if w.gen.Intn(2) == 0 {
		return isc.In(scanField, perm[:k]...)
	}
	return isc.Not(isc.In(scanField, perm[k:]...))
}

func (w *kvWorkload) flash() *flash.Device { return w.dev.Flash() }
func (w *kvWorkload) spaceAmp() float64    { return w.store.SpaceAmplification() }

func (w *kvWorkload) totals() totals {
	fl := w.dev.Flash()
	return totals{
		Flash: fl.Stats(), Core: w.dev.Stats(),
		KVS:  append(append([]kvs.Stats(nil), w.retired...), w.store.Stats()),
		Wear: fl.WearSnapshot(),
	}
}

func (w *kvWorkload) op(m *meter) {
	c := w.cfg
	r := w.gen.Intn(100)
	k := w.pickKey(w.gen)
	name := w.names[k]
	fl := w.dev.Flash()
	switch {
	case r < c.putPct:
		v := w.newValue(w.gen)
		m.fp.Write(v)
		var busy0 time.Duration
		if m.prefix {
			busy0 = fl.Stats().Busy
		}
		comp0 := w.store.Stats().Compactions
		var err error
		dt := w.rec.timed(spanPut, func() { err = w.store.Put(name, v) })
		m.opDone(dt)
		m.writeHost = append(m.writeHost, us(dt))
		if m.prefix {
			m.writeDevUs = append(m.writeDevUs, us(fl.Stats().Busy-busy0))
		}
		w.puts++
		w.userBytes += len(name) + len(v)
		if w.store.Stats().Compactions != comp0 {
			w.gcPuts++
		}
		if err != nil {
			m.fail("put %s: %v", name, err)
			return
		}
		w.setModel(k, v)
	case r < c.putPct+c.getPct:
		m.fp.Write([]byte(name))
		var got []byte
		var err error
		dt := w.rec.timed(spanGet, func() { got, err = w.store.Get(name) })
		m.opDone(dt)
		m.readHost = append(m.readHost, us(dt))
		w.gets++
		if err := checkGet(name, got, err, w.model[k]); err != nil {
			m.fail("%v", err)
		}
	case r < c.putPct+c.getPct+c.delPct:
		m.fp.Write([]byte{'-'})
		var err error
		m.opDone(w.rec.timed(spanDelete, func() { err = w.store.Delete(name) }))
		w.userBytes += len(name)
		if err != nil {
			m.fail("delete %s: %v", name, err)
			return
		}
		w.setModel(k, nil)
	default:
		p := w.scanPred()
		fmt.Fprint(m.fp, p)
		var got []kvs.KV
		var err error
		m.opDone(w.rec.timed(spanScan, func() { got, err = w.store.Scan(p) }))
		w.scans++
		if err != nil {
			m.fail("scan %v: %v", p, err)
			return
		}
		w.scanResults += len(got)
		if err := checkScan(got, w.scanWant(p)); err != nil {
			m.fail("%v: %v", p, err)
		}
	}
}

// scanWant is the model filtered by the predicate.
func (w *kvWorkload) scanWant(p isc.Pred) map[string][]byte {
	want := map[string][]byte{}
	for b, keys := range w.byBucket {
		if !isc.Eval(p, func(string) int { return b }) {
			continue
		}
		for k := range keys {
			want[w.names[k]] = w.model[k]
		}
	}
	return want
}

func (w *kvWorkload) reboot(m *meter) {
	w.retired = append(w.retired, w.store.Stats())
	var s *kvs.Store
	var err error
	m.mountDone(w.rec.timed(spanMount, func() { s, err = w.open() }))
	w.mounts++
	if err != nil {
		m.fail("remount: %v", err)
		return // keep issuing ops against the old handle; each will be checked
	}
	w.store = s
	m.checked(w.dev.Flash(), func() {
		i := w.rec.begin(spanCheck)
		defer w.rec.end(i)
		for j := 0; j < w.cfg.checkSample; j++ {
			k := w.chk.Intn(w.cfg.keys)
			got, err := s.Get(w.names[k])
			if err := checkGet(w.names[k], got, err, w.model[k]); err != nil {
				m.fail("after remount: %v", err)
			}
		}
	})
}
