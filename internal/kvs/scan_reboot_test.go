package kvs

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/isc"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// scanRig is a store with a scan index and checkpoints on a core device,
// rebooted by remounting with the rig's options, plus the model its scans
// are checked against.
type scanRig struct {
	t         *testing.T
	dev       *core.Device
	spec      IndexSpec
	slotPages int
	interval  int
	s         *Store
	model     map[string][]byte
	rng       *xrand.RNG
}

// newScanRig mounts a rig on a 256-byte-page, 2-bank device: with
// scanSpec's 7 buckets and at most 64 slots the index takes 14 pages (7
// payload, 7 padding).
func newScanRig(t *testing.T, spec IndexSpec, slotPages, interval int, seed uint64) *scanRig {
	t.Helper()
	fs := flash.DefaultSpec()
	fs.PageSize = 256
	fs.NumPages = 64
	fs.Banks = 2
	r := &scanRig{
		t: t, dev: core.MustNewDevice(fs), spec: spec, slotPages: slotPages, interval: interval,
		model: map[string][]byte{}, rng: xrand.New(seed),
	}
	r.s = r.open()
	if !r.s.ScanIndexed() {
		t.Fatal("scan index did not come up")
	}
	return r
}

func (r *scanRig) open() *Store {
	r.t.Helper()
	s, err := Open(r.dev,
		WithScanIndex(r.spec),
		WithCheckpoint(CheckpointConfig{SlotPages: r.slotPages, Interval: r.interval}),
		WithCompaction(CompactionConfig{}))
	if err != nil {
		r.t.Fatalf("mount: %v", err)
	}
	return s
}

func (r *scanRig) value() []byte {
	v := make([]byte, 2+r.rng.Intn(9))
	for i := range v {
		v[i] = r.rng.Byte()
	}
	return v
}

func (r *scanRig) put(k string) {
	r.t.Helper()
	v := r.value()
	if err := r.s.Put(k, v); err != nil {
		r.t.Fatalf("put %s: %v", k, err)
	}
	r.model[k] = v
}

func (r *scanRig) del(k string) {
	r.t.Helper()
	if err := r.s.Delete(k); err != nil {
		r.t.Fatalf("delete %s: %v", k, err)
	}
	delete(r.model, k)
}

// indexWear sums the erase counts of the index region.
func (r *scanRig) indexWear() uint64 {
	var w uint64
	for p := r.s.np; p < r.s.np+r.s.scanIdx.ix.Pages(); p++ {
		w += uint64(r.dev.Flash().Wear(p))
	}
	return w
}

// reboot remounts and reports whether the mount rebuilt the index and how
// many index-region pages it erased.
func (r *scanRig) reboot() (rebuilt bool, erases uint64) {
	r.t.Helper()
	w0 := r.indexWear()
	r.s = r.open()
	return r.s.Stats().ScanIndexRebuilds > 0, r.indexWear() - w0
}

// staleBelowTrigger reports whether the live store's bitmaps sit at or
// under the mount-time rebuild trigger (every rig value buckets in every
// field).
func (r *scanRig) staleBelowTrigger() bool {
	want := len(r.model) * len(r.spec.Fields)
	return (r.s.scanIdx.ix.Members()-want)*100 <= want*staleRebuildPct
}

// checkScans asserts Scan ≡ ScanHost ≡ model on a fixed set of predicates
// plus a few random ones.
func (r *scanRig) checkScans(tag string) {
	r.t.Helper()
	preds := []isc.Pred{
		isc.Eq("status", 0), isc.Eq("status", 1), isc.Eq("status", 2), isc.Eq("status", 3),
		isc.Not(isc.In("region", 0, 2)),
		isc.And(isc.In("status", 1, 2), isc.Not(isc.Eq("region", 1))),
	}
	for i := 0; i < 3; i++ {
		preds = append(preds, randScanPred(r.rng))
	}
	for _, p := range preds {
		got, err := r.s.Scan(p)
		if err != nil {
			r.t.Fatalf("%s: scan %s: %v", tag, p, err)
		}
		host, err := r.s.ScanHost(p)
		if err != nil {
			r.t.Fatalf("%s: host scan %s: %v", tag, p, err)
		}
		sameKVs(r.t, fmt.Sprintf("%s %s", tag, p), got, host)
		var want []KV
		for _, k := range sortedKeys(r.model) {
			v := r.model[k]
			if isc.Eval(p, func(field string) int {
				for _, f := range r.spec.Fields {
					if f.Name == field {
						return f.Extract(k, v)
					}
				}
				return -1
			}) {
				want = append(want, KV{Key: k, Val: v})
			}
		}
		sameKVs(r.t, fmt.Sprintf("%s %s vs model", tag, p), got, want)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// slotRuns returns the run count of the slot table the live store would
// checkpoint now.
func (r *scanRig) slotRuns() int {
	return int(leU32(r.s.scanIdx.appendSlotTable(nil, r.s.Keys())[8:]))
}

// TestScanIndexPersistsAcrossReboots: across random Put/Delete/new-key
// runs with reboots, Scan ≡ ScanHost ≡ model always holds, and a mount
// keeps the in-flash bitmaps exactly when it should — a checkpoint mount
// with a usable slot table below the stale trigger erases no index page
// and counts no rebuild; everything else rebuilds.
func TestScanIndexPersistsAcrossReboots(t *testing.T) {
	keyName := func(i int) string { return fmt.Sprintf("key%02d", i) }

	t.Run("table", func(t *testing.T) {
		r := newScanRig(t, scanSpec(64), 6, 0, 0x7AB1E)
		for i := 0; i < 20; i++ {
			r.put(keyName(r.rng.Intn(40)))
		}
		kept, staleRebuilds := 0, 0
		for round := 0; round < 40; round++ {
			for i := 0; i < 5+r.rng.Intn(20); i++ {
				k := keyName(r.rng.Intn(40))
				if r.rng.Intn(6) == 0 {
					r.del(k)
				} else {
					r.put(k)
				}
			}
			r.checkScans(fmt.Sprintf("round %d", round))
			// Checkpoint before most reboots; the rest replay a tail.
			if r.rng.Intn(4) != 0 {
				if err := r.s.Checkpoint(); err != nil {
					t.Fatalf("round %d: checkpoint: %v", round, err)
				}
			}
			below := r.staleBelowTrigger()
			rebuilt, erases := r.reboot()
			st := r.s.Stats()
			if st.CheckpointMounts != 1 {
				t.Fatalf("round %d: not a checkpoint mount: %+v", round, st)
			}
			switch {
			case below && rebuilt:
				t.Fatalf("round %d: rebuilt below the stale trigger", round)
			case !below && !rebuilt:
				t.Fatalf("round %d: kept the bitmaps past the stale trigger", round)
			case rebuilt:
				staleRebuilds++
				if erases != 7 {
					t.Fatalf("round %d: rebuild erased %d index pages, want the 7 payload pages", round, erases)
				}
				if runs := r.slotRuns(); runs != 1 {
					t.Fatalf("round %d: rebuilt slot table has %d runs, want 1", round, runs)
				}
			default:
				kept++
				if erases != 0 {
					t.Fatalf("round %d: kept index but erased %d index pages", round, erases)
				}
			}
			r.checkScans(fmt.Sprintf("round %d after reboot", round))
		}
		if kept < 10 || staleRebuilds == 0 {
			t.Fatalf("%d mounts kept the index, %d rebuilt it for staleness; want both paths exercised", kept, staleRebuilds)
		}
	})

	t.Run("table omitted", func(t *testing.T) {
		// Pick a key count, key-name padding and slot size where the blob
		// fits its slot with no room for even a one-run slot table (14
		// bytes): every checkpoint then goes without it.
		n, pad, sp := 0, 0, 0
	search:
		for n = 20; n <= 40; n++ {
			for pad = 0; pad < 8; pad++ {
				for sp = 2; sp < 8; sp++ {
					np := 64 - 14 - 2*sp
					base := ckptHdrSize + np*ckptPageSize + crcSize + n*(ckptKeyFixed+5+pad)
					if base <= sp*256 && base+14 > sp*256 {
						break search
					}
				}
			}
		}
		if n > 40 {
			t.Fatal("no geometry leaves the slot table out")
		}
		r := newScanRig(t, scanSpec(64), sp, 0, 0x0417)
		var names []string
		for _, i := range r.rng.Perm(n) {
			names = append(names, fmt.Sprintf("key%02d%s", i, "xxxxxxx"[:pad]))
		}
		for _, k := range names {
			r.put(k)
		}
		for round := 0; round < 6; round++ {
			for i := 0; i < 10; i++ {
				r.put(names[r.rng.Intn(len(names))])
			}
			if err := r.s.Checkpoint(); err != nil {
				t.Fatalf("round %d: checkpoint: %v", round, err)
			}
			if rebuilt, erases := r.reboot(); !rebuilt || erases != 7 || r.s.Stats().CheckpointMounts != 1 {
				t.Fatalf("round %d: rebuilt=%v erases=%d stats %+v; want a checkpoint mount that rebuilds",
					round, rebuilt, erases, r.s.Stats())
			}
			r.checkScans(fmt.Sprintf("round %d", round))
		}
	})

	t.Run("geometry change", func(t *testing.T) {
		r := newScanRig(t, scanSpec(64), 6, 0, 0x6E0)
		for i := 0; i < 30; i++ {
			r.put(keyName(i))
		}
		if err := r.s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		// Same region size, different buckets per field: the digest
		// differs, so the table must not be trusted.
		swapped := scanSpec(64)
		swapped.Fields[0].Buckets, swapped.Fields[1].Buckets = 3, 4
		swapped.Fields[0].Extract = func(_ string, v []byte) int { return int(v[0]) % 3 }
		swapped.Fields[1].Extract = func(_ string, v []byte) int { return int(v[1]) % 4 }
		for _, step := range []struct {
			name    string
			spec    IndexSpec
			rebuild bool
		}{
			{"buckets swapped", swapped, true},
			{"same again", swapped, false},
			{"fewer slots", func() IndexSpec { s := swapped; s.MaxKeys = 60; return s }(), true},
			{"original", scanSpec(64), true},
			{"original again", scanSpec(64), false},
		} {
			r.spec = step.spec
			rebuilt, erases := r.reboot()
			if rebuilt != step.rebuild || r.s.Stats().CheckpointMounts != 1 {
				t.Fatalf("%s: rebuilt=%v (want %v), stats %+v", step.name, rebuilt, step.rebuild, r.s.Stats())
			}
			if !rebuilt && erases != 0 {
				t.Fatalf("%s: kept index but erased %d pages", step.name, erases)
			}
			r.checkScansAgainstHost(step.name)
			for i := 0; i < 10; i++ {
				r.put(keyName(r.rng.Intn(30)))
			}
		}
	})

	t.Run("degraded session", func(t *testing.T) {
		// A session whose index degraded (forced here, as a failed
		// program would) commits Puts without bits; a mount from the
		// last checkpoint must re-add every key its tail replay touched.
		r := newScanRig(t, scanSpec(64), 6, 0, 0xDE6)
		for i := 0; i < 30; i++ {
			r.put(keyName(i))
		}
		if err := r.s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		r.s.scanIdx.disabled = true
		for i := 0; i < 30; i++ {
			r.put(keyName(r.rng.Intn(34)))
		}
		if rebuilt, erases := r.reboot(); rebuilt || erases != 0 {
			t.Fatalf("rebuilt=%v erases=%d; want the table kept", rebuilt, erases)
		}
		r.checkScans("after a degraded session")
	})

	t.Run("slot exhaustion", func(t *testing.T) {
		// 24 slots for a pool of 60 names with at most 16 live: deleted
		// keys keep their slots until a rebuild, so new names exhaust the
		// table — in session (index disabled, host scans) and at mount
		// (rebuild renumbers).
		r := newScanRig(t, scanSpec(24), 6, 0, 0xE4A)
		next := 0
		fallbacks, rebuilds := uint64(0), 0
		for round := 0; round < 30; round++ {
			for i := 0; i < 4; i++ {
				if len(r.model) >= 16 {
					r.del(sortedKeys(r.model)[r.rng.Intn(len(r.model))])
				}
				r.put(keyName(next % 60))
				next++
			}
			r.checkScans(fmt.Sprintf("round %d", round))
			fallbacks += r.s.Stats().ScanFallbacks
			if r.rng.Intn(2) == 0 {
				if err := r.s.Checkpoint(); err != nil {
					t.Fatalf("round %d: checkpoint: %v", round, err)
				}
			}
			if rebuilt, _ := r.reboot(); rebuilt {
				rebuilds++
			}
			if !r.s.ScanIndexed() {
				t.Fatalf("round %d: index down after mount with %d live keys", round, len(r.model))
			}
			r.checkScans(fmt.Sprintf("round %d after reboot", round))
		}
		if rebuilds == 0 {
			t.Fatal("slot exhaustion never forced a rebuild")
		}
	})
}

// checkScansAgainstHost asserts Scan ≡ ScanHost on predicates whose
// buckets (0–2) exist under both the original and the swapped spec.
func (r *scanRig) checkScansAgainstHost(tag string) {
	r.t.Helper()
	for b := 0; b < 3; b++ {
		for _, p := range []isc.Pred{isc.Eq("status", b), isc.Not(isc.Eq("region", b))} {
			got, err := r.s.Scan(p)
			if err != nil {
				r.t.Fatalf("%s: scan %s: %v", tag, p, err)
			}
			host, err := r.s.ScanHost(p)
			if err != nil {
				r.t.Fatalf("%s: host scan %s: %v", tag, p, err)
			}
			sameKVs(r.t, fmt.Sprintf("%s %s", tag, p), got, host)
		}
	}
}

// TestScanIndexPowerLossSweep: power loss at each point of a run of Puts,
// Deletes, GC passes and checkpoints — densely around a Put that
// checkpoints, and across a mount-time rebuild — never leaves the index
// short: after remount, Scan ≡ ScanHost on a fixed set of predicates, and
// every acknowledged value is visible through Scan. Every scenario starts
// from the same seed, so a dry run measures how many state-changing
// operations (programmed bytes and erases) there are to crash in.
func TestScanIndexPowerLossSweep(t *testing.T) {
	preds := []isc.Pred{
		isc.Eq("status", 0), isc.Eq("status", 1), isc.Eq("status", 2), isc.Eq("status", 3),
		isc.Not(isc.In("region", 0, 2)), isc.And(isc.In("status", 1, 2), isc.Not(isc.Eq("region", 1))),
	}
	newRig := func(t *testing.T, interval int) *scanRig {
		r := newScanRig(t, scanSpec(64), 6, interval, 0xC4A5)
		for i := 0; i < 24; i++ {
			r.put(fmt.Sprintf("key%02d", i))
		}
		return r
	}
	stateOps := func(r *scanRig) int {
		st := r.dev.Flash().Stats()
		return int(st.Programs + st.Erases)
	}
	// workload runs n seeded Puts and Deletes, stopping at a power loss;
	// it returns the op in flight then (value nil for a Delete).
	workload := func(t *testing.T, r *scanRig, n int) (inflight string, inflightVal []byte) {
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("key%02d", r.rng.Intn(30))
			var err error
			var v []byte
			if r.rng.Intn(8) == 0 {
				err = r.s.Delete(k)
			} else {
				v = r.value()
				err = r.s.Put(k, v)
			}
			switch {
			case err == nil && v == nil:
				delete(r.model, k)
			case err == nil:
				r.model[k] = v
			case errors.Is(err, flash.ErrPowerLoss):
				return k, v
			default:
				t.Fatalf("op %d on %s: %v", i, k, err)
			}
		}
		return "", nil
	}
	// verify checks the remounted store against the acknowledged model;
	// the op in flight at the crash may have landed or not.
	verify := func(t *testing.T, r *scanRig, inflight string, inflightVal []byte) {
		t.Helper()
		for _, p := range preds {
			got, err := r.s.Scan(p)
			if err != nil {
				t.Fatalf("scan %s: %v", p, err)
			}
			host, err := r.s.ScanHost(p)
			if err != nil {
				t.Fatalf("host scan %s: %v", p, err)
			}
			sameKVs(t, p.String(), got, host)
		}
		seen := map[string][]byte{}
		for b := 0; b < 4; b++ {
			got, err := r.s.Scan(isc.Eq("status", b))
			if err != nil {
				t.Fatal(err)
			}
			for _, kv := range got {
				seen[kv.Key] = kv.Val
			}
		}
		same := func(got []byte, ok bool, want []byte, wok bool) bool {
			return ok == wok && bytes.Equal(got, want)
		}
		for _, k := range append(sortedKeys(seen), sortedKeys(r.model)...) {
			got, ok := seen[k]
			want, wok := r.model[k]
			if same(got, ok, want, wok) || (k == inflight && same(got, ok, inflightVal, inflightVal != nil)) {
				continue
			}
			t.Fatalf("%s through Scan = %v (present %v), acknowledged %v (present %v)", k, got, ok, want, wok)
		}
	}
	crashAt := func(t *testing.T, r *scanRig, fault int, do func() (string, []byte)) {
		t.Helper()
		r.dev.Flash().InjectPowerLoss(fault)
		inflight, val := do()
		r.dev.Flash().ClearFaults()
		if inflight == "" {
			t.Fatal("power loss never fired")
		}
		r.reboot()
		verify(t, r, inflight, val)
	}

	t.Run("workload", func(t *testing.T) {
		// 12 appends per checkpoint; GC runs as the log wraps.
		dry := newRig(t, 12)
		o := stateOps(dry)
		workload(t, dry, 150)
		n := stateOps(dry) - o
		if dry.s.Stats().Compactions == 0 || dry.s.Stats().Checkpoints == 0 {
			t.Fatalf("workload never ran GC or a checkpoint: %+v", dry.s.Stats())
		}
		for fault := 0; fault < n; fault += max(1, n/150) {
			t.Run(fmt.Sprintf("fault-%d", fault), func(t *testing.T) {
				r := newRig(t, 12)
				crashAt(t, r, fault, func() (string, []byte) { return workload(t, r, 150) })
			})
		}
	})

	t.Run("checkpointing put", func(t *testing.T) {
		// Every append checkpoints: crash at each of the first and last
		// operations of one Put, including just after its checkpoint —
		// which already holds the record — has committed.
		put := func(t *testing.T, r *scanRig) (string, []byte) {
			v := []byte{3, 2, 9}
			if r.model["key05"][0]%4 == 3 {
				v[0] = 2
			}
			if err := r.s.Put("key05", v); err != nil {
				if errors.Is(err, flash.ErrPowerLoss) {
					return "key05", v
				}
				t.Fatal(err)
			}
			r.model["key05"] = v
			return "", nil
		}
		dry := newRig(t, 1)
		o := stateOps(dry)
		put(t, dry)
		n := stateOps(dry) - o
		for fault := 0; fault < n; fault++ {
			if fault == 40 && n > 80 {
				fault = n - 40
			}
			t.Run(fmt.Sprintf("fault-%d", fault), func(t *testing.T) {
				r := newRig(t, 1)
				crashAt(t, r, fault, func() (string, []byte) { return put(t, r) })
			})
		}
	})

	t.Run("rebuilding mount", func(t *testing.T) {
		// Push the stale members past the trigger and checkpoint; the
		// next mount rebuilds (revoke, erase, re-add, checkpoint). Crash
		// it across its operations, then mount again.
		stale := func(t *testing.T) *scanRig {
			r := newRig(t, 0)
			for i := 0; i < 1000 && r.staleBelowTrigger(); i++ {
				r.put(fmt.Sprintf("key%02d", r.rng.Intn(30)))
			}
			if r.staleBelowTrigger() {
				t.Fatal("updates did not push the index past the stale trigger")
			}
			if err := r.s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			return r
		}
		dry := stale(t)
		o := stateOps(dry)
		if rebuilt, _ := dry.reboot(); !rebuilt {
			t.Fatal("mount past the trigger kept the index")
		}
		n := stateOps(dry) - o
		for fault := 0; fault < n; fault += max(1, n/100) {
			t.Run(fmt.Sprintf("fault-%d", fault), func(t *testing.T) {
				r := stale(t)
				crashAt(t, r, fault, func() (string, []byte) {
					_, err := Open(r.dev,
						WithScanIndex(r.spec),
						WithCheckpoint(CheckpointConfig{SlotPages: r.slotPages, Interval: r.interval}),
						WithCompaction(CompactionConfig{}))
					if !errors.Is(err, flash.ErrPowerLoss) {
						t.Fatalf("rebuilding mount: %v", err)
					}
					return "mount", nil
				})
			})
		}
	})
}
