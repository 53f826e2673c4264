package kvs

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// indexWalk is the victim-key walk GC made before per-page key lists: every
// indexed key whose record lies on page p, in sorted order.
func indexWalk(s *Store, p int) []string {
	keys := make([]string, 0)
	for k, loc := range s.index {
		if loc.page == p {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// forceIndexWalk refills every page's key list of s with every indexed key,
// so the filter in keysOnPage degenerates to indexWalk: the store then
// picks its GC keys exactly as it did before per-page lists existed.
func forceIndexWalk(s *Store) {
	all := make([]string, 0, len(s.index))
	for k := range s.index {
		all = append(all, k)
	}
	for p := range s.pageKeys {
		s.pageKeys[p] = slices.Clone(all)
	}
}

// opLog records a flash op stream, each event with its page images folded
// into a string so events compare with ==.
type opLog struct{ ops []loggedOp }

type loggedOp struct {
	ev         flash.OpEvent
	data, prev string
}

func (l *opLog) OnOp(ev flash.OpEvent) {
	op := loggedOp{data: string(ev.Data), prev: string(ev.Prev)}
	ev.Data, ev.Prev = nil, nil
	op.ev = ev
	l.ops = append(l.ops, op)
}

// gcRig is one store on its own device, with its flash op stream recorded.
type gcRig struct {
	dev *core.Device
	log opLog
	s   *Store
}

const (
	gcRigPages     = 56 // 40 data pages + two 8-page checkpoint slots
	gcRigSlotPages = 8
)

func newGCRig(t *testing.T) *gcRig {
	spec := flash.DefaultSpec()
	spec.PageSize = 256
	spec.NumPages = gcRigPages
	spec.Banks = 2
	r := &gcRig{dev: core.MustNewDevice(spec)}
	r.dev.Flash().Attach(&r.log)
	r.mount(t, false)
	return r
}

func (r *gcRig) mount(t *testing.T, scanOnly bool) {
	s, err := Open(r.dev,
		WithCompaction(CompactionConfig{TriggerFreePages: 4, MaxGarbageRatio: 0.4}),
		WithCheckpoint(CheckpointConfig{SlotPages: gcRigSlotPages, Interval: 60, ScanOnly: scanOnly}))
	if err != nil {
		t.Fatal(err)
	}
	r.s = s
}

// clearHeaderBits clears bits in the first header byte of page p: on a free
// page the next open finds its header zone dirty and quarantines it; on an
// in-use page two cleared bits are beyond single-bit repair, so the next
// mount quarantines the page.
func (r *gcRig) clearHeaderBits(t *testing.T, p int, mask byte) {
	f := r.dev.Flash()
	addr := r.s.pageBase(p)
	if err := f.ProgramByte(addr, f.Peek(addr)&^mask); err != nil {
		t.Fatal(err)
	}
}

// TestPageKeyListsMatchIndexWalk: GC driven by the per-page key lists must
// do exactly what the full-index walk did. Two stores take the same random
// Put/Delete churn under proactive compaction, checkpoint and full-scan
// remounts, quarantined pages and compactions cut short by ErrFull; the
// oracle store is forced to the index walk before every step. After every
// step the errors, kvs.Stats, flash op streams, indexes and page accounting
// must agree, and every page's key list must equal the index walk.
func TestPageKeyListsMatchIndexWalk(t *testing.T) {
	got, want := newGCRig(t), newGCRig(t)
	rng := xrand.New(0x9A6E)
	keys := make([]string, 90)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%03d", i)
	}
	// An append that runs out of pages fails with ErrFull, or with
	// ErrDeviceReadOnly once quarantined pages hold the free pool.
	full := func(err error) bool { return errors.Is(err, ErrFull) || errors.Is(err, ErrDeviceReadOnly) }
	var partial, ckptMounts, scanMounts, quarantined, fullErrs int
	var compactions uint64
	for step := 0; step < 4000; step++ {
		forceIndexWalk(want.s)
		got.log.ops, want.log.ops = got.log.ops[:0], want.log.ops[:0]
		var gerr, werr error
		op := "put"
		switch r := rng.Intn(100); {
		case r < 70:
			k := keys[rng.Intn(len(keys))]
			v := make([]byte, 8+rng.Intn(40))
			for i := range v {
				v[i] = rng.Byte()
			}
			gerr, werr = got.s.Put(k, v), want.s.Put(k, v)
		case r < 85:
			op = "delete"
			k := keys[rng.Intn(len(keys))]
			gerr, werr = got.s.Delete(k), want.s.Delete(k)
		case r < 87:
			// Dirty the header zone of every usable free page, then
			// compact the fullest in-use page: its copies overflow the head,
			// the next open finds no clean page, and the compaction stops
			// with ErrFull after copying only part of the victim.
			op = "compact-into-full"
			for p := 0; p < got.s.np; p++ {
				if got.s.usableFree(p) {
					got.clearHeaderBits(t, p, 0x01)
					want.clearHeaderBits(t, p, 0x01)
				}
			}
			victim, most := -1, 0
			for p := 0; p < got.s.np; p++ {
				if n := len(indexWalk(got.s, p)); p != got.s.head && got.s.pageSeq[p] != freeSeq && n > most {
					victim, most = p, n
				}
			}
			if victim < 0 {
				continue
			}
			before := len(got.s.keysOnPage(victim))
			gerr, werr = got.s.compactPage(victim), want.s.compactPage(victim)
			if after := len(got.s.keysOnPage(victim)); full(gerr) && after > 0 && after < before {
				partial++
			}
		case r < 91:
			// Damage an in-use page's header beyond repair; the next
			// mount quarantines it (and drops its entries).
			op = "damage-header"
			p := rng.Intn(got.s.np)
			if got.s.pageSeq[p] == freeSeq || got.s.pageBad[p] {
				continue
			}
			got.clearHeaderBits(t, p, 0x11)
			want.clearHeaderBits(t, p, 0x11)
		case r < 95:
			op = "remount"
			compactions += got.s.Stats().Compactions
			scanOnly := rng.Intn(3) == 0
			got.mount(t, scanOnly)
			want.mount(t, scanOnly)
			if got.s.Stats().CheckpointMounts > 0 {
				ckptMounts++
			} else {
				scanMounts++
			}
			quarantined += int(got.s.Stats().QuarantinedPages)
		default:
			op = "checkpoint"
			gerr, werr = got.s.Checkpoint(), want.s.Checkpoint()
		}
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("step %d %s: error %v, index walk %v", step, op, gerr, werr)
		}
		if full(gerr) {
			fullErrs++
		} else if gerr != nil {
			t.Fatalf("step %d %s: %v", step, op, gerr)
		}
		if got.s.Stats() != want.s.Stats() {
			t.Fatalf("step %d %s: kvs stats\nlists %+v\nwalk  %+v", step, op, got.s.Stats(), want.s.Stats())
		}
		if !slices.EqualFunc(got.log.ops, want.log.ops, func(a, b loggedOp) bool {
			ea, eb := a.ev, b.ev
			return a.data == b.data && a.prev == b.prev &&
				ea.Kind == eb.Kind && ea.Bank == eb.Bank && ea.Seq == eb.Seq && ea.Addr == eb.Addr &&
				ea.Bytes == eb.Bytes && ea.Pages == eb.Pages && ea.Value == eb.Value &&
				ea.Energy == eb.Energy && ea.Busy == eb.Busy
		}) {
			t.Fatalf("step %d %s: flash op streams differ (%d vs %d ops)", step, op, len(got.log.ops), len(want.log.ops))
		}
		if !maps.Equal(got.s.index, want.s.index) {
			t.Fatalf("step %d %s: indexes differ", step, op)
		}
		if !slices.Equal(got.s.pageSeq, want.s.pageSeq) || !slices.Equal(got.s.pageUsed, want.s.pageUsed) ||
			!slices.Equal(got.s.pageLive, want.s.pageLive) || !slices.Equal(got.s.pageBad, want.s.pageBad) ||
			got.s.head != want.s.head || got.s.nextSeq != want.s.nextSeq {
			t.Fatalf("step %d %s: page accounting differs", step, op)
		}
		for p := 0; p < got.s.np; p++ {
			if l, w := got.s.keysOnPage(p), indexWalk(got.s, p); !slices.Equal(l, w) {
				t.Fatalf("step %d %s: page %d key list %q, index walk %q", step, op, p, l, w)
			}
		}
	}
	compactions += got.s.Stats().Compactions
	t.Logf("%d compactions, %d cut short with part of the victim copied, %d checkpoint and %d scan mounts, %d quarantined pages seen at mount, %d full errors",
		compactions, partial, ckptMounts, scanMounts, quarantined, fullErrs)
	if compactions < 200 || partial < 10 || ckptMounts < 20 || scanMounts < 10 || quarantined < 5 {
		t.Errorf("weak run: %d compactions, %d partial, %d checkpoint mounts, %d scan mounts, %d quarantined",
			compactions, partial, ckptMounts, scanMounts, quarantined)
	}
}
