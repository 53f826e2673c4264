package ftl

import (
	"fmt"
	"slices"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// levelWearOracle is the leveling check as a per-page scan: a fresh
// WearSnapshot and a Degraded/AtRating lock round-trip for every mapped
// page, for every touched page. It is the reference the snapshot-based
// levelWear must match decision for decision. It returns the cold page it
// swapped hot with, or -1.
func levelWearOracle(f *FTL, hot int) (int, error) {
	fl := f.dev.Flash()
	snap := fl.WearSnapshot()
	cold := -1
	var coldW uint32
	for _, pp := range f.l2p {
		if fl.Degraded(pp) || fl.AtRating(pp) {
			continue
		}
		if cold < 0 || snap[pp] < coldW {
			cold, coldW = pp, snap[pp]
		}
	}
	if cold < 0 || hot == cold || fl.Degraded(hot) || fl.AtRating(hot) || snap[hot]-coldW < f.swapDelta {
		return -1, nil
	}
	if f.journaled {
		return cold, f.journalSwap(hot, cold)
	}
	return cold, f.swap(hot, cold)
}

// writeOracle is Write with levelWearOracle run once per touched page. It
// returns the swaps it completed as (hot, cold) pairs.
func writeOracle(f *FTL, laddr int, data []byte) ([][2]int, error) {
	if err := f.writePages(laddr, data); err != nil {
		return nil, err
	}
	var swaps [][2]int
	for _, hot := range f.touched {
		cold, err := levelWearOracle(f, hot)
		if err != nil {
			return swaps, err
		}
		if cold >= 0 {
			swaps = append(swaps, [2]int{hot, cold})
		}
	}
	return swaps, nil
}

// opRec is an op event without the fields that alias device buffers.
type opRec struct {
	kind       flash.OpKind
	bank, addr int
	bytes      int
	value      byte
	programmed string
	energy     float64
}

// opLog records every flash op event in delivery order.
type opLog struct{ ops []opRec }

func (l *opLog) OnOp(e flash.OpEvent) {
	r := opRec{kind: e.Kind, bank: e.Bank, addr: e.Addr, bytes: e.Bytes, value: e.Value,
		energy: float64(e.Energy)}
	if e.Data != nil {
		r.programmed = string(e.Data)
	}
	l.ops = append(l.ops, r)
}

// levelSpec is a two-bank device whose endurance rating is low enough for
// the fixture to drive pages to it and past it.
func levelSpec() flash.Spec {
	s := flash.DefaultSpec()
	s.PageSize = 64
	s.NumPages = 48
	s.Banks = 2
	s.EnduranceCycles = 1000
	return s
}

// levelRig is one side of the differential test: a device, its FTL and the
// log of every flash op it issued.
type levelRig struct {
	dev *core.Device
	f   *FTL
	log *opLog
}

func newLevelRig(t *testing.T, journaled bool) *levelRig {
	t.Helper()
	dev := core.MustNewDevice(levelSpec(), core.WithHealthGate())
	r := &levelRig{dev: dev, log: &opLog{}}
	r.f = r.mount(t, journaled)
	// Random pre-wear on the data region, a few pages driven exactly to
	// the rating and a few past it. Two unworn mapped pages are fenced at
	// the flash layer: they are the coldest pages on the device, and
	// leveling must never pick them.
	fl := dev.Flash()
	rng := xrand.New(0x1E7E1)
	rating := int(fl.Spec().EnduranceCycles)
	fenced := []int{5, 17} // physical pages; the fresh map is the identity
	for pp := 0; pp < r.f.dataEnd(); pp++ {
		n := 1 + rng.Intn(64)
		switch {
		case slices.Contains(fenced, pp):
			n = 0
		case pp%13 == 3:
			n = rating
		case pp%13 == 9:
			n = rating + 1
		}
		for i := 0; i < n; i++ {
			_ = fl.ErasePage(pp) // past the rating the erase reports ErrWornOut
		}
	}
	for _, pp := range fenced {
		if err := fl.Retire(pp); err != nil {
			t.Fatal(err)
		}
	}
	var dead, atRating int
	for pp := 0; pp < r.f.dataEnd(); pp++ {
		if fl.WornOut(pp) {
			dead++
		} else if fl.AtRating(pp) {
			atRating++
		}
	}
	if dead == 0 || atRating == 0 {
		t.Fatalf("fixture holds %d dead and %d at-rating pages, want both", dead, atRating)
	}
	fl.Attach(r.log)
	return r
}

func (r *levelRig) mount(t *testing.T, journaled bool) *FTL {
	t.Helper()
	opts := []Option{WithSwapDelta(8), WithSpares(10)}
	if !journaled {
		return New(r.dev, opts...)
	}
	f, err := Open(r.dev, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestLevelWearMatchesPerPageScan: the snapshot-based leveling must make
// exactly the decisions of the per-page scan it replaced — same swaps in
// the same order, same map, same FTL and flash stats, same wear and same
// flash op stream — on both a volatile and a journaled FTL, over random
// multi-page writes onto a device with dead, retired and at-rating pages.
func TestLevelWearMatchesPerPageScan(t *testing.T) {
	for _, journaled := range []bool{false, true} {
		t.Run(fmt.Sprintf("journaled=%v", journaled), func(t *testing.T) {
			oracle, snap := newLevelRig(t, journaled), newLevelRig(t, journaled)
			ps := oracle.f.PageSize()
			rng := xrand.New(0x5EED)
			var swaps, multiSwapWrites, failed int
			const rounds = 400
			for round := 0; round < rounds; round++ {
				if round == rounds/2 && journaled {
					// Remount both: leveling must agree on a recovered map too.
					oracle.f, snap.f = oracle.mount(t, true), snap.mount(t, true)
				}
				size := oracle.f.NumPages() * ps
				n := 1 + rng.Intn(6*ps)
				laddr := rng.Intn(size - n + 1)
				data := make([]byte, n)
				for i := range data {
					data[i] = rng.Byte()
				}

				oracle.log.ops, snap.log.ops = oracle.log.ops[:0], snap.log.ops[:0]
				before := oracle.f.Stats().Swaps
				want, werr := writeOracle(oracle.f, laddr, data)
				gerr := snap.f.Write(laddr, data)
				if fmt.Sprint(werr) != fmt.Sprint(gerr) {
					t.Fatalf("round %d: oracle err %v, snapshot err %v", round, werr, gerr)
				}
				if werr != nil {
					failed++
				}
				got := snap.f.Stats().Swaps - before
				if uint64(len(want)) != oracle.f.Stats().Swaps-before || got != uint64(len(want)) {
					t.Fatalf("round %d: oracle swapped %v, snapshot made %d swaps", round, want, got)
				}
				swaps += len(want)
				if len(want) > 1 {
					multiSwapWrites++
				}
				if !slices.Equal(oracle.log.ops, snap.log.ops) {
					t.Fatalf("round %d: flash op streams differ (%d vs %d ops) around swaps %v",
						round, len(oracle.log.ops), len(snap.log.ops), want)
				}
				if !slices.Equal(oracle.f.l2p, snap.f.l2p) || !slices.Equal(oracle.f.p2l, snap.f.p2l) {
					t.Fatalf("round %d: maps differ after swaps %v", round, want)
				}
				if oracle.f.Stats() != snap.f.Stats() {
					t.Fatalf("round %d: ftl stats\noracle   %+v\nsnapshot %+v", round, oracle.f.Stats(), snap.f.Stats())
				}
			}

			ofl, sfl := oracle.dev.Flash(), snap.dev.Flash()
			if ofl.Stats() != sfl.Stats() {
				t.Errorf("flash stats\noracle   %+v\nsnapshot %+v", ofl.Stats(), sfl.Stats())
			}
			if !slices.Equal(ofl.WearSnapshot(), sfl.WearSnapshot()) {
				t.Error("wear arrays differ")
			}
			// The run must have exercised what it claims to cover: many
			// swaps, several inside one write, and pages retired by the
			// FTL beyond the two the fixture fenced.
			retired := ofl.Stats().Retirements - 2
			t.Logf("%d swaps, %d writes with several swaps, %d retirements, %d of %d writes failed",
				swaps, multiSwapWrites, retired, failed, rounds)
			if swaps < 100 || multiSwapWrites < 20 || retired == 0 || failed > rounds/4 {
				t.Errorf("weak run: %d swaps, %d multi-swap writes, %d retirements, %d failed writes",
					swaps, multiSwapWrites, retired, failed)
			}
		})
	}
}

// frameRig is a journaled FTL over a fully approximate 512-page device
// with 256-byte pages, holding cold random pages, and a set of 64×64 W8
// frames (4 KiB, 16 pages each) that differ by sensor noise and a moving
// object.
func frameRig(tb testing.TB, opts ...Option) (*FTL, [][]byte) {
	tb.Helper()
	spec := flash.DefaultSpec()
	spec.NumPages = 512
	dev := core.MustNewDevice(spec)
	if err := dev.SetApproxRegion(0, spec.Size()); err != nil {
		tb.Fatal(err)
	}
	dev.SetThreshold(2)
	f, err := Open(dev, append([]Option{WithSpares(8)}, opts...)...)
	if err != nil {
		tb.Fatal(err)
	}
	rng := xrand.New(42)
	const frameBytes = 4096
	page := make([]byte, f.PageSize())
	for lp := frameBytes / f.PageSize(); lp < f.NumPages(); lp++ {
		for i := range page {
			page[i] = rng.Byte()
		}
		if err := f.Write(lp*f.PageSize(), page); err != nil {
			tb.Fatal(err)
		}
	}
	bg := make([]byte, frameBytes)
	for i := range bg {
		bg[i] = byte(40 + i%64 + rng.Intn(24))
	}
	frames := make([][]byte, 8)
	for n := range frames {
		fr := make([]byte, frameBytes)
		for i, v := range bg {
			fr[i] = v + byte(rng.Intn(5)) - 2
		}
		// A bright 16×16 object at a different spot in every frame: the
		// pixels it leaves need upward moves no approximation covers.
		x, y := rng.Intn(48), rng.Intn(48)
		for dy := 0; dy < 16; dy++ {
			for dx := 0; dx < 16; dx++ {
				fr[(y+dy)*64+x+dx] = 230
			}
		}
		frames[n] = fr
	}
	return f, frames
}

// TestWriteSteadyStateAllocs: a 16-page frame write whose leveling check
// finds no swap due allocates nothing — the touched list, the health
// snapshot and the coldest-page scan all run in FTL-owned buffers.
func TestWriteSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; allocation counts are meaningless")
	}
	f, frames := frameRig(t, WithSwapDelta(1<<30))
	n := 0
	write := func() {
		if err := f.Write(0, frames[n%len(frames)]); err != nil {
			t.Fatal(err)
		}
		n++
	}
	for i := 0; i < 2*len(frames); i++ {
		write()
	}
	erases := f.dev.Flash().Stats().Erases
	if allocs := testing.AllocsPerRun(100, write); allocs != 0 {
		t.Errorf("steady-state frame write allocates %.1f times, want 0", allocs)
	}
	if f.Stats().Swaps != 0 {
		t.Errorf("%d swaps with leveling disabled", f.Stats().Swaps)
	}
	if f.dev.Flash().Stats().Erases == erases {
		t.Error("measured writes never erased: the write path was not exercised")
	}
}

// TestWriteSwapAllocs: frame writes at the default swap threshold, where
// about every other write levels wear with a journaled swap, allocate
// nothing — the intent record, the checkpoint image and its read-back all
// live in buffers sized once by Open.
func TestWriteSwapAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; allocation counts are meaningless")
	}
	f, frames := frameRig(t)
	n := 0
	write := func() {
		if err := f.Write(0, frames[n%len(frames)]); err != nil {
			t.Fatal(err)
		}
		n++
	}
	for i := 0; i < 2*len(frames); i++ {
		write()
	}
	before := f.Stats()
	if allocs := testing.AllocsPerRun(100, write); allocs != 0 {
		t.Errorf("swapping frame write allocates %.2f times, want 0", allocs)
	}
	after := f.Stats()
	if after.Swaps-before.Swaps < 10 || after.Checkpoints == before.Checkpoints {
		t.Errorf("measured writes made %d swaps and %d checkpoints: the swap path was not exercised",
			after.Swaps-before.Swaps, after.Checkpoints-before.Checkpoints)
	}
}

// TestLevelingStopsAtWornScratch drives a journaled FTL until the swap
// scratch page, which every journaled swap erases, reaches its endurance
// rating. From then on leveling must skip swaps instead of failing the
// write, the scratch page must take no further erase, and a remount must
// find every logical page intact.
func TestLevelingStopsAtWornScratch(t *testing.T) {
	s := flash.DefaultSpec()
	s.PageSize = 64
	s.NumPages = 48
	s.EnduranceCycles = 200
	dev := core.MustNewDevice(s)
	f, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	fl := dev.Flash()
	want := make([][]byte, f.NumPages())
	for lp := range want {
		want[lp] = make([]byte, f.PageSize())
		for i := range want[lp] {
			want[lp][i] = byte(lp + i)
		}
		if err := f.Write(lp*f.PageSize(), want[lp]); err != nil {
			t.Fatal(err)
		}
	}
	// Alternate page 0 between two images that each need an erase, so it
	// runs hot and leveling keeps swapping it through the scratch page.
	hot := [2][]byte{make([]byte, f.PageSize()), make([]byte, f.PageSize())}
	for i := range hot[1] {
		hot[1][i] = 0xFF
	}
	writes := 0
	for ; !fl.AtRating(f.lay.spare); writes++ {
		if writes == 100000 {
			t.Fatal("the scratch page never reached its rating")
		}
		if err := f.Write(0, hot[writes%2]); err != nil {
			t.Fatalf("write %d (scratch wear %d): %v", writes, fl.Wear(f.lay.spare), err)
		}
	}
	swaps, scratchWear := f.Stats().Swaps, fl.Wear(f.lay.spare)
	for i := 0; i < 50; i++ {
		if err := f.Write(0, hot[writes%2]); err != nil {
			t.Fatalf("write %d after the scratch page reached its rating: %v", writes, err)
		}
		writes++
	}
	if f.Stats().Swaps != swaps || fl.Wear(f.lay.spare) != scratchWear {
		t.Errorf("%d swaps and %d scratch erases after the scratch page reached its rating, want none",
			f.Stats().Swaps-swaps, fl.Wear(f.lay.spare)-scratchWear)
	}
	want[0] = hot[(writes-1)%2]
	g, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, g.PageSize())
	for lp := range want {
		if err := g.Read(lp*g.PageSize(), got); err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want[lp]) {
			t.Fatalf("logical page %d after remount: % x, want % x", lp, got, want[lp])
		}
	}
}

// BenchmarkFTLWrite measures a 4 KiB approximate frame written in place
// through a journaled FTL at the default swap threshold — the device
// commit, the wear-leveling check and the occasional journaled swap.
func BenchmarkFTLWrite(b *testing.B) {
	f, frames := frameRig(b)
	b.SetBytes(int64(len(frames[0])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Write(0, frames[i%len(frames)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(f.Stats().Swaps)*1000/float64(b.N), "swaps/kframe")
}
