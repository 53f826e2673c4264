package core

import (
	"math"
	"sync"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/energy"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

func concSpec() flash.Spec {
	s := flash.DefaultSpec()
	s.PageSize = 32
	s.NumPages = 32
	s.Banks = 4
	return s
}

func newConcDevice(t testing.TB, spec flash.Spec, threshold float64) *Device {
	t.Helper()
	d := MustNewDevice(spec)
	if err := d.SetApproxRegion(0, spec.Size()); err != nil {
		t.Fatal(err)
	}
	d.SetThreshold(threshold)
	return d
}

// bankWorkload issues a deterministic sequence of page writes against the
// pages of one bank.
func bankWorkload(d *Device, bank, rounds int, seed uint64) {
	spec := d.Flash().Spec()
	rng := xrand.New(seed)
	var pages []int
	for p := 0; p < spec.NumPages; p++ {
		if d.Flash().BankOf(p) == bank {
			pages = append(pages, p)
		}
	}
	buf := make([]byte, spec.PageSize)
	for r := 0; r < rounds; r++ {
		p := pages[rng.Intn(len(pages))]
		for i := range buf {
			buf[i] = rng.Byte()
		}
		_ = d.Write(d.Flash().PageBase(p), buf)
	}
}

// TestShardedStatsPropertyMergedEqualsSerial is the tentpole's correctness
// property: for identical per-bank workloads, a concurrent run (one
// goroutine per bank) must report byte-identical merged and per-bank flash
// and controller stats (operation counts, energy joules, busy time) and
// controller MAE to a serial run. Several seeds and thresholds act as the
// property's sample space.
func TestShardedStatsPropertyMergedEqualsSerial(t *testing.T) {
	spec := concSpec()
	const rounds = 120
	for _, threshold := range []float64{0, 2, 8, 255} {
		for seed := uint64(1); seed <= 3; seed++ {
			serial := newConcDevice(t, spec, threshold)
			for b := 0; b < serial.Flash().Banks(); b++ {
				bankWorkload(serial, b, rounds, seed*100+uint64(b))
			}

			conc := newConcDevice(t, spec, threshold)
			var wg sync.WaitGroup
			for b := 0; b < conc.Flash().Banks(); b++ {
				wg.Add(1)
				go func(b int) {
					defer wg.Done()
					bankWorkload(conc, b, rounds, seed*100+uint64(b))
				}(b)
			}
			wg.Wait()

			if s, c := serial.Flash().Stats(), conc.Flash().Stats(); s != c {
				t.Errorf("threshold %v seed %d: flash stats differ\nserial     %+v\nconcurrent %+v",
					threshold, seed, s, c)
			}
			if s, c := serial.Stats(), conc.Stats(); s != c {
				t.Errorf("threshold %v seed %d: controller stats differ\nserial     %+v\nconcurrent %+v",
					threshold, seed, s, c)
			}
			for b := 0; b < spec.Banks; b++ {
				if s, c := serial.Flash().BankStats(b), conc.Flash().BankStats(b); s != c {
					t.Errorf("threshold %v seed %d: bank %d flash shard differs\nserial     %+v\nconcurrent %+v",
						threshold, seed, b, s, c)
				}
				if s, c := serial.BankStats(b), conc.BankStats(b); s != c {
					t.Errorf("threshold %v seed %d: bank %d controller shard differs\nserial     %+v\nconcurrent %+v",
						threshold, seed, b, s, c)
				}
			}
			if s, c := serial.Stats().MAE(), conc.Stats().MAE(); s != c {
				t.Errorf("threshold %v seed %d: MAE %v != %v", threshold, seed, s, c)
			}
			// The stored arrays must match too: same workload, same data.
			for addr := 0; addr < spec.Size(); addr++ {
				if serial.Flash().Peek(addr) != conc.Flash().Peek(addr) {
					t.Fatalf("threshold %v seed %d: array differs at %#x", threshold, seed, addr)
				}
			}
		}
	}
}

// pageWrite is one scripted page commit of a bank's workload.
type pageWrite struct {
	page int
	data []byte
}

// bankPlan scripts a deterministic sequence of page writes against the
// pages of one bank. The plan depends only on (spec, bank, seed), so the
// same per-bank sequences can be driven in any cross-bank order.
func bankPlan(spec flash.Spec, bank, rounds int, seed uint64) []pageWrite {
	rng := xrand.New(seed)
	var pages []int
	for p := 0; p < spec.NumPages; p++ {
		if p%spec.Banks == bank {
			pages = append(pages, p)
		}
	}
	plan := make([]pageWrite, rounds)
	for r := range plan {
		buf := make([]byte, spec.PageSize)
		for i := range buf {
			buf[i] = rng.Byte()
		}
		plan[r] = pageWrite{page: pages[rng.Intn(len(pages))], data: buf}
	}
	return plan
}

// TestAsyncStatsEquivalenceSerialConcurrentAsync: for identical per-bank
// write sequences, every cross-bank interleaving of Write — bank by bank,
// round-robin across banks from one goroutine (the order a single producer
// issues), and one goroutine per bank — must produce byte-identical merged
// and per-bank flash stats (counts, float energy, busy time), controller
// stats, and array contents. Only the per-bank order is fixed; the results
// must not depend on how banks interleave.
func TestAsyncStatsEquivalenceSerialConcurrentAsync(t *testing.T) {
	spec := concSpec()
	const rounds = 100
	for _, threshold := range []float64{0, 4, 255} {
		for seed := uint64(1); seed <= 2; seed++ {
			plans := make([][]pageWrite, spec.Banks)
			for b := range plans {
				plans[b] = bankPlan(spec, b, rounds, seed*100+uint64(b))
			}
			write := func(d *Device, pw pageWrite) {
				if err := d.Write(d.Flash().PageBase(pw.page), pw.data); err != nil {
					t.Errorf("write page %d: %v", pw.page, err)
				}
			}

			serial := newConcDevice(t, spec, threshold)
			for _, plan := range plans {
				for _, pw := range plan {
					write(serial, pw)
				}
			}

			roundRobin := newConcDevice(t, spec, threshold)
			for r := 0; r < rounds; r++ {
				for b := range plans {
					write(roundRobin, plans[b][r])
				}
			}

			conc := newConcDevice(t, spec, threshold)
			var wg sync.WaitGroup
			for b := range plans {
				wg.Add(1)
				go func(b int) {
					defer wg.Done()
					for _, pw := range plans[b] {
						write(conc, pw)
					}
				}(b)
			}
			wg.Wait()

			for _, m := range []struct {
				name string
				d    *Device
			}{{"round-robin", roundRobin}, {"concurrent", conc}} {
				if s, c := serial.Flash().Stats(), m.d.Flash().Stats(); s != c {
					t.Errorf("threshold %v seed %d %s: flash stats differ\nserial %+v\ngot    %+v",
						threshold, seed, m.name, s, c)
				}
				for b := 0; b < spec.Banks; b++ {
					if s, c := serial.Flash().BankStats(b), m.d.Flash().BankStats(b); s != c {
						t.Errorf("threshold %v seed %d %s: bank %d shard differs\nserial %+v\ngot    %+v",
							threshold, seed, m.name, b, s, c)
					}
				}
				if s, c := serial.Stats(), m.d.Stats(); s != c {
					t.Errorf("threshold %v seed %d %s: controller stats differ\nserial %+v\ngot    %+v",
						threshold, seed, m.name, s, c)
				}
				for addr := 0; addr < spec.Size(); addr++ {
					if serial.Flash().Peek(addr) != m.d.Flash().Peek(addr) {
						t.Fatalf("threshold %v seed %d %s: array differs at %#x",
							threshold, seed, m.name, addr)
					}
				}
			}
		}
	}
}

// TestConcurrentCommitsOverlappingBanks race-stresses the commit path: N
// goroutines writing pages across ALL banks (so bank commit locks are
// contended) must stay race-free, conserve page-decision counts, and keep
// integer stats consistent with the flash layer.
func TestConcurrentCommitsOverlappingBanks(t *testing.T) {
	spec := concSpec()
	d := newConcDevice(t, spec, 4)
	const workers = 8
	const perWorker = 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(900 + w))
			buf := make([]byte, spec.PageSize)
			for r := 0; r < perWorker; r++ {
				p := rng.Intn(spec.NumPages) // any page: banks overlap
				for i := range buf {
					buf[i] = rng.Byte()
				}
				if err := d.Write(d.Flash().PageBase(p), buf); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st := d.Stats()
	if st.PagesApprox+st.PagesExact != workers*perWorker {
		t.Errorf("page decisions not conserved: approx %d + exact %d != %d",
			st.PagesApprox, st.PagesExact, workers*perWorker)
	}
	// Every commit loads its page once: reads == commits * page size.
	fst := d.Flash().Stats()
	if want := uint64(workers * perWorker * spec.PageSize); fst.Reads != want {
		t.Errorf("flash reads = %d, want %d", fst.Reads, want)
	}
	// Per-bank shards sum to the merged totals.
	var sum Stats
	for b := 0; b < d.Flash().Banks(); b++ {
		sum.add(d.BankStats(b))
	}
	if sum != st {
		t.Errorf("shard sum %+v != merged %+v", sum, st)
	}
}

// TestConcurrentWritesDisjointPagesPreserveData: concurrent exact writers
// on disjoint pages must land exactly their own bytes.
func TestConcurrentWritesDisjointPagesPreserveData(t *testing.T) {
	spec := concSpec()
	d := MustNewDevice(spec) // approximation disabled: every byte exact
	const workers = 8
	pagesPer := spec.NumPages / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(3000 + w))
			buf := make([]byte, spec.PageSize)
			for round := 0; round < 40; round++ {
				p := w*pagesPer + rng.Intn(pagesPer)
				for i := range buf {
					buf[i] = rng.Byte()
				}
				if err := d.Write(d.Flash().PageBase(p), buf); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				got := make([]byte, spec.PageSize)
				if err := d.Read(d.Flash().PageBase(p), got); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				for i := range buf {
					if got[i] != buf[i] {
						t.Errorf("worker %d page %d byte %d: %02x != %02x", w, p, i, got[i], buf[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestConcurrentEnergyLedgerMatchesStats: a shared ledger subscribed to the
// op-event bus agrees with the merged stats even under concurrent commits
// (up to float summation order across banks).
func TestConcurrentEnergyLedgerMatchesStats(t *testing.T) {
	spec := concSpec()
	var led energy.Ledger
	d := MustNewDevice(spec, WithObserver(flash.NewLedgerObserver(&led)))
	if err := d.SetApproxRegion(0, spec.Size()); err != nil {
		t.Fatal(err)
	}
	d.SetThreshold(8)
	var wg sync.WaitGroup
	for b := 0; b < d.Flash().Banks(); b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			bankWorkload(d, b, 80, uint64(7000+b))
		}(b)
	}
	wg.Wait()
	st := d.Flash().Stats()
	if diff := math.Abs(float64(led.Total() - st.Energy)); diff > 1e-9*math.Abs(float64(st.Energy)) {
		t.Errorf("ledger total %v != stats energy %v", led.Total(), st.Energy)
	}
	if led.Busy() != st.Busy {
		t.Errorf("ledger busy %v != stats busy %v", led.Busy(), st.Busy)
	}
}
