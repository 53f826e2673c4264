package flash

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	mathbits "math/bits"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flipbit-sim/flipbit/internal/bits"
	"github.com/flipbit-sim/flipbit/internal/energy"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// Errors returned by the device.
var (
	// ErrNeedsErase is returned by program operations that would require
	// a 0 → 1 transition, which only an erase can provide.
	ErrNeedsErase = errors.New("flash: program requires 0→1 transition; page must be erased first")
	// ErrWornOut is returned once a page has exceeded its endurance and
	// can no longer be erased reliably.
	ErrWornOut = errors.New("flash: page exceeded program/erase endurance")
	// ErrBounds is returned for out-of-range addresses or page numbers.
	ErrBounds = errors.New("flash: address out of range")
	// ErrPageSize is returned when a page operation is given a buffer
	// whose length is not exactly one page.
	ErrPageSize = errors.New("flash: buffer length must equal the page size")
	// ErrTransient is returned by a program or erase whose verify failed
	// transiently: the pulse's full cost was drawn and the array holds a
	// partial result, but state stays recoverable — re-issuing the same
	// operation can succeed. Controllers retry these before escalating
	// to retirement.
	ErrTransient = errors.New("flash: transient verify failure; retry may succeed")
)

// Stats counts flash operations and accumulates their energy and busy time.
type Stats struct {
	Reads           uint64 // bytes read
	Programs        uint64 // bytes programmed
	ProgramsSkipped uint64 // byte programs elided because the target value was already stored
	Erases          uint64 // pages erased
	Scrubs          uint64 // pages scrubbed by the management layer
	Retirements     uint64 // pages retired onto spares
	ProgramFails    uint64 // byte programs that failed verify transiently
	EraseFails      uint64 // page erases that failed verify transiently
	Waits           uint64 // retry backoff intervals charged to the busy ledger
	Senses          uint64 // multi-page bitwise senses (charged once per sense)
	PagesSensed     uint64 // wordlines covered by those senses

	Energy energy.Energy
	Busy   time.Duration
}

// Add returns the element-wise sum of two stats.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Reads:           s.Reads + o.Reads,
		Programs:        s.Programs + o.Programs,
		ProgramsSkipped: s.ProgramsSkipped + o.ProgramsSkipped,
		Erases:          s.Erases + o.Erases,
		Scrubs:          s.Scrubs + o.Scrubs,
		Retirements:     s.Retirements + o.Retirements,
		ProgramFails:    s.ProgramFails + o.ProgramFails,
		EraseFails:      s.EraseFails + o.EraseFails,
		Waits:           s.Waits + o.Waits,
		Senses:          s.Senses + o.Senses,
		PagesSensed:     s.PagesSensed + o.PagesSensed,
		Energy:          s.Energy + o.Energy,
		Busy:            s.Busy + o.Busy,
	}
}

// Sub returns the element-wise difference s - o.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Reads:           s.Reads - o.Reads,
		Programs:        s.Programs - o.Programs,
		ProgramsSkipped: s.ProgramsSkipped - o.ProgramsSkipped,
		Erases:          s.Erases - o.Erases,
		Scrubs:          s.Scrubs - o.Scrubs,
		Retirements:     s.Retirements - o.Retirements,
		ProgramFails:    s.ProgramFails - o.ProgramFails,
		EraseFails:      s.EraseFails - o.EraseFails,
		Waits:           s.Waits - o.Waits,
		Senses:          s.Senses - o.Senses,
		PagesSensed:     s.PagesSensed - o.PagesSensed,
		Energy:          s.Energy - o.Energy,
		Busy:            s.Busy - o.Busy,
	}
}

// bank is one independently lockable shard of the device: real NOR/NAND
// parts expose internal bank/plane parallelism, and the simulator mirrors
// that structure so operations on different banks proceed concurrently.
// Pages are interleaved across banks round-robin (page p lives in bank
// p % Banks), and everything a page operation touches — the page's array
// bytes, wear counter, stats shard and fault RNG — is owned by exactly one
// bank and guarded by its lock.
type bank struct {
	mu    sync.Mutex
	stats statsShard
	// seq numbers the bank's event stream: every emitted event gets the
	// next value, so per-bank streams are gapless and totally ordered.
	seq uint64
	// obs is this bank's slice of the sharded op-event bus: the delivery
	// handles installed by Attach (observer.go). Events of this bank fan
	// out to exactly this list, under the bank's lock, so instrumentation
	// never serializes concurrent banks on a shared subscription path.
	obs []Observer
	// prevScratch holds the pre-program page image while a batched
	// page-program event is delivered (OpEvent.Prev aliases it).
	prevScratch []byte
	// rng drives the stuck-bit failure model for worn-out pages in this
	// bank. Per-bank so concurrent banks never share RNG state.
	rng *xrand.RNG
	// faults is the bank-scoped fault arm state (faults.go): its countdown
	// only observes this bank's operations, so injected faults fire
	// deterministically even under concurrent cross-bank traffic.
	faults faultScope
	// faultsLive mirrors "this bank's scope or the shared scope is live" —
	// the only scopes this bank's operations consult — so the bank's fault
	// dispatch never depends on faults armed on other banks.
	faultsLive atomic.Bool
}

// Device is a simulated NOR flash chip: the memory array, wear counters,
// the bank shards and the operation event bus.
//
// Device is safe for concurrent use. Pages are partitioned across
// Spec.Banks banks (interleaved round-robin); operations on pages in
// different banks run in parallel, operations within one bank serialize on
// the bank's lock. Attach/Detach, SetTracer and SetProgramAll configure the
// device and must not race in-flight operations.
//
// Every page program — ProgramPage, ProgramPageSpan and EraseProgramPage — commits
// through one word-wise path. Armed fault countdowns and SetProgramAll
// change what that path charges and where it stops, never which path runs.
type Device struct {
	spec    Spec
	array   []byte
	wear    []uint32 // per-page erase count (written atomically under the page's bank lock; Wear reads it lock-free)
	dead    []bool   // per-page worn-out flag (guarded by the page's bank lock)
	retired []bool   // per-page retirement flag (guarded by the page's bank lock)
	drift   [][]byte // per-page fault-flip masks, nil until first flip (health.go)
	rise    [][]byte // per-page marginal-cell masks, nil until first leak (retention.go)
	banks   []bank

	// programAll, when set, charges a program pulse even for bytes whose
	// stored value already equals the target. Real buffered parts skip
	// those pulses; the flag exists for the skip-unchanged ablation.
	programAll bool

	// atts records Attach calls so Detach can unhook the per-bank
	// delivery handles (observer.go).
	atts []attachment

	// tracer is the trace installed by SetTracer, kept so a later
	// SetTracer can detach it.
	tracer *Trace

	// Fault injection (faults.go): ftMu guards the shared scope and the
	// per-bank scopes against concurrent arming and firing. Operations
	// check their bank's liveness flag (bank.faultsLive) so fault-free
	// banks skip ftMu entirely — a page program on a live bank takes it
	// once per charged byte, which would serialize every bank.
	ftMu   sync.Mutex
	faults faultScope
}

// SetProgramAll toggles charging program pulses for unchanged bytes.
func (d *Device) SetProgramAll(v bool) { d.programAll = v }

// NewDevice builds a device from spec with every page erased (all ones),
// which is how flash leaves the factory. A spec with Banks == 0 gets
// DefaultBanks banks; the bank count is clamped to the page count.
func NewDevice(spec Spec) (*Device, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Banks == 0 {
		spec.Banks = DefaultBanks
	}
	if spec.Banks > spec.NumPages {
		spec.Banks = spec.NumPages
	}
	if spec.SenseLatency == 0 {
		spec.SenseLatency = 2 * spec.ReadLatency
	}
	if spec.SenseEnergy == 0 {
		spec.SenseEnergy = 2 * spec.ReadEnergy
	}
	if spec.MaxSensePages == 0 {
		spec.MaxSensePages = DefaultMaxSensePages
	}
	d := &Device{
		spec:    spec,
		array:   make([]byte, spec.Size()),
		wear:    make([]uint32, spec.NumPages),
		dead:    make([]bool, spec.NumPages),
		retired: make([]bool, spec.NumPages),
		drift:   make([][]byte, spec.NumPages),
		rise:    make([][]byte, spec.NumPages),
		banks:   make([]bank, spec.Banks),
	}
	for i := range d.array {
		d.array[i] = 0xFF
	}
	for b := range d.banks {
		d.banks[b].rng = xrand.New(0xF1A5 + uint64(b))
	}
	return d, nil
}

// MustNewDevice is NewDevice for specs known to be valid.
func MustNewDevice(spec Spec) *Device {
	d, err := NewDevice(spec)
	if err != nil {
		panic(err)
	}
	return d
}

// Spec returns the device's specification (with the bank count normalised).
func (d *Device) Spec() Spec { return d.spec }

// Banks returns the number of banks the device operates.
func (d *Device) Banks() int { return len(d.banks) }

// BankOf returns the bank that owns page p. Pages are interleaved
// round-robin so consecutive pages land in different banks.
func (d *Device) BankOf(p int) int { return p % len(d.banks) }

// bankOfAddr returns the bank owning the page containing addr.
func (d *Device) bankOfAddr(addr int) int { return d.BankOf(d.PageOf(addr)) }

// Stats returns a snapshot of the operation ledger: the per-bank shards
// merged in bank order. The merge is deterministic, so a concurrent run
// that issues the same per-bank operation sequences as a serial run
// reports byte-identical totals.
func (d *Device) Stats() Stats {
	var s Stats
	for b := range d.banks {
		bk := &d.banks[b]
		bk.mu.Lock()
		s = s.Add(bk.stats.snapshot())
		bk.mu.Unlock()
	}
	return s
}

// BankStats returns the stats shard of bank b.
func (d *Device) BankStats(b int) Stats {
	bk := &d.banks[b]
	bk.mu.Lock()
	defer bk.mu.Unlock()
	return bk.stats.snapshot()
}

// ResetStats clears the operation ledger of every bank. Wear counters and
// worn-out flags are preserved: they are physical state, not accounting.
// Attached observers are unaffected (a Trace keeps its entries).
func (d *Device) ResetStats() {
	for b := range d.banks {
		bk := &d.banks[b]
		bk.mu.Lock()
		bk.stats = statsShard{}
		bk.mu.Unlock()
	}
}

// PageOf returns the page number containing addr.
func (d *Device) PageOf(addr int) int { return addr / d.spec.PageSize }

// PageBase returns the first address of page p.
func (d *Device) PageBase(p int) int { return p * d.spec.PageSize }

func (d *Device) checkAddr(addr, n int) error {
	if addr < 0 || n < 0 || addr+n > len(d.array) {
		return fmt.Errorf("%w: addr %#x len %d (size %#x)", ErrBounds, addr, n, len(d.array))
	}
	return nil
}

func (d *Device) checkPage(p int) error {
	if p < 0 || p >= d.spec.NumPages {
		return fmt.Errorf("%w: page %d of %d", ErrBounds, p, d.spec.NumPages)
	}
	return nil
}

// emit delivers one operation event: it is stamped with the bank's next
// sequence number, folded into the bank's stats shard, and fanned out to
// the bank's subscriber shard. Must be called with the bank's lock held,
// which totally orders events within a bank; events for different banks are
// delivered concurrently to independent shards, so nothing on this path is
// shared between banks.
func (d *Device) emit(ev OpEvent) {
	bk := &d.banks[ev.Bank]
	bk.seq++
	ev.Seq = bk.seq
	bk.stats.apply(ev)
	for _, o := range bk.obs {
		o.OnOp(ev)
	}
}

// ReadByteAt reads the byte at addr, charging read latency and energy.
func (d *Device) ReadByteAt(addr int) (byte, error) {
	if err := d.checkAddr(addr, 1); err != nil {
		return 0, err
	}
	b := d.bankOfAddr(addr)
	bk := &d.banks[b]
	bk.mu.Lock()
	defer bk.mu.Unlock()
	d.emit(OpEvent{
		Kind: OpRead, Bank: b, Addr: addr, Bytes: 1,
		Energy: d.spec.ReadEnergy, Busy: d.spec.ReadLatency,
	})
	page := d.PageOf(addr)
	v := d.array[addr]
	if m := d.rise[page]; m != nil {
		buf := [1]byte{v}
		d.flickerInto(b, page, addr, buf[:])
		v = buf[0]
	}
	if f, fired := d.faultHit(b, OpRead); fired {
		switch f.Kind {
		case FaultReadDisturb:
			d.disturbPage(b, page, f.bits())
		case FaultRetention:
			d.markRetention(b, page)
		}
	}
	return v, nil
}

// Read fills dst from consecutive addresses starting at addr. A read that
// spans pages locks each page's bank in turn, so concurrent writers to
// other pages are never blocked for the whole transfer.
func (d *Device) Read(addr int, dst []byte) error {
	if err := d.checkAddr(addr, len(dst)); err != nil {
		return err
	}
	for off := 0; off < len(dst); {
		page := d.PageOf(addr + off)
		n := d.PageBase(page) + d.spec.PageSize - (addr + off)
		if n > len(dst)-off {
			n = len(dst) - off
		}
		b := d.BankOf(page)
		bk := &d.banks[b]
		bk.mu.Lock()
		copy(dst[off:off+n], d.array[addr+off:addr+off+n])
		d.flickerInto(b, page, addr+off, dst[off:off+n])
		d.emit(OpEvent{
			Kind: OpRead, Bank: b, Addr: addr + off, Bytes: n,
			Energy: d.spec.ReadEnergy * energy.Energy(n),
			Busy:   d.spec.ReadLatency * time.Duration(n),
		})
		if f, fired := d.faultHit(b, OpRead); fired {
			switch f.Kind {
			case FaultReadDisturb:
				d.disturbPage(b, page, f.bits())
			case FaultRetention:
				d.markRetention(b, page)
			}
		}
		bk.mu.Unlock()
		off += n
	}
	return nil
}

// ReadPage fills dst (exactly one page long) from page p, charging a page's
// worth of reads. This is step 1 of the read-modify-write operation (§II-A),
// performed into a caller-owned buffer. Unlike the host-facing Read paths,
// ReadPage is a controller-issued margin-aware sense: marginal retention
// cells (retention.go) are resolved to their stored value rather than
// flickering, so the commit path never bakes read noise back into a page.
func (d *Device) ReadPage(p int, dst []byte) error {
	if err := d.checkPage(p); err != nil {
		return err
	}
	if len(dst) != d.spec.PageSize {
		return fmt.Errorf("%w: got %d, page size %d", ErrPageSize, len(dst), d.spec.PageSize)
	}
	b := d.BankOf(p)
	bk := &d.banks[b]
	bk.mu.Lock()
	defer bk.mu.Unlock()
	base := d.PageBase(p)
	copy(dst, d.array[base:base+d.spec.PageSize])
	d.emit(OpEvent{
		Kind: OpRead, Bank: b, Addr: base, Bytes: d.spec.PageSize,
		Energy: d.spec.ReadEnergy * energy.Energy(d.spec.PageSize),
		Busy:   d.spec.ReadLatency * time.Duration(d.spec.PageSize),
	})
	if f, fired := d.faultHit(b, OpRead); fired {
		switch f.Kind {
		case FaultReadDisturb:
			d.disturbPage(b, p, f.bits())
		case FaultRetention:
			d.markRetention(b, p)
		}
	}
	return nil
}

// ProgramByte programs one byte. Programming can only clear bits: if v
// requires any 0 → 1 transition relative to the stored byte, the operation
// fails with ErrNeedsErase and nothing is charged (the controller checks
// before issuing). Programming a byte to its current value is skipped and
// charged nothing, matching buffered page programming where unchanged bytes
// need no pulse.
func (d *Device) ProgramByte(addr int, v byte) error {
	if err := d.checkAddr(addr, 1); err != nil {
		return err
	}
	b := d.bankOfAddr(addr)
	bk := &d.banks[b]
	bk.mu.Lock()
	defer bk.mu.Unlock()
	return d.programByteLocked(b, addr, v)
}

// programByteLocked is ProgramByte with bank b's lock held.
func (d *Device) programByteLocked(b, addr int, v byte) error {
	page := d.PageOf(addr)
	if d.retired[page] {
		return fmt.Errorf("page %d: %w", page, ErrPageRetired)
	}
	cur := d.array[addr]
	if !d.spec.Cell.Reachable(cur, v) {
		return fmt.Errorf("%w: addr %#x stored %08b want %08b (%v)", ErrNeedsErase, addr, cur, v, d.spec.Cell)
	}
	if v == cur && !d.programAll {
		d.absorbDrift(page, addr-d.PageBase(page), v)
		d.emit(OpEvent{Kind: OpProgramSkip, Bank: b, Addr: addr, Bytes: 1, Value: v})
		return nil
	}
	if f, fired := d.faultHit(b, OpProgram); fired {
		return d.faultProgramLocked(b, addr, v, f)
	}
	d.array[addr] = v
	d.absorbDrift(page, addr-d.PageBase(page), v)
	d.absorbRise(page, addr-d.PageBase(page))
	d.emit(OpEvent{
		Kind: OpProgram, Bank: b, Addr: addr, Bytes: 1, Value: v,
		Energy: d.spec.ProgramEnergy, Busy: d.spec.ProgramLatency,
	})
	return nil
}

// faultProgramLocked applies a fired program fault to the pulse that would
// have stored v at addr: the pulse's full cost is drawn and only some
// target bits clear. Power loss reports ErrPowerLoss; a transient verify
// failure reports ErrTransient — every bit moved toward v, so a re-issue
// can finish the job. Called with bank b's lock held.
func (d *Device) faultProgramLocked(b, addr int, v byte, f Fault) error {
	d.tearProgram(b, addr, v)
	kind, err := OpProgram, ErrPowerLoss
	if f.Kind == FaultTransientProgram {
		kind, err = OpProgramFail, ErrTransient
	}
	d.emit(OpEvent{
		Kind: kind, Bank: b, Addr: addr, Bytes: 1, Value: d.array[addr],
		Energy: d.spec.ProgramEnergy, Busy: d.spec.ProgramLatency,
	})
	return fmt.Errorf("program %#x: %w", addr, err)
}

// ErasePage erases page p: every bit is set to 1 and the page's wear count
// increments. Once wear exceeds the endurance rating the page is worn out:
// the erase still happens but some cells stick at 0 (trapped charge, §II-B)
// and ErrWornOut is returned so callers can observe the failure.
func (d *Device) ErasePage(p int) error {
	if err := d.checkPage(p); err != nil {
		return err
	}
	b := d.BankOf(p)
	bk := &d.banks[b]
	bk.mu.Lock()
	defer bk.mu.Unlock()
	return d.erasePageLocked(b, p)
}

// erasePageLocked is ErasePage with bank b's lock held.
func (d *Device) erasePageLocked(b, p int) error {
	if d.retired[p] {
		return fmt.Errorf("page %d: %w", p, ErrPageRetired)
	}
	base := d.PageBase(p)
	d.clearDrift(p)
	d.clearRise(p)
	f, fired := d.faultHit(b, OpErase)
	if fired && f.Kind == FaultPowerLoss {
		d.tearErase(b, p)
		atomic.AddUint32(&d.wear[p], 1) // the tunnel-oxide stress happened regardless
		d.emit(OpEvent{
			Kind: OpErase, Bank: b, Addr: p, Bytes: d.spec.PageSize,
			Energy: d.spec.EraseEnergy, Busy: d.spec.EraseLatency,
		})
		return fmt.Errorf("erase page %d: %w", p, ErrPowerLoss)
	}
	if fired && f.Kind == FaultTransientErase {
		// Verify failure: the pulse stressed the oxide at full cost but
		// left a mixture of erased and stale bytes — re-issuing the erase
		// can reach the fully erased state.
		d.tearErase(b, p)
		atomic.AddUint32(&d.wear[p], 1)
		d.emit(OpEvent{
			Kind: OpEraseFail, Bank: b, Addr: p, Bytes: d.spec.PageSize,
			Energy: d.spec.EraseEnergy, Busy: d.spec.EraseLatency,
		})
		return fmt.Errorf("erase page %d: %w", p, ErrTransient)
	}
	for i := 0; i < d.spec.PageSize; i++ {
		d.array[base+i] = 0xFF
	}
	atomic.AddUint32(&d.wear[p], 1)
	d.emit(OpEvent{
		Kind: OpErase, Bank: b, Addr: p, Bytes: d.spec.PageSize,
		Energy: d.spec.EraseEnergy, Busy: d.spec.EraseLatency,
	})
	if fired && f.Kind == FaultStuckBits {
		// Marginal cells: the erase completes and reports success, but
		// some cells fail to reach the erased state — silent until a
		// read-back verify notices, exactly like real early wear-out.
		d.stickBits(b, p, f.bits())
	}
	if d.wear[p] > d.spec.EnduranceCycles {
		d.dead[p] = true
		// Stuck-at-zero failure model: roughly one cell per byte per
		// thousand cycles past the limit fails to erase.
		over := d.wear[p] - d.spec.EnduranceCycles
		d.stickBits(b, p, 1+int(over/1000))
		return fmt.Errorf("page %d: %w (wear %d > %d)", p, ErrWornOut, d.wear[p], d.spec.EnduranceCycles)
	}
	return nil
}

// Wear returns the erase count of page p. It takes no lock: the counter
// is only ever incremented, atomically, so a wear-aware scan over every
// page (KVS victim selection, FTL leveling) costs no bank round-trips.
func (d *Device) Wear(p int) uint32 {
	if p < 0 || p >= len(d.wear) {
		return 0
	}
	return atomic.LoadUint32(&d.wear[p])
}

// MaxWear returns the highest erase count across all pages; flash lifetime
// ends when the hottest page wears out.
func (d *Device) MaxWear() uint32 {
	var m uint32
	for _, w := range d.WearSnapshot() {
		if w > m {
			m = w
		}
	}
	return m
}

// WornOut reports whether page p has exceeded its endurance.
func (d *Device) WornOut(p int) bool {
	if p < 0 || p >= len(d.dead) {
		return false
	}
	bk := &d.banks[d.BankOf(p)]
	bk.mu.Lock()
	defer bk.mu.Unlock()
	return d.dead[p]
}

// AtRating reports whether page p has consumed its full endurance rating:
// the page still reads and programs normally, but its next erase will leave
// cells stuck at 0. Management layers use this to fence a page *before* the
// erase that would corrupt it, where WornOut only reports the damage after.
func (d *Device) AtRating(p int) bool {
	if p < 0 || p >= len(d.wear) {
		return false
	}
	bk := &d.banks[d.BankOf(p)]
	bk.mu.Lock()
	defer bk.mu.Unlock()
	return d.wear[p] >= d.spec.EnduranceCycles
}

// ProgramPage programs page p from buf (exactly one page long) without
// erasing. Every byte must be reachable through 1 → 0 transitions only;
// otherwise the operation fails with ErrNeedsErase before touching the
// array. Bytes that already hold the buffered value are skipped. The whole
// page commits under one bank lock acquisition, so a concurrent operation
// on the same bank never observes a half-programmed page.
func (d *Device) ProgramPage(p int, buf []byte) error {
	return d.ProgramPageSpan(p, buf, 0, len(buf))
}

// ProgramPageSpan is ProgramPage for a caller that knows its dirty span:
// buf is still the whole page image, but only buf[lo:hi] is expected to
// differ from the array. The bytes outside the span are compared against
// the array under the bank lock rather than trusted — a read-disturb fault
// can clear cells between the caller's read and this program — and any
// mismatch widens the program to the whole page. Either way the array,
// events, Stats and errors are exactly those of ProgramPage(p, buf); only
// the host work shrinks to the span.
func (d *Device) ProgramPageSpan(p int, buf []byte, lo, hi int) error {
	if err := d.checkPage(p); err != nil {
		return err
	}
	if len(buf) != d.spec.PageSize {
		return fmt.Errorf("%w: got %d, page size %d", ErrPageSize, len(buf), d.spec.PageSize)
	}
	if lo < 0 || lo > hi || hi > len(buf) {
		return fmt.Errorf("%w: span [%d, %d) of a %d-byte page", ErrBounds, lo, hi, len(buf))
	}
	b := d.BankOf(p)
	bk := &d.banks[b]
	bk.mu.Lock()
	defer bk.mu.Unlock()
	return d.programPageLocked(b, p, buf, lo, hi)
}

// programPageLocked is ProgramPageSpan with bank b's lock held.
func (d *Device) programPageLocked(b, p int, buf []byte, lo, hi int) error {
	if d.retired[p] {
		return fmt.Errorf("page %d: %w", p, ErrPageRetired)
	}
	base := d.PageBase(p)
	page := d.array[base : base+d.spec.PageSize]
	// The span shortcut holds only while every byte outside it already
	// stores its buffered value. programAll charges every byte and a drift
	// mask is absorbed over the whole page, so both walk it all too.
	if d.programAll || d.drift[p] != nil ||
		!bytes.Equal(buf[:lo], page[:lo]) || !bytes.Equal(buf[hi:], page[hi:]) {
		lo, hi = 0, len(buf)
	}
	// SLC reachability is a bitwise subset test, run eight bytes per step;
	// the per-byte loop runs for MLC/TLC fields and, under SLC, only to
	// name the first unreachable byte in the error.
	if d.spec.Cell != SLC || !bits.SubsetBytes(buf[lo:hi], page[lo:hi]) {
		for i := lo; i < hi; i++ {
			if !d.spec.Cell.Reachable(page[i], buf[i]) {
				return fmt.Errorf("%w: page %d byte %d stored %08b want %08b (%v)",
					ErrNeedsErase, p, i, page[i], buf[i], d.spec.Cell)
			}
		}
	}
	// A live fault scope observes every charged pulse in address order,
	// exactly as a byte-by-byte program would issue them: the bytes before
	// the first one that trips a fault commit normally, the victim byte
	// takes the fault, and the bytes after it are never reached. Bytes
	// outside the span are unchanged, so they would draw no pulse.
	end, f, fired := len(buf), Fault{}, false
	if d.banks[b].faultsLive.Load() {
		for i := lo; i < hi; i++ {
			if buf[i] == page[i] && !d.programAll {
				continue // skipped bytes draw no pulse and advance no countdown
			}
			if f, fired = d.faultHit(b, OpProgram); fired {
				hi, end = i, i
				break
			}
		}
	}
	d.programSpanLocked(b, p, buf, lo, hi, end)
	if fired {
		return d.faultProgramLocked(b, base+end, buf[end], f)
	}
	return nil
}

// programSpanLocked commits buf[lo:hi] to page p, eight bytes per step with
// a byte loop for the tail, and emits at most one batched OpProgram for the
// charged bytes (those whose value changes, or all under programAll) and
// one OpProgramSkip for the rest of the page's first end bytes, which the
// caller has checked already hold their buffered value outside [lo, hi).
// Counters and busy time equal one ProgramByte per byte of [0, end);
// energy is the same sum rounded once. Called with bank b's lock held,
// after the reachability pre-pass.
func (d *Device) programSpanLocked(b, p int, buf []byte, lo, hi, end int) {
	base := d.PageBase(p)
	bk := &d.banks[b]
	page := d.array[base : base+d.spec.PageSize]
	var prev []byte
	if len(bk.obs) > 0 {
		if bk.prevScratch == nil {
			bk.prevScratch = make([]byte, d.spec.PageSize)
		}
		prev = bk.prevScratch
		copy(prev, page)
	}
	programmed := 0
	m := d.drift[p]
	rm := d.rise[p]
	le := binary.LittleEndian
	i := lo
	for ; i+8 <= hi; i += 8 {
		v := le.Uint64(buf[i:])
		if x := le.Uint64(page[i:]) ^ v; x != 0 {
			le.PutUint64(page[i:], v)
			changed := nonzeroBytes(x)
			programmed += mathbits.OnesCount64(changed)
			if rm != nil {
				// A real pulse recharges the changed bytes' marginal cells.
				le.PutUint64(rm[i:], le.Uint64(rm[i:])&^(changed*0xFF))
			}
		}
		if m != nil {
			le.PutUint64(m[i:], le.Uint64(m[i:])&v)
		}
	}
	for ; i < hi; i++ {
		v := buf[i]
		if page[i] != v {
			page[i] = v
			programmed++
			if rm != nil {
				rm[i] = 0
			}
		}
		if m != nil {
			m[i] &= v
		}
	}
	if d.programAll {
		programmed = end
		if rm != nil {
			clear(rm[:end])
		}
	}
	if programmed > 0 {
		d.emit(OpEvent{
			Kind: OpProgram, Bank: b, Addr: base, Bytes: programmed,
			Data: page, Prev: prev,
			Energy: d.spec.ProgramEnergy * energy.Energy(programmed),
			Busy:   d.spec.ProgramLatency * time.Duration(programmed),
		})
	}
	if skipped := end - programmed; skipped > 0 {
		d.emit(OpEvent{Kind: OpProgramSkip, Bank: b, Addr: base, Bytes: skipped})
	}
}

// nonzeroBytes maps each nonzero byte of x to 0x01 and each zero byte to
// 0x00: bit 0 of every byte becomes the OR of that byte's eight bits.
// OnesCount64 of the result counts the nonzero bytes, and the result times
// 0xFF is a mask of them.
func nonzeroBytes(x uint64) uint64 {
	x |= x >> 4
	x |= x >> 2
	x |= x >> 1
	return x & 0x0101010101010101
}

// EraseProgramPage erases page p and programs it from buf — the
// "read-modify-write" commit path (§II-A steps 2 and 4), atomic with
// respect to other operations on the same bank. A worn-out erase error is
// returned after the program completes so the data is still best-effort
// written.
func (d *Device) EraseProgramPage(p int, buf []byte) error {
	if err := d.checkPage(p); err != nil {
		return err
	}
	if len(buf) != d.spec.PageSize {
		return fmt.Errorf("%w: got %d, page size %d", ErrPageSize, len(buf), d.spec.PageSize)
	}
	b := d.BankOf(p)
	bk := &d.banks[b]
	bk.mu.Lock()
	defer bk.mu.Unlock()
	eraseErr := d.erasePageLocked(b, p)
	if eraseErr != nil && !errors.Is(eraseErr, ErrWornOut) {
		return eraseErr
	}
	if err := d.programPageLocked(b, p, buf, 0, len(buf)); err != nil {
		// Only possible on a worn-out page with stuck bits, or under
		// a second injected power loss.
		return errors.Join(eraseErr, err)
	}
	return eraseErr
}

// Peek returns the stored byte without charging a read; for tests and
// instrumentation only. Not synchronised: do not race it with writers.
func (d *Device) Peek(addr int) byte { return d.array[addr] }

// PeekPage copies page p into dst without charging reads; for tests and
// instrumentation only. Not synchronised: do not race it with writers.
func (d *Device) PeekPage(p int, dst []byte) {
	copy(dst, d.array[d.PageBase(p):d.PageBase(p)+d.spec.PageSize])
}
