package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
)

// spanKind names the call a span wraps. Spans are recorded only in the
// benchmark's own files, around calls into each layer's exported functions.
type spanKind uint8

const (
	// Store calls and other user-visible operations.
	spanPut spanKind = iota
	spanGet
	spanDelete
	spanScan
	spanMount // kvs.OpenOn, or ftl.Open on frame-capture
	spanCheck // oracle re-reads after a reboot; not a user op

	// Calls the store makes into its backend (the core device).
	spanBackendRead
	spanBackendWrite
	spanBackendErase
	spanBackendSensePage
	spanBackendSenseMulti
	spanBackendProgramByte

	// Frame-capture calls.
	spanFTLWrite
	spanFTLRead
	spanReplayWrite  // core.Device.Write of a frame on the bare replay device
	spanReplayRead   // core.Device.Read of it back
	spanReplayEncode // approx EncodeSlice over the frame's 16 pages

	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"kvs.Put", "kvs.Get", "kvs.Delete", "kvs.Scan", "mount", "check",
	"core.Read", "core.Write", "core.ErasePage", "core.SensePage",
	"flash.SenseMulti", "flash.ProgramByte",
	"ftl.Write", "ftl.Read", "replay.core.Write", "replay.core.Read", "replay.approx.EncodeSlice",
}

// span is one recorded call. Flash events are attributed to the innermost
// span open when they happen (self counts); inclusive totals are derived.
type span struct {
	kind       spanKind
	parent     int32 // index of the enclosing span, -1 for a root
	start, end int64 // ns since the recorder's epoch
	bytes      int32 // bytes written or read by a backend call; pages for SenseMulti
	events     int32
	erases     int32
	busy       time.Duration
	energy     float64 // joules
}

func (s *span) dur() int64 { return s.end - s.start }

// numOpKinds bounds flash.OpKind values; the kinds the simulator defines
// fit well inside it.
const numOpKinds = 16

// kindTotals accumulates the flash events of one kind seen while recording.
type kindTotals struct {
	events int
	bytes  uint64 // OpEvent.Bytes summed
	pages  uint64 // OpEvent.Pages summed (senses)
	busy   time.Duration
}

// recorder keeps spans in memory and is the flash Observer that attributes
// each event to the innermost open span. The client is a single goroutine,
// so events arrive synchronously inside the call that caused them.
type recorder struct {
	on           bool
	epoch        time.Time
	spans        []span
	stack        []int32
	kinds        [numOpKinds]kindTotals
	unattributed int // events seen while recording with no span open
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its index, or -1 while not recording.
func (r *recorder) begin(k spanKind) int32 {
	if r == nil || !r.on {
		return -1
	}
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{kind: k, parent: parent, start: r.now()})
	r.stack = append(r.stack, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (r *recorder) end(i int32) {
	if i < 0 {
		return
	}
	r.spans[i].end = r.now()
	r.stack = r.stack[:len(r.stack)-1]
}

// timed runs fn inside a span of kind k and returns fn's host time. The
// span's own overhead falls inside the window, so the traced run's host
// figures include the cost of tracing.
func (r *recorder) timed(k spanKind, fn func()) time.Duration {
	t0 := time.Now()
	i := r.begin(k)
	fn()
	r.end(i)
	return time.Since(t0)
}

// endBytes closes span i and records the bytes the call moved.
func (r *recorder) endBytes(i int32, n int) {
	if i < 0 {
		return
	}
	r.spans[i].bytes = int32(n)
	r.end(i)
}

// OnOp implements flash.Observer.
func (r *recorder) OnOp(ev flash.OpEvent) {
	if !r.on {
		return
	}
	k := &r.kinds[ev.Kind%numOpKinds]
	k.events++
	k.bytes += uint64(ev.Bytes)
	k.pages += uint64(ev.Pages)
	k.busy += ev.Busy
	n := len(r.stack)
	if n == 0 {
		r.unattributed++
		return
	}
	s := &r.spans[r.stack[n-1]]
	s.events++
	if ev.Kind == flash.OpErase {
		s.erases++
	}
	s.busy += ev.Busy
	s.energy += float64(ev.Energy)
}

// ledger is the derived view of a finished recording: inclusive erase
// counts per span, self times, and each span's root.
type ledger struct {
	spans      []span
	root       []int32 // root span of each span
	childT     []int64 // summed duration of direct children
	inclErases []int32 // erases of the span and its descendants
}

func (r *recorder) ledger() *ledger {
	n := len(r.spans)
	l := &ledger{spans: r.spans, root: make([]int32, n), childT: make([]int64, n), inclErases: make([]int32, n)}
	for i := range r.spans {
		l.inclErases[i] = r.spans[i].erases
		if p := r.spans[i].parent; p >= 0 {
			l.root[i] = l.root[p]
			l.childT[p] += r.spans[i].dur()
		} else {
			l.root[i] = int32(i)
		}
	}
	// Children always follow their parent, so one reverse pass folds
	// every span's inclusive count into its parent.
	for i := n - 1; i >= 0; i-- {
		if p := r.spans[i].parent; p >= 0 {
			l.inclErases[p] += l.inclErases[i]
		}
	}
	return l
}

func (l *ledger) self(i int) int64 { return l.spans[i].dur() - l.childT[i] }

// rootKind returns the kind of span i's root.
func (l *ledger) rootKind(i int) spanKind { return l.spans[l.root[i]].kind }

// reconcile checks the ledger against the device's Stats delta over the
// recorded window: every event was attributed, busy time and every counter
// match exactly, energy matches to float rounding (the device sums per bank
// and kind, the ledger per span), children nest inside their parents, and
// no self time is negative.
func (r *recorder) reconcile(l *ledger, delta flash.Stats) error {
	if r.unattributed != 0 {
		return fmt.Errorf("ledger: %d flash events outside any span", r.unattributed)
	}
	var busy time.Duration
	var energy float64
	for i := range l.spans {
		s := &l.spans[i]
		busy += s.busy
		energy += s.energy
		if p := s.parent; p >= 0 && (s.start < l.spans[p].start || s.end > l.spans[p].end) {
			return fmt.Errorf("ledger: span %d (%s) not nested in its parent %d", i, spanNames[s.kind], p)
		}
		if l.self(i) < 0 {
			return fmt.Errorf("ledger: span %d (%s) has negative self time", i, spanNames[s.kind])
		}
	}
	if busy != delta.Busy {
		return fmt.Errorf("ledger: span busy %v != device busy %v", busy, delta.Busy)
	}
	if !closeRel(energy, float64(delta.Energy), 1e-9) {
		return fmt.Errorf("ledger: span energy %g J != device energy %g J", energy, float64(delta.Energy))
	}
	k := &r.kinds
	got := [...]uint64{k[flash.OpRead].bytes, k[flash.OpProgram].bytes, k[flash.OpProgramSkip].bytes,
		uint64(k[flash.OpErase].events), uint64(k[flash.OpSense].events), k[flash.OpSense].pages}
	want := [...]uint64{delta.Reads, delta.Programs, delta.ProgramsSkipped, delta.Erases, delta.Senses, delta.PagesSensed}
	if got != want {
		return fmt.Errorf("ledger: observer counters %v != device counters %v", got, want)
	}
	return nil
}

func closeRel(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := b
	if m < 0 {
		m = -m
	}
	return d <= tol*m || d < 1e-18
}

// writeSpans writes the recording as gzip-compressed tab-separated lines,
// one span each.
func (r *recorder) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns\tbytes\tevents\terases\tbusy_ns\tenergy_j")
	for i, s := range r.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%g\n",
			i, s.parent, spanNames[s.kind], s.start, s.end, s.bytes, s.events, s.erases, int64(s.busy), s.energy)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedBackend implements every method the kvs store's own core-device
// adapter has, so kvs.OpenOn takes exactly the paths kvs.Open takes, and
// records a span around each backend call.
type tracedBackend struct {
	dev *core.Device
	rec *recorder
}

func (b tracedBackend) Read(addr int, dst []byte) error {
	i := b.rec.begin(spanBackendRead)
	err := b.dev.Read(addr, dst)
	b.rec.endBytes(i, len(dst))
	return err
}

func (b tracedBackend) Write(addr int, data []byte) error {
	i := b.rec.begin(spanBackendWrite)
	err := b.dev.Write(addr, data)
	b.rec.endBytes(i, len(data))
	return err
}

func (b tracedBackend) ErasePage(p int) error {
	i := b.rec.begin(spanBackendErase)
	err := b.dev.ErasePage(p)
	b.rec.end(i)
	return err
}

func (b tracedBackend) SensePage(p int, dst []byte) error {
	i := b.rec.begin(spanBackendSensePage)
	err := b.dev.SensePage(p, dst)
	b.rec.endBytes(i, len(dst))
	return err
}

func (b tracedBackend) ProgramByte(addr int, v byte) error {
	i := b.rec.begin(spanBackendProgramByte)
	err := b.dev.Flash().ProgramByte(addr, v)
	b.rec.endBytes(i, 1)
	return err
}

func (b tracedBackend) SenseMulti(op flash.SenseOp, pages []int, invert []bool, dst []byte) error {
	i := b.rec.begin(spanBackendSenseMulti)
	err := b.dev.Flash().SenseMulti(op, pages, invert, dst)
	b.rec.endBytes(i, len(pages))
	return err
}

func (b tracedBackend) PageSize() int         { return b.dev.Flash().Spec().PageSize }
func (b tracedBackend) NumPages() int         { return b.dev.Flash().Spec().NumPages }
func (b tracedBackend) PageWear(p int) uint32 { return b.dev.Flash().Wear(p) }
func (b tracedBackend) Banks() int            { return b.dev.Flash().Banks() }
func (b tracedBackend) MaxSensePages() int    { return b.dev.Flash().Spec().MaxSensePages }
