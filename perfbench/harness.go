package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"time"

	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/ftl"
	"github.com/flipbit-sim/flipbit/internal/kvs"
)

// workload is one benchmark scenario after its set-up. The client is a
// single goroutine in a closed loop: each call returns before the next is
// issued.
type workload interface {
	// op issues one user operation, times it, checks its result against
	// the model and records it in m.
	op(m *meter)
	// reboot remounts the storage stack on the same device, times the
	// mount and re-checks a sample of the stored data.
	reboot(m *meter)
	flash() *flash.Device
	spaceAmp() float64
	// totals returns the deterministic state the traced and untraced runs
	// must agree on.
	totals() totals
}

// totals is every deterministic counter the storage stack keeps.
type totals struct {
	Flash flash.Stats
	Core  core.Stats
	KVS   []kvs.Stats // one per mounted store, in mount order
	FTL   []ftl.Stats // one per mounted FTL, in mount order
	Wear  []uint32
}

// meter accumulates one measured phase. Host times cover only the call
// into the storage stack; checking and device-stat reads sit outside them.
type meter struct {
	prefix bool // inside the deterministic prefix

	attempted, failed int
	failures          []string

	writeHost, readHost, opHost, mountHost []float64 // us, us, us, ms

	writeDevUs []float64   // device busy per write, prefix only
	checkCost  flash.Stats // device cost of oracle re-reads in the prefix

	fp       hash.Hash64 // fingerprint of the generated inputs
	prefixFP uint64      // fp at the end of the prefix
}

func newMeter() *meter { return &meter{fp: fnv.New64a()} }

// fail counts a failed operation; the first few are kept for stderr.
func (m *meter) fail(format string, args ...any) {
	m.failed++
	if len(m.failures) < 8 {
		m.failures = append(m.failures, fmt.Sprintf(format, args...))
	}
}

// opDone records one user op's host window.
func (m *meter) opDone(dt time.Duration) {
	m.attempted++
	m.opHost = append(m.opHost, us(dt))
}

// mountDone records one remount's host window.
func (m *meter) mountDone(dt time.Duration) { m.mountHost = append(m.mountHost, ms(dt)) }

// checked runs an oracle re-read outside the host windows and books its
// device cost so the device metrics leave it out.
func (m *meter) checked(fl *flash.Device, fn func()) {
	before := fl.Stats()
	fn()
	if m.prefix {
		m.checkCost = m.checkCost.Add(fl.Stats().Sub(before))
	}
}

// opsPerSec is user ops per second of host time spent inside them.
func (m *meter) opsPerSec() float64 { return windowed(m.opHost, perSecond) }

// deviceMetrics are the simulated-device figures of the deterministic
// prefix. They depend only on the seed.
type deviceMetrics struct {
	ops          int
	writeDevP99  float64
	busyPerOpUs  float64
	ujPerOp      float64
	erasesPerKop float64
	maxWearKop   float64
	spaceAmp     float64
}

// drive runs prefixOps operations, rebooting after every rebootEvery of
// them (or once, after the last, when rebootEvery is 0), and takes the
// device metrics at the end of that prefix. A reboot mounts the store
// mountsPerReboot times in a row. drive then keeps issuing operations
// until the deadline; a zero deadline stops after the prefix.
func drive(w workload, m *meter, prefixOps, rebootEvery, mountsPerReboot int, deadline time.Time) deviceMetrics {
	fl := w.flash()
	s0, w0 := fl.Stats(), fl.WearSnapshot()
	var dm deviceMetrics
	m.prefix = true
	for i := 0; ; i++ {
		if i == prefixOps {
			d := fl.Stats().Sub(s0).Sub(m.checkCost)
			n := float64(prefixOps)
			dm = deviceMetrics{
				ops:          prefixOps,
				writeDevP99:  pct(m.writeDevUs, 0.99),
				busyPerOpUs:  us(d.Busy) / n,
				ujPerOp:      float64(d.Energy) * 1e6 / n,
				erasesPerKop: float64(d.Erases) * 1000 / n,
				maxWearKop:   float64(maxDelta(w0, fl.WearSnapshot())) * 1000 / n,
				spaceAmp:     w.spaceAmp(),
			}
			m.prefix = false
			m.prefixFP = m.fp.Sum64()
		}
		if i >= prefixOps && (deadline.IsZero() || !time.Now().Before(deadline)) {
			return dm
		}
		w.op(m)
		if rebootEvery > 0 && (i+1)%rebootEvery == 0 || rebootEvery == 0 && i+1 == prefixOps {
			for r := 0; r < mountsPerReboot; r++ {
				// Collect the ops' garbage first, so the timed mount
				// does not pay for it.
				runtime.GC()
				w.reboot(m)
			}
		}
	}
}
