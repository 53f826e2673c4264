package main

import (
	"fmt"
	"math"
	"time"

	"github.com/flipbit-sim/flipbit/internal/approx"
	"github.com/flipbit-sim/flipbit/internal/bits"
	"github.com/flipbit-sim/flipbit/internal/core"
	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/ftl"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

const (
	framePages     = 512 // device size: the frame's 16 pages plus cold pages
	frameSide      = 64
	frameBytes     = frameSide * frameSide // one W8 value per pixel: 16 pages of 256 B
	frameThreshold = 2.0                   // MAE gate, the Fig. 10 operating point
)

// frameConfig describes the frame-capture workload.
type frameConfig struct {
	spares int // FTL retirement pool
	// warmupFrames are captured during set-up, so wear leveling and the
	// FTL journal are in their steady state when timing starts.
	warmupFrames int
	prefixFrames int // deterministic prefix the device metrics cover
	rebootEvery  int // remount the FTL every this many frames
	setupReps    int
	coldChecks   int // cold pages re-read after every remount
}

var frameCapture = frameConfig{spares: 8, warmupFrames: 2000, prefixFrames: 8000, rebootEvery: 200, setupReps: 5, coldChecks: 8}

// frameGen synthesises a sensor stream: a textured static background,
// sensor noise whose level changes every 128 frames, three bright objects
// that move and bounce, and a global flicker one frame in 64. The seed
// places the objects, orders the noise levels and phases the flicker, but
// every seed has the same amount of motion, noise and flicker, so a run's
// device costs depend little on it.
type frameGen struct {
	rng       *xrand.RNG
	bg        []byte
	objs      []frameObj
	order     []int // noise levels, one per 128-frame block, cycled
	flickerAt int   // the frame of every 64 that flickers
	noise     int
	n         int
}

type frameObj struct {
	x, y, vx, vy float64
	r            float64
	level        byte
}

var noiseLevels = [...]int{0, 1, 2, 4}

func newFrameGen(seed uint64) *frameGen {
	g := &frameGen{rng: xrand.New(seed*0xD1B54A32D192ED03 + 7), bg: make([]byte, frameBytes)}
	for y := 0; y < frameSide; y++ {
		for x := 0; x < frameSide; x++ {
			g.bg[y*frameSide+x] = byte(40 + x + y/2 + g.rng.Intn(24))
		}
	}
	// Every object moves one pixel per frame, on a diagonal-ish heading,
	// so the seed changes where motion happens but not how much of it.
	for i := 0; i < 3; i++ {
		a := (20 + 50*g.rng.Float64()) * math.Pi / 180
		g.objs = append(g.objs, frameObj{
			x: float64(g.rng.Intn(frameSide)), y: float64(g.rng.Intn(frameSide)),
			vx: math.Cos(a), vy: math.Sin(a),
			r: 6, level: byte(200 + g.rng.Intn(50)),
		})
	}
	g.order = g.rng.Perm(len(noiseLevels))
	g.flickerAt = g.rng.Intn(64)
	return g
}

func (g *frameGen) next(dst []byte) {
	if g.n%128 == 0 {
		g.noise = noiseLevels[g.order[g.n/128%len(g.order)]]
	}
	g.n++
	flicker := 0
	if g.n%64 == g.flickerAt {
		flicker = 8 + g.rng.Intn(17)
	}
	for i, b := range g.bg {
		v := int(b) + flicker
		if g.noise > 0 {
			v += g.rng.Intn(2*g.noise+1) - g.noise
		}
		dst[i] = byte(min(255, max(0, v)))
	}
	for i := range g.objs {
		o := &g.objs[i]
		for y := max(0, int(o.y-o.r)); y < min(frameSide, int(o.y+o.r)+1); y++ {
			for x := max(0, int(o.x-o.r)); x < min(frameSide, int(o.x+o.r)+1); x++ {
				if dx, dy := float64(x)-o.x, float64(y)-o.y; dx*dx+dy*dy <= o.r*o.r {
					dst[y*frameSide+x] = o.level
				}
			}
		}
		o.x += o.vx
		o.y += o.vy
		if o.x < 0 || o.x >= frameSide {
			o.vx = -o.vx
		}
		if o.y < 0 || o.y >= frameSide {
			o.vy = -o.vy
		}
	}
}

// coldPage fills dst with the cold data of logical page lp.
func coldPage(seed uint64, lp int, dst []byte) {
	r := xrand.New(seed ^ uint64(lp)*0x9E3779B97F4A7C15)
	for i := range dst {
		dst[i] = r.Byte()
	}
}

// newApproxDevice builds the default NOR part, cut to framePages pages,
// with its whole array approximate at the frame threshold.
func newApproxDevice(opts ...core.Option) (*core.Device, error) {
	spec := flash.DefaultSpec()
	spec.NumPages = framePages
	dev, err := core.NewDevice(spec, opts...)
	if err != nil {
		return nil, err
	}
	if err := dev.SetApproxRegion(0, spec.Size()); err != nil {
		return nil, err
	}
	dev.SetThreshold(frameThreshold)
	return dev, nil
}

// frameWorkload writes each frame in place at logical address 0 of a
// journaled FTL, next to cold logical pages, and reads it back.
type frameWorkload struct {
	cfg  *frameConfig
	seed uint64
	dev  *core.Device
	f    *ftl.FTL
	rec  *recorder

	gen         *frameGen
	chk         *xrand.RNG
	frame, back []byte
	retired     []ftl.Stats // stats of FTLs replaced by remounts

	frames         int
	errSum, values uint64 // stored error over every read-back frame
}

func newFrame(cfg *frameConfig, seed uint64, rec *recorder) (*frameWorkload, error) {
	var opts []core.Option
	if rec != nil {
		opts = append(opts, core.WithObserver(rec))
	}
	dev, err := newApproxDevice(opts...)
	if err != nil {
		return nil, err
	}
	f, err := ftl.Open(dev, ftl.WithSpares(cfg.spares))
	if err != nil {
		return nil, err
	}
	w := &frameWorkload{
		cfg: cfg, seed: seed, dev: dev, f: f, rec: rec,
		gen: newFrameGen(seed), chk: xrand.New(seed*0xD1B54A32D192ED03 + 8),
		frame: make([]byte, frameBytes), back: make([]byte, frameBytes),
	}
	ps := f.PageSize()
	page := make([]byte, ps)
	for lp := frameBytes / ps; lp < f.NumPages(); lp++ {
		coldPage(seed, lp, page)
		if err := f.Write(lp*ps, page); err != nil {
			return nil, fmt.Errorf("cold fill page %d: %w", lp, err)
		}
	}
	for n := 0; n < cfg.warmupFrames; n++ {
		w.gen.next(w.frame)
		if err := f.Write(0, w.frame); err != nil {
			return nil, fmt.Errorf("warm-up frame %d: %w", n, err)
		}
	}
	return w, nil
}

func (w *frameWorkload) flash() *flash.Device { return w.dev.Flash() }

// spaceAmp is physical pages per logical page: the FTL's journal, swap
// scratch and spare pool.
func (w *frameWorkload) spaceAmp() float64 {
	return float64(w.dev.Flash().Spec().NumPages) / float64(w.f.NumPages())
}

func (w *frameWorkload) totals() totals {
	fl := w.dev.Flash()
	return totals{
		Flash: fl.Stats(), Core: w.dev.Stats(),
		FTL:  append(append([]ftl.Stats(nil), w.retired...), w.f.Stats()),
		Wear: fl.WearSnapshot(),
	}
}

// op captures one frame: write it through the FTL, read it back.
func (w *frameWorkload) op(m *meter) {
	w.gen.next(w.frame)
	m.fp.Write(w.frame)
	fl := w.dev.Flash()
	var busy0 time.Duration
	if m.prefix {
		busy0 = fl.Stats().Busy
	}
	var werr, rerr error
	dtW := w.rec.timed(spanFTLWrite, func() { werr = w.f.Write(0, w.frame) })
	if m.prefix {
		m.writeDevUs = append(m.writeDevUs, us(fl.Stats().Busy-busy0))
	}
	dtR := w.rec.timed(spanFTLRead, func() { rerr = w.f.Read(0, w.back) })
	m.opDone(dtW + dtR)
	m.writeHost = append(m.writeHost, us(dtW))
	m.readHost = append(m.readHost, us(dtR))
	w.frames++
	if werr != nil || rerr != nil {
		m.fail("frame %d: write %v, read %v", w.frames, werr, rerr)
		return
	}
	sum, err := checkFrame(w.back, w.frame, w.f.PageSize(), frameThreshold)
	w.errSum += sum
	w.values += frameBytes
	if err != nil {
		m.fail("frame %d: %v", w.frames, err)
	}
}

// reboot remounts the FTL, then checks that the last frame reads back
// exactly as it did before and that a sample of cold pages is intact.
func (w *frameWorkload) reboot(m *meter) {
	w.retired = append(w.retired, w.f.Stats())
	var f *ftl.FTL
	var err error
	m.mountDone(w.rec.timed(spanMount, func() { f, err = ftl.Open(w.dev, ftl.WithSpares(w.cfg.spares)) }))
	if err != nil {
		m.fail("remount: %v", err)
		return
	}
	w.f = f
	m.checked(w.dev.Flash(), func() {
		i := w.rec.begin(spanCheck)
		defer w.rec.end(i)
		got := make([]byte, frameBytes)
		if err := f.Read(0, got); err != nil || string(got) != string(w.back) {
			m.fail("after remount: frame differs from its pre-reboot read-back (err %v)", err)
		}
		ps := f.PageSize()
		want, page := make([]byte, ps), make([]byte, ps)
		cold := f.NumPages() - frameBytes/ps
		for j := 0; j < w.cfg.coldChecks; j++ {
			lp := frameBytes/ps + w.chk.Intn(cold)
			coldPage(w.seed, lp, want)
			if err := f.Read(lp*ps, page); err != nil || string(page) != string(want) {
				m.fail("after remount: cold page %d differs (err %v)", lp, err)
			}
		}
	})
}

// replayFrames writes the same frame stream to a bare core device: the
// warm-up frames untraced, then the measured frames with spans around the
// approx encode of each (previous stored page, new page) pair and around
// the core write and read. The per-layer ledger uses them to separate FTL
// cost from core cost.
func replayFrames(seed uint64, warmup, frames int, rec *recorder) error {
	dev, err := newApproxDevice()
	if err != nil {
		return err
	}
	be, ok := dev.Encoder().(approx.BatchEncoder)
	if !ok {
		return fmt.Errorf("replay: encoder %s has no batch kernel", dev.Encoder().Name())
	}
	fl := dev.Flash()
	ps := fl.Spec().PageSize
	gen := newFrameGen(seed)
	frame, prev, out, back := make([]byte, frameBytes), make([]byte, frameBytes), make([]byte, frameBytes), make([]byte, frameBytes)
	for n := 0; n < warmup; n++ {
		gen.next(frame)
		if err := dev.Write(0, frame); err != nil {
			return fmt.Errorf("replay warm-up %d: %w", n, err)
		}
	}
	for n := 0; n < frames; n++ {
		gen.next(frame)
		for p := 0; p < frameBytes/ps; p++ {
			fl.PeekPage(p, prev[p*ps:])
		}
		rec.timed(spanReplayEncode, func() {
			for o := 0; o < frameBytes; o += ps {
				be.EncodeSlice(prev[o:o+ps], frame[o:o+ps], out[o:o+ps], bits.W8)
			}
		})
		var err error
		if rec.timed(spanReplayWrite, func() { err = dev.Write(0, frame) }); err != nil {
			return fmt.Errorf("replay write %d: %w", n, err)
		}
		if rec.timed(spanReplayRead, func() { err = dev.Read(0, back) }); err != nil {
			return fmt.Errorf("replay read %d: %w", n, err)
		}
	}
	return nil
}
