package approx

import (
	"testing"

	"github.com/flipbit-sim/flipbit/internal/bits"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// Encoder micro-benchmarks: the controller calls these once per value per
// committed page, so per-op cost matters for simulation throughput.

func benchPairs(n int) ([]uint32, []uint32) {
	rng := xrand.New(1)
	p := make([]uint32, n)
	e := make([]uint32, n)
	for i := range p {
		p[i], e[i] = rng.Uint32(), rng.Uint32()
	}
	return p, e
}

func benchEncoder(b *testing.B, enc Encoder, w bits.Width) {
	b.Helper()
	p, e := benchPairs(1024)
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += enc.Approximate(p[i%1024], e[i%1024], w)
	}
	_ = sink
}

func BenchmarkOneBit32(b *testing.B)  { benchEncoder(b, OneBit{}, bits.W32) }
func BenchmarkNBit2W8(b *testing.B)   { benchEncoder(b, MustNBit(2), bits.W8) }
func BenchmarkNBit2W32(b *testing.B)  { benchEncoder(b, MustNBit(2), bits.W32) }
func BenchmarkNBit8W32(b *testing.B)  { benchEncoder(b, MustNBit(8), bits.W32) }
func BenchmarkOptimal32(b *testing.B) { benchEncoder(b, Optimal{}, bits.W32) }
func BenchmarkNCell2W8(b *testing.B)  { benchEncoder(b, MustNCell(2), bits.W8) }

func BenchmarkDeriveTable8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		DeriveTable(8)
	}
}

// Batch-kernel benchmarks (kernel.go): EncodeSlice against the scalar
// per-value reference loop over the same 4 KiB span. The scalar variants
// replicate what the controller's encode stage did before the kernels —
// LoadLE + interface Approximate + StoreLE per value.

func benchSpans(n int) (prev, exact, approx []byte) {
	rng := xrand.New(1)
	prev = make([]byte, n)
	exact = make([]byte, n)
	approx = make([]byte, n)
	for i := range prev {
		prev[i], exact[i] = rng.Byte(), rng.Byte()
	}
	return prev, exact, approx
}

// frameSpans builds the (prev, exact) pairs a frame capture encodes: prev
// is a stored 64×64 W8 frame and exact the next one — the same textured
// background with fresh ±2 sensor noise and a bright 16×16 object moved to
// a new spot, the way the FTL's frame rig builds its frames.
func frameSpans() (prev, exact, approx []byte) {
	const side, frameBytes = 64, 64 * 64
	rng := xrand.New(42)
	bg := make([]byte, frameBytes)
	for i := range bg {
		bg[i] = byte(40 + i%side + rng.Intn(24))
	}
	frame := func() []byte {
		fr := make([]byte, frameBytes)
		for i, v := range bg {
			fr[i] = v + byte(rng.Intn(5)) - 2
		}
		x, y := rng.Intn(side-16), rng.Intn(side-16)
		for dy := 0; dy < 16; dy++ {
			for dx := 0; dx < 16; dx++ {
				fr[(y+dy)*side+x+dx] = 230
			}
		}
		return fr
	}
	prev = frame()
	exact = frame()
	return prev, exact, make([]byte, frameBytes)
}

func benchEncodeSlice(b *testing.B, enc BatchEncoder, w bits.Width) {
	b.Helper()
	prev, exact, approx := benchSpans(4096)
	benchEncodeSpans(b, enc, w, prev, exact, approx)
}

func benchEncodeSpans(b *testing.B, enc BatchEncoder, w bits.Width, prev, exact, approx []byte) {
	b.Helper()
	enc.EncodeSlice(prev, exact, approx, w) // derive lazy LUTs up front
	b.SetBytes(int64(len(exact)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.EncodeSlice(prev, exact, approx, w)
	}
}

func benchEncodeScalarSpan(b *testing.B, enc Encoder, w bits.Width) {
	b.Helper()
	prev, exact, approx := benchSpans(4096)
	vb := w.Bytes()
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j+vb <= len(exact); j += vb {
			p := bits.LoadLE(prev[j:], w)
			e := bits.LoadLE(exact[j:], w)
			bits.StoreLE(approx[j:], enc.Approximate(p, e, w), w)
		}
	}
}

func BenchmarkEncodeSliceOneBitW32(b *testing.B) { benchEncodeSlice(b, OneBit{}, bits.W32) }
func BenchmarkEncodeSliceNBit2W8(b *testing.B)   { benchEncodeSlice(b, MustNBit(2), bits.W8) }
func BenchmarkEncodeSliceNBit2W32(b *testing.B)  { benchEncodeSlice(b, MustNBit(2), bits.W32) }
func BenchmarkEncodeSliceNBit8W32(b *testing.B)  { benchEncodeSlice(b, MustNBit(8), bits.W32) }
func BenchmarkEncodeSliceExactW32(b *testing.B)  { benchEncodeSlice(b, Exact{}, bits.W32) }

func BenchmarkEncodeScalarOneBitW32(b *testing.B) { benchEncodeScalarSpan(b, OneBit{}, bits.W32) }
func BenchmarkEncodeScalarNBit2W8(b *testing.B)   { benchEncodeScalarSpan(b, MustNBit(2), bits.W8) }
func BenchmarkEncodeScalarNBit2W32(b *testing.B)  { benchEncodeScalarSpan(b, MustNBit(2), bits.W32) }
func BenchmarkEncodeScalarNBit8W32(b *testing.B)  { benchEncodeScalarSpan(b, MustNBit(8), bits.W32) }

func BenchmarkEncodeSliceNCell2W8(b *testing.B)  { benchEncodeSlice(b, MustNCell(2), bits.W8) }
func BenchmarkEncodeSliceNCell2W32(b *testing.B) { benchEncodeSlice(b, MustNCell(2), bits.W32) }
func BenchmarkEncodeSliceNCell4W32(b *testing.B) { benchEncodeSlice(b, MustNCell(4), bits.W32) }

func BenchmarkEncodeScalarNCell2W8(b *testing.B)  { benchEncodeScalarSpan(b, MustNCell(2), bits.W8) }
func BenchmarkEncodeScalarNCell2W32(b *testing.B) { benchEncodeScalarSpan(b, MustNCell(2), bits.W32) }
func BenchmarkEncodeScalarNCell4W32(b *testing.B) { benchEncodeScalarSpan(b, MustNCell(4), bits.W32) }

// The frame-shaped variants encode what frame-capture encodes: dense
// near-diagonal (prev, exact) pairs instead of independent random bytes.
func BenchmarkEncodeSliceNBit2W8Frame(b *testing.B) {
	prev, exact, approx := frameSpans()
	benchEncodeSpans(b, MustNBit(2), bits.W8, prev, exact, approx)
}

func BenchmarkEncodeSliceNCell2W8Frame(b *testing.B) {
	prev, exact, approx := frameSpans()
	benchEncodeSpans(b, MustNCell(2), bits.W8, prev, exact, approx)
}
