// Batch encode kernels: the buffer-granular form of the §III-A algorithms.
//
// The scalar encoders walk one bit per iteration, calling Table.Decide 8/16/32
// times per value behind an interface dispatch. The paper's hardware performs
// the same chain in a single combinational pass (Fig. 6/7); this file is the
// software analogue. Each encoder that can be compiled exposes EncodeSlice,
// which encodes a whole buffer span and computes the page error statistics
// in-kernel, so the controller issues one call per page instead of one
// interface call (plus ~2·width table steps) per value.
//
// Compilation strategy, per window size n (see DESIGN.md §9 for the full
// derivation, including why a (carry, prevByte, exactByte)-indexed byte
// transducer is NOT sound for n ≥ 2):
//
//   - The setOnes/setZeros carry chain collapses into a find-first-break
//     formulation: scanning MSB→LSB, output bits equal exact bits until the
//     first *break* — either an undershoot (previous denies a wanted bit;
//     Algorithm 1 line 9) or a minimax overshoot (the Table fires). After an
//     undershoot every lower output bit equals the corresponding previous
//     bit; after an overshoot every lower output bit is 0. Both tails are
//     two mask operations.
//   - Undershoot candidates are one word op (exact &^ previous); the highest
//     one bounds how far overshoot candidates (previous &^ exact) need
//     probing. Probes hit the derived minimax table directly — 4^(n-1)
//     entries, at most 16 KiB for n = 8 — instead of re-deciding per bit.
//   - For n = 1 no overshoot exists and for n = 2 the table degenerates to
//     "next exact bit wanted but not available", so both compile to pure
//     word-parallel mask arithmetic with zero probes.
//   - For 8-bit values the whole chain folds into one lazily derived
//     65536-entry uint16 LUT indexed by (prevByte, exactByte) that carries
//     the error with the result: low byte the approximate value, high byte
//     |exact − approx|. One table hit per value yields both the output and
//     the page statistics, so the W8 walker accumulates them without a
//     subtraction or a branch. (Wider values cannot use a per-byte LUT: the
//     minimax lookahead window crosses byte boundaries.)
//   - Spans where exact is already reachable from previous are detected
//     eight bytes at a time (exact &^ previous == 0 over uint64 loads) and
//     copied through without entering the per-value path — the bulk-bitwise
//     trick of Flash-Cosmos/MCFlash applied to the common mostly-erased and
//     rewrite-in-place cases. The W8 walker (encodeSpanW8) is shared with the
//     MLC cell kernel: it walks whole 8-byte chunks, and one argument picks
//     the chunk test — this subset test or the cell-wise cellGT64.
//
// Every kernel is bit-identical to its scalar encoder; kernel_test.go proves
// it exhaustively for 8-bit values and by fuzzing for 16/32-bit values
// (FuzzBatchKernelMatchesScalar), including the carry-across-byte-boundary
// cases.

package approx

import (
	"encoding/binary"
	mathbits "math/bits"
	"sync"

	"github.com/flipbit-sim/flipbit/internal/bits"
)

// BatchStats is the accounting EncodeSlice computes in-kernel, mirroring
// exactly what the controller's scalar encode loop accumulates per value:
// the error tracker sums, the approximated-value count, and reachability.
type BatchStats struct {
	Count        uint64 // values encoded
	Approximated uint64 // values where approx != exact
	SumAbs       uint64 // Σ |exact − approx|
	SumSq        uint64 // Σ (exact − approx)²
	MaxAbs       uint32 // max |exact − approx| over the span
	Unreachable  bool   // some output value is not programmable over prev
}

// add folds one (exact, approx) pair into the stats.
func (st *BatchStats) add(exact, approx uint32) {
	d := bits.AbsDiff(exact, approx)
	st.Count++
	st.SumAbs += uint64(d)
	st.SumSq += uint64(d) * uint64(d)
	if d > st.MaxAbs {
		st.MaxAbs = d
	}
	if approx != exact {
		st.Approximated++
	}
}

// BatchEncoder is implemented by encoders whose Algorithm-2 bit chain has
// been compiled into a batch kernel. EncodeSlice encodes the whole span
// prev/exact into approx (all three the same length, a multiple of
// w.Bytes(), values little-endian) and returns the in-kernel statistics.
//
// Reachability in BatchStats.Unreachable is judged under the cell
// semantics the kernel was compiled for: the bit kernels produce bitwise
// subsets (reachable on every cell mode, Unreachable always false), Exact
// reports the SLC word-wise subset test, and the NCell kernel's outputs
// are MLC-reachable by construction. The controller engages a kernel only
// on cell modes where its verdict and outputs are sound — see
// core.kernelEngages — and falls back to the scalar encoders otherwise.
// The scalar path remains the differential-test oracle: EncodeSlice must
// be bit-identical to width-wise calls of Approximate.
type BatchEncoder interface {
	Encoder
	EncodeSlice(prev, exact, approx []byte, w bits.Width) BatchStats
}

// Compile-time interface checks: the three hot-path encoders batch.
var (
	_ BatchEncoder = Exact{}
	_ BatchEncoder = OneBit{}
	_ BatchEncoder = (*NBit)(nil)
)

// kernel is the compiled batch form of the n-bit algorithm.
type kernel struct {
	n, m    int
	lowMask uint32 // m low bits: the lookahead field of a window
	fire    []bool // the minimax table, indexed eLow<<m | pLow

	// byteOnce/byteLUT is the 8-bit-value fast path, indexed by
	// prevByte<<8 | exactByte: the approx byte in the low half of each
	// entry, |exact − approx| in the high half. Derived on first W8 use
	// (128 KiB per n).
	byteOnce sync.Once
	byteLUT  *[1 << 16]uint16
}

// kernelCache holds the compiled kernels, one per window size, derived
// lazily exactly like tableCache.
var kernelCache [MaxN + 1]struct {
	once sync.Once
	k    *kernel
}

// cachedKernel returns the shared compiled kernel for window size n.
func cachedKernel(n int) *kernel {
	c := &kernelCache[n]
	c.once.Do(func() {
		c.k = &kernel{
			n:       n,
			m:       n - 1,
			lowMask: uint32(1)<<uint(n-1) - 1,
			fire:    cachedTable(n).overshoot,
		}
	})
	return c.k
}

// byteTable derives (once) and returns the per-byte LUT.
func (k *kernel) byteTable() *[1 << 16]uint16 {
	k.byteOnce.Do(func() { k.byteLUT = deriveByteTable(k.value) })
	return k.byteLUT
}

// deriveByteTable folds an 8-bit encode chain into the stats-carrying LUT
// encodeSpanW8 walks: entry prevByte<<8 | exactByte holds the approximate
// byte in its low half and |exact − approx| in its high half.
func deriveByteTable(value func(p, e uint32) uint32) *[1 << 16]uint16 {
	lut := new([1 << 16]uint16)
	for p := uint32(0); p < 256; p++ {
		for e := uint32(0); e < 256; e++ {
			a := value(p, e)
			lut[p<<8|e] = uint16(bits.AbsDiff(e, a))<<8 | uint16(a)
		}
	}
	return lut
}

// value encodes one value through the compiled break-position chain. Inputs
// must already be masked to the logical width; windows below bit 0 read as
// zero through the shifts, matching the Fig. 7 zero padding.
func (k *kernel) value(p, e uint32) uint32 {
	u := e &^ p
	if u == 0 {
		return e // exact is reachable: identity, and no overshoot can fire
	}
	hU := mathbits.Len32(u) - 1
	// Overshoot candidates strictly above the highest undershoot; below it
	// the undershoot already broke the chain. (A shift count of 32 yields 0,
	// so hU == 31 clears every candidate.)
	c := p &^ e &^ (uint32(1)<<uint(hU+1) - 1)
	m := uint(k.m)
	for c != 0 {
		i := mathbits.Len32(c) - 1
		var eLow, pLow uint32
		if i >= k.m {
			sh := uint(i) - m
			eLow = e >> sh & k.lowMask
			pLow = p >> sh & k.lowMask
		} else {
			sh := m - uint(i)
			eLow = e << sh & k.lowMask
			pLow = p << sh & k.lowMask
		}
		if k.fire[eLow<<m|pLow] {
			// Minimax overshoot at i: exact above, 1 at i, zeros below.
			return e&^(uint32(1)<<uint(i+1)-1) | uint32(1)<<uint(i)
		}
		c &^= uint32(1) << uint(i)
	}
	// Undershoot at hU: exact above, previous at and below (previous has a
	// 0 at hU itself — that is what made it the break).
	low := uint32(1)<<uint(hU+1) - 1
	return e&^low | p&low
}

// oneBitValue is the compiled Algorithm 1: undershoot at the highest
// blocked-want bit, previous below. No overshoot exists for n = 1.
func oneBitValue(p, e uint32) uint32 {
	u := e &^ p
	if u == 0 {
		return e
	}
	low := uint32(1)<<uint(mathbits.Len32(u)) - 1
	return e&^low | p&low
}

// nbit2Value is the compiled n = 2 chain: the minimax table degenerates to
// "the next exact bit is wanted but previous cannot supply it", which makes
// the overshoot-candidate mask one shift expression — zero table probes.
func nbit2Value(p, e uint32) uint32 {
	u := e &^ p
	o := p &^ e & (e << 1) &^ (p << 1)
	br := u | o
	if br == 0 {
		return e
	}
	j := mathbits.Len32(br) - 1
	low := uint32(1)<<uint(j+1) - 1
	if u>>uint(j)&1 == 1 {
		return e&^low | p&low
	}
	return e&^low | uint32(1)<<uint(j)
}

// encodeSpan is the shared slice walker: it bulk-skips reachable 8-byte
// runs, dispatches the remaining values through fn, and accumulates the
// in-kernel statistics. fn receives width-masked inputs.
func encodeSpan(prev, exact, approx []byte, w bits.Width, fn func(p, e uint32) uint32) BatchStats {
	var st BatchStats
	vb := w.Bytes()
	end := len(exact) / vb * vb
	perChunk := uint64(8 / vb)
	i := 0
	for i < end {
		// Bulk fast path: if no bit of the next 8 bytes needs a 0→1 flip,
		// every value in them encodes to itself (the identity invariant) —
		// one uint64 test replaces 8/vb kernel dispatches. This is what
		// makes rewrites of mostly-unchanged or freshly erased pages cheap.
		if i+8 <= end &&
			binary.LittleEndian.Uint64(exact[i:])&^binary.LittleEndian.Uint64(prev[i:]) == 0 {
			copy(approx[i:i+8], exact[i:i+8])
			st.Count += perChunk
			i += 8
			continue
		}
		p := bits.LoadLE(prev[i:], w)
		e := bits.LoadLE(exact[i:], w)
		a := fn(p, e)
		bits.StoreLE(approx[i:], a, w)
		st.add(e, a)
		i += vb
	}
	return st
}

// reachable64 is encodeSpanW8's chunk skip test: it reports whether every
// value in the 8-byte chunk is programmable over previous as is, so each
// one encodes to itself (the identity invariant). The bit kernels need no
// 0→1 flip; with cell set, the MLC kernel needs no cell level to rise,
// which also passes cell decreases that set bits (10 → 01).
func reachable64(p, e uint64, cell bool) bool {
	if cell {
		return cellGT64(e, p) == 0
	}
	return e&^p == 0
}

// encodeSpanW8 is the one 8-bit-value walker, shared by the bit and cell
// kernels: cell selects the chunk skip test (reachable64), lut the chain.
// It walks whole 8-byte chunks — one verdict decides between a bulk copy
// and eight LUT hits — and reads each value's error out of the LUT's high
// byte into branch-free sums. A byte tail covers spans whose length is not
// a multiple of 8.
func encodeSpanW8(prev, exact, approx []byte, lut *[1 << 16]uint16, cell bool) BatchStats {
	n := len(exact)
	prev, approx = prev[:n], approx[:n]
	var acc w8Acc
	i := 0
	for ; i+8 <= n; i += 8 {
		pc, ec, ac := (*[8]byte)(prev[i:]), (*[8]byte)(exact[i:]), (*[8]byte)(approx[i:])
		if reachable64(binary.LittleEndian.Uint64(pc[:]), binary.LittleEndian.Uint64(ec[:]), cell) {
			*ac = *ec
			continue
		}
		for k := range ac {
			v := lut[uint16(pc[k])<<8|uint16(ec[k])]
			ac[k] = byte(v)
			acc = acc.add(v)
		}
	}
	for ; i < n; i++ {
		v := lut[uint16(prev[i])<<8|uint16(exact[i])]
		approx[i] = byte(v)
		acc = acc.add(v)
	}
	return BatchStats{
		Count:        uint64(n),
		Approximated: acc.approximated,
		SumAbs:       acc.sumAbs,
		SumSq:        acc.sumSq,
		MaxAbs:       uint32(acc.maxAbs),
	}
}

// w8Acc is encodeSpanW8's running statistics. Four words, passed by value,
// so the compiler keeps them in registers across the walk.
type w8Acc struct{ sumAbs, sumSq, maxAbs, approximated uint64 }

// add folds one LUT entry's error (its high byte) in without a branch.
func (s w8Acc) add(v uint16) w8Acc {
	d := uint64(v >> 8)
	s.sumAbs += d
	s.sumSq += d * d
	s.maxAbs = max(s.maxAbs, d)
	s.approximated += -d >> 63 // 1 exactly when d != 0
	return s
}

// EncodeSlice implements BatchEncoder: the batch form of Algorithm 2.
func (enc *NBit) EncodeSlice(prev, exact, approx []byte, w bits.Width) BatchStats {
	k := enc.kern
	if w == bits.W8 {
		return encodeSpanW8(prev, exact, approx, k.byteTable(), false)
	}
	switch enc.n {
	case 1:
		return encodeSpan(prev, exact, approx, w, oneBitValue)
	case 2:
		return encodeSpan(prev, exact, approx, w, nbit2Value)
	default:
		return encodeSpan(prev, exact, approx, w, k.value)
	}
}

// EncodeSlice implements BatchEncoder: the batch form of Algorithm 1.
func (OneBit) EncodeSlice(prev, exact, approx []byte, w bits.Width) BatchStats {
	if w == bits.W8 {
		// Algorithm 1 is the n = 1 chain; share its byte LUT.
		return encodeSpanW8(prev, exact, approx, cachedKernel(1).byteTable(), false)
	}
	return encodeSpan(prev, exact, approx, w, oneBitValue)
}

// EncodeSlice implements BatchEncoder for the pass-through encoder: the
// output is the exact data, the error is zero, and reachability is the
// word-wise subset test the conventional write path performs.
func (Exact) EncodeSlice(prev, exact, approx []byte, w bits.Width) BatchStats {
	var st BatchStats
	vb := w.Bytes()
	end := len(exact) / vb * vb
	st.Count = uint64(end / vb)
	copy(approx[:end], exact[:end])
	st.Unreachable = !bits.SubsetBytes(exact[:end], prev[:end])
	return st
}
