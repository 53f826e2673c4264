// Batch encode kernel for the MLC n-cell algorithm (§VI), compiled with the
// same find-first-break strategy as kernel.go but over per-cell-level
// geometry.
//
// The bit-chain kernel cannot be reused: its undershoot test (exact &^
// previous), its minimax table, and its tails all reason about *bits*,
// while MLC reachability is per two-bit *cell* — cell 10 → 01 is a legal
// program even though it sets a bit. Re-deriving the chain per cell (see
// DESIGN.md §14):
//
//   - Scanning MSC→LSC, output cells equal exact cells until the first
//     break: an undershoot (exact's cell level above previous's; the x > p
//     arm of NCell.Approximate) or a minimax overshoot (overshootCell
//     fires on a cell with x < p). After an undershoot every lower output
//     cell saturates to previous; after an overshoot the break cell holds
//     x+1 and every lower cell is 0.
//   - Per-cell comparisons vectorise: cellGT computes "cell of a > cell of
//     b" for every cell of a word in a handful of mask operations, leaving
//     one marker bit per cell. The highest undershoot cell bounds how far
//     overshoot candidates need probing, exactly as in the bit kernel.
//   - Probes hit a radix-4 minimax table indexed by the 2(n-1) lookahead
//     bits of exact and previous — (4^(n-1))² entries, at most 4 KiB for
//     the largest supported window (n = 4).
//   - n = 1 has no overshoot and compiles to pure mask arithmetic. Unlike
//     the bit chain, the n = 2 cell table does NOT degenerate to a single
//     mask expression (it fires on two distinct (e', p') shapes), so every
//     n ≥ 2 probes the derived table.
//   - For 8-bit values the chain folds into the same stats-carrying
//     65536-entry uint16 LUT as the bit kernel's, walked by the shared
//     encodeSpanW8; reachable 8-byte runs are bulk-skipped with one
//     word-wise cellGT64 test — which skips strictly more than the SLC
//     subset test, since cell-level decreases that set bits (10 → 01) are
//     reachable here.
//
// The kernel is bit-identical to the scalar NCell on every input;
// mlckernel_test.go proves it exhaustively for 8-bit values and by fuzzing
// (FuzzNCellKernelMatchesScalar) for 16/32-bit values.

package approx

import (
	"encoding/binary"
	mathbits "math/bits"
	"sync"

	"github.com/flipbit-sim/flipbit/internal/bits"
)

// Compile-time check: the MLC encoder batches too.
var _ BatchEncoder = (*NCell)(nil)

// SWAR masks marking the high and low bit of every two-bit cell.
const (
	cellHi32 = 0xAAAAAAAA
	cellLo32 = 0x55555555
	cellHi64 = 0xAAAAAAAAAAAAAAAA
	cellLo64 = 0x5555555555555555
)

// cellGT compares all 2-bit cells of a and b at once: the result has the
// cell's high marker bit (position 2c+1) set exactly where cell c of a is
// greater than cell c of b. A cell is greater when its high bit wins, or
// the high bits tie and its low bit wins.
func cellGT(a, b uint32) uint32 {
	return a&^b&cellHi32 | ^(a^b)&cellHi32&(a&^b&cellLo32<<1)
}

// cellGT64 is cellGT over a 64-bit word: one test covers an 8-byte run.
func cellGT64(a, b uint64) uint64 {
	return a&^b&cellHi64 | ^(a^b)&cellHi64&(a&^b&cellLo64<<1)
}

// ncellKernel is the compiled batch form of the n-cell algorithm.
type ncellKernel struct {
	n, m    int
	lowMask uint32 // 2m low bits: the lookahead cells of a window
	fire    []bool // radix-4 minimax table, indexed eLow<<(2m) | pLow

	// byteOnce/byteLUT is the 8-bit-value fast path, exactly like the bit
	// kernel's (deriveByteTable): 128 KiB per n.
	byteOnce sync.Once
	byteLUT  *[1 << 16]uint16
}

// cellKernelCache holds the compiled cell kernels, one per window size.
var cellKernelCache [MaxN/CellBits + 1]struct {
	once sync.Once
	k    *ncellKernel
}

// cachedCellKernel returns the shared compiled kernel for an n-cell window.
func cachedCellKernel(n int) *ncellKernel {
	c := &cellKernelCache[n]
	c.once.Do(func() {
		m := n - 1
		c.k = &ncellKernel{
			n:       n,
			m:       m,
			lowMask: uint32(1)<<uint(CellBits*m) - 1,
			fire:    deriveCellTable(n),
		}
	})
	return c.k
}

// deriveCellTable builds the radix-4 minimax table for an n-cell window:
// DeriveTable's worst-case comparison with the lookahead reading whole cell
// levels instead of bits. Overshoot (write x+1, zero the rest) risks at
// most (4^m − eLow) low-units; staying tight risks (eLow − g + 1) where g
// is what the greedy clamp can still recover in-window. Ties favour tight.
func deriveCellTable(n int) []bool {
	m := n - 1
	span := uint32(1) << uint(CellBits*m) // 4^m
	fire := make([]bool, uint64(span)*uint64(span))
	for eLow := uint32(0); eLow < span; eLow++ {
		for pLow := uint32(0); pLow < span; pLow++ {
			g := cellGreedyBelow(pLow, eLow, m)
			fire[eLow<<uint(CellBits*m)|pLow] = span-eLow < eLow-g+1
		}
	}
	return fire
}

// cellGreedyBelow computes the level value the greedy clamp recovers from
// the m lookahead cells: each cell takes its exact level when reachable;
// the first unreachable cell clamps to previous and saturates the rest to
// previous (the setOnes carry of NCell.Approximate restricted to the
// window). Mirrors greedyBelow with radix-4 digits.
func cellGreedyBelow(pLow, eLow uint32, m int) uint32 {
	var g uint32
	setOnes := false
	for i := m - 1; i >= 0; i-- {
		p := pLow >> uint(CellBits*i) & (cellLevels - 1)
		x := eLow >> uint(CellBits*i) & (cellLevels - 1)
		out := x
		if setOnes || x > p {
			setOnes = true
			out = p
		}
		g = g<<CellBits | out
	}
	return g
}

// byteTable derives (once) and returns the per-byte LUT.
func (k *ncellKernel) byteTable() *[1 << 16]uint16 {
	k.byteOnce.Do(func() { k.byteLUT = deriveByteTable(k.value) })
	return k.byteLUT
}

// value encodes one value through the compiled cell-break chain. Inputs
// must already be masked to the logical width; lookahead cells below cell 0
// read as zero through the shifts, matching the scalar overshootCell.
func (k *ncellKernel) value(p, e uint32) uint32 {
	u := cellGT(e, p)
	if u == 0 {
		// Every cell reachable: the greedy walk takes x everywhere, and no
		// overshoot can fire (g == eRest in every window makes the tight
		// risk exactly 1 while the overshoot risk is at least 1).
		return e
	}
	// Highest undershoot cell: u marks cell c at bit 2c+1.
	hU := (mathbits.Len32(u) - 2) / CellBits
	// Overshoot candidates (cells where previous exceeds exact) strictly
	// above the undershoot; below it the undershoot already broke the
	// chain. A shift count of 32 (hU == 15) clears every candidate.
	cand := cellGT(p, e) &^ (uint32(1)<<uint(CellBits*hU+2) - 1)
	m := k.m
	for cand != 0 {
		i := (mathbits.Len32(cand) - 2) / CellBits
		var eLow, pLow uint32
		if i >= m {
			sh := uint(CellBits * (i - m))
			eLow = e >> sh & k.lowMask
			pLow = p >> sh & k.lowMask
		} else {
			sh := uint(CellBits * (m - i))
			eLow = e << sh & k.lowMask
			pLow = p << sh & k.lowMask
		}
		if k.fire[eLow<<uint(CellBits*m)|pLow] {
			// Minimax overshoot at cell i: exact above, level x+1 at i,
			// zeros below. x < p ≤ 3, so x+1 stays within the cell.
			x := e >> uint(CellBits*i) & (cellLevels - 1)
			return e&^(uint32(1)<<uint(CellBits*(i+1))-1) | (x+1)<<uint(CellBits*i)
		}
		cand &^= uint32(1) << uint(CellBits*i+1)
	}
	// Undershoot at hU: exact above, previous at and below (the saturated
	// setOnes tail writes previous's level into every remaining cell).
	low := uint32(1)<<uint(CellBits*(hU+1)) - 1
	return e&^low | p&low
}

// ncell1Value is the compiled n = 1 chain: no lookahead, no overshoot —
// clamp at the highest unreachable cell and saturate below.
func ncell1Value(p, e uint32) uint32 {
	u := cellGT(e, p)
	if u == 0 {
		return e
	}
	hU := (mathbits.Len32(u) - 2) / CellBits
	low := uint32(1)<<uint(CellBits*(hU+1)) - 1
	return e&^low | p&low
}

// encodeSpanCell is the MLC slice walker: like encodeSpan but with the
// cell-wise reachability test for the 8-byte bulk skip, which also skips
// runs whose cells only *decrease* while setting bits (10 → 01).
func encodeSpanCell(prev, exact, approx []byte, w bits.Width, fn func(p, e uint32) uint32) BatchStats {
	var st BatchStats
	vb := w.Bytes()
	end := len(exact) / vb * vb
	perChunk := uint64(8 / vb)
	i := 0
	for i < end {
		if i+8 <= end &&
			cellGT64(binary.LittleEndian.Uint64(exact[i:]), binary.LittleEndian.Uint64(prev[i:])) == 0 {
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

// EncodeSlice implements BatchEncoder: the batch form of the §VI n-cell
// algorithm. Outputs are reachable from prev under MLC semantics by
// construction (every cell level only decreases), so Unreachable is always
// false — matching the per-byte verdict the scalar controller path reaches.
func (e *NCell) EncodeSlice(prev, exact, approx []byte, w bits.Width) BatchStats {
	k := e.kern
	if w == bits.W8 {
		return encodeSpanW8(prev, exact, approx, k.byteTable(), true)
	}
	if e.n == 1 {
		return encodeSpanCell(prev, exact, approx, w, ncell1Value)
	}
	return encodeSpanCell(prev, exact, approx, w, k.value)
}
