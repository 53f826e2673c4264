package kvs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"sort"

	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/isc"
)

// InFlashBackend is an optional Backend extension: the in-storage compute
// surface (multi-page bitwise senses and raw byte programs) the scan index
// rides on. coreBackend implements it; backends without it (an FTL, whose
// remapping would scramble the bitmap layout) silently fall back to host
// scans.
type InFlashBackend interface {
	SenseMulti(op flash.SenseOp, pages []int, invert []bool, dst []byte) error
	ProgramByte(addr int, v byte) error
	Banks() int
	MaxSensePages() int
}

// IndexField declares one indexed attribute of the records: how many
// buckets it quantises into and how to derive a record's bucket. Extract
// may return a negative value for records the field does not apply to;
// such records match no positive predicate on the field, and — because
// negated predicates are planned as "any other bucket" to stay sound
// against stale bits — they are invisible to negated predicates on it too.
// Fields queried under Not should therefore bucket every record.
type IndexField struct {
	Name    string
	Buckets int
	Extract func(key string, val []byte) int
}

// IndexSpec configures the in-flash scan index: the slot capacity and the
// indexed fields. Keys beyond MaxKeys disable the index (scans fall back
// to the host path) rather than failing writes.
type IndexSpec struct {
	MaxKeys int
	Fields  []IndexField
}

// WithScanIndex arms predicate-pushdown scans: per-(field,bucket) bitmaps
// are kept in a carved flash region and Scan evaluates predicates inside
// the array with multi-page senses, reading only matching records.
func WithScanIndex(spec IndexSpec) Option {
	return func(s *Store) { s.scanIdx = &scanIndexState{spec: spec} }
}

// KV is one scan result.
type KV struct {
	Key string
	Val []byte
}

// scanIndexState is the store's runtime scan-index bookkeeping. Slots are
// assigned to keys on first Put and stay stable for the key's lifetime —
// across reboots too, through the slot table every checkpoint carries —
// until a rebuild renumbers them. Updates and deletes leave stale member
// bits behind (the bitmaps only ever program 1→0), which surface as
// false-positive candidates that the exact re-check on the fetched record
// filters out.
type scanIndexState struct {
	spec     IndexSpec
	names    []string // field names in spec order: the Compile schema
	digest   uint32   // field names and bucket counts, as slot tables record it
	ix       *isc.Index
	slotOf   map[string]int
	slotKey  []string // slot → key; "" marks a slot no key holds
	disabled bool     // capacity overflow or maintenance failure: host scans only

	bm      []byte // Query result, padded to whole 64-bit words
	buckets []int  // one candidate's bucket per field
}

// layoutScanIndex carves the bitmap region (below the checkpoint slots,
// when both are configured) and builds the index. Runs at mount, after
// layoutCheckpoint.
func (s *Store) layoutScanIndex() error {
	si := s.scanIdx
	if si == nil {
		return nil
	}
	si.buckets = make([]int, len(si.spec.Fields))
	for _, f := range si.spec.Fields {
		si.names = append(si.names, f.Name)
		field := binary.LittleEndian.AppendUint32(append([]byte(f.Name), 0), uint32(f.Buckets))
		si.digest = crc32.Update(si.digest, crc32.IEEETable, field)
	}
	ifb, ok := s.b.(InFlashBackend)
	if !ok {
		si.disabled = true // backend cannot sense; Scan uses the host path
		return nil
	}
	if si.spec.MaxKeys <= 0 {
		return fmt.Errorf("kvs: scan index needs MaxKeys > 0, got %d", si.spec.MaxKeys)
	}
	cfg := isc.IndexConfig{
		PageSize:      s.ps,
		Banks:         ifb.Banks(),
		MaxSensePages: ifb.MaxSensePages(),
		Slots:         si.spec.MaxKeys,
	}
	for _, f := range si.spec.Fields {
		cfg.Fields = append(cfg.Fields, isc.Field{Name: f.Name, Buckets: f.Buckets})
	}
	reserve := cfg.Pages()
	if s.np-reserve < 3 {
		return fmt.Errorf("kvs: scan index region (%d of %d pages) leaves too little data space", reserve, s.np)
	}
	s.np -= reserve
	cfg.FirstPage = s.np
	ix, err := isc.NewIndex(iscDevice{Backend: s.b, ifb: ifb}, cfg)
	if err != nil {
		return err
	}
	si.ix = ix
	si.slotOf = make(map[string]int)
	si.bm = make([]byte, (ix.BitmapBytes()+7)/8*8)
	return nil
}

// iscDevice adapts the store's backend pair to the isc device surface.
type iscDevice struct {
	Backend
	ifb InFlashBackend
}

func (d iscDevice) SenseMulti(op flash.SenseOp, pages []int, invert []bool, dst []byte) error {
	return d.ifb.SenseMulti(op, pages, invert, dst)
}

func (d iscDevice) ProgramByte(addr int, v byte) error { return d.ifb.ProgramByte(addr, v) }

// appendSlotTable appends the checkpoint slot section for keys (the
// blob's live key entries, sorted): slots(4) | digest(4) | runs(4), then
// each run as uvarint first | uvarint n — n consecutive keys holding slots
// first-1, first, … (first = 0: n keys without a slot). A rebuild numbers
// slots in key order, so a rebuilt store's table is one run; each key
// first Put since adds at most two. Tombstones hold no slot across a
// reboot: their bits are stale by definition.
func (si *scanIndexState) appendSlotTable(dst []byte, keys []string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(si.ix.Slots()))
	dst = binary.LittleEndian.AppendUint32(dst, si.digest)
	countAt := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	runs := 0
	for i := 0; i < len(keys); {
		first := 0
		if slot, ok := si.slotOf[keys[i]]; ok {
			first = slot + 1
		}
		n := 1
		for ; i+n < len(keys); n++ {
			slot, ok := si.slotOf[keys[i+n]]
			if (first == 0) != !ok || (ok && slot+1 != first+n) {
				break
			}
		}
		dst = binary.AppendUvarint(dst, uint64(first))
		dst = binary.AppendUvarint(dst, uint64(n))
		runs++
		i += n
	}
	putLEU32(dst[countAt:], uint32(runs))
	return dst
}

// decodeSlotTable parses a slot section against the blob's sorted keys
// and returns the key → slot map. A table numbered for another geometry,
// or anything malformed — a slot out of range or held twice, runs that do
// not cover the keys, trailing bytes — yields nil, and the mount rebuilds
// the index instead of trusting it.
func (si *scanIndexState) decodeSlotTable(sec []byte, keys []string) map[string]int {
	slots := si.ix.Slots()
	if len(sec) < 12 || int(leU32(sec)) != slots || leU32(sec[4:]) != si.digest {
		return nil
	}
	slotOf := make(map[string]int, len(keys))
	runs := int(leU32(sec[8:]))
	sec = sec[12:]
	held := make([]bool, slots)
	i := 0
	for r := 0; r < runs; r++ {
		first, k := binary.Uvarint(sec)
		if k <= 0 {
			return nil
		}
		n, k2 := binary.Uvarint(sec[k:])
		if k2 <= 0 || n == 0 || n > uint64(len(keys)-i) {
			return nil
		}
		sec = sec[k+k2:]
		if first == 0 {
			i += int(n)
			continue
		}
		if first > uint64(slots) || n > uint64(slots)-first+1 {
			return nil
		}
		for j := 0; j < int(n); j++ {
			slot := int(first) - 1 + j
			if held[slot] {
				return nil
			}
			held[slot] = true
			slotOf[keys[i]] = slot
			i++
		}
	}
	if i != len(keys) || len(sec) != 0 {
		return nil
	}
	return slotOf
}

// staleRebuildPct is the mount-time rebuild trigger: a checkpoint mount
// keeps the bitmaps it finds unless their stale members — Members minus
// one per live key and field — exceed this percentage of the live ones.
// Stale members cost false-positive candidate reads on every scan; a
// rebuild costs an erase of every bitmap payload page, a re-program of
// every live member and a checkpoint. The value comes from a sweep on the
// kv-scan-reboot workload (DESIGN.md, "KVS pushdown").
const staleRebuildPct = 100

// mountScanIndex brings the scan index up after the log is mounted. A
// checkpoint mount whose image carries a slot table for this geometry
// keeps the bitmaps in flash (restoreScanIndex); a scan mount, a missing
// or mismatched table, too many stale members or too few free slots
// rebuild them. replayed holds the last value the tail replay saw per key
// (nil for a tombstone).
func (s *Store) mountScanIndex(img *ckptImage, replayed map[string][]byte) error {
	if !s.ScanIndexed() {
		return nil
	}
	if img != nil && img.slotSec != nil {
		if table := s.scanIdx.decodeSlotTable(img.slotSec, img.keys); table != nil {
			ok, err := s.restoreScanIndex(table, replayed)
			if err != nil || ok {
				return err
			}
		}
	}
	return s.rebuildScanIndex()
}

// restoreScanIndex installs a checkpoint's slot table and adopts the
// bitmaps with reads only. Every key's bits were programmed before its
// record committed, at the slot the table gives it, so only the keys the
// tail replay touched (their last session may have run with the index
// disabled) and keys the table lacks need adding; the rest are already
// members. ok=false asks for a rebuild: too many stale members, or not
// enough slots left for the keys the table lacks.
func (s *Store) restoreScanIndex(table map[string]int, replayed map[string][]byte) (ok bool, err error) {
	si := s.scanIdx
	top := -1
	for _, slot := range table {
		top = max(top, slot)
	}
	si.slotOf = table
	si.slotKey = make([]string, top+1)
	for k, slot := range table {
		si.slotKey[slot] = k
	}
	if err := si.ix.Load(); err != nil {
		return false, err
	}
	var add, fresh []string
	live := 0
	for k, loc := range s.index {
		if loc.dead {
			continue
		}
		live++
		if _, ok := table[k]; !ok {
			fresh = append(fresh, k)
			add = append(add, k)
		} else if replayed[k] != nil {
			add = append(add, k)
		}
	}
	want := live * len(si.spec.Fields)
	if stale := si.ix.Members() - want; stale*100 > want*staleRebuildPct {
		return false, nil
	}
	if len(si.slotKey)+len(fresh) > si.ix.Slots() {
		return false, nil
	}
	sort.Strings(fresh)
	for _, k := range fresh {
		si.slotOf[k] = len(si.slotKey)
		si.slotKey = append(si.slotKey, k)
	}
	sort.Strings(add)
	for _, k := range add {
		val := replayed[k]
		if val == nil {
			if val, err = s.Get(k); err != nil {
				if errors.Is(err, ErrCorrupt) {
					continue // unreadable record: it cannot match a scan either
				}
				return false, err
			}
		}
		if err := s.indexRecord(si.slotOf[k], k, val); err != nil {
			return false, err
		}
	}
	return true, nil
}

// rebuildScanIndex re-derives the bitmaps from the mounted records: it
// erases their payload pages and re-adds every live key, numbering slots
// in key order (which compacts slots freed by deletes and leaves the slot
// table a single run). The checkpoint slot tables describe the numbering
// being erased, so they are revoked first; a checkpoint carrying the new
// table then replaces them.
func (s *Store) rebuildScanIndex() error {
	si := s.scanIdx
	revoked, err := s.revokeSlotTables()
	if err != nil {
		if errors.Is(err, flash.ErrPowerLoss) {
			return err
		}
		// A table that cannot be revoked must keep describing the
		// bitmaps, so they stay as they are; scans take the host path.
		si.disabled = true
		s.stats.ScanIndexDisabled++
		return nil
	}
	if err := si.ix.Reset(); err != nil {
		return err
	}
	s.stats.ScanIndexRebuilds++
	si.slotOf = make(map[string]int)
	si.slotKey = si.slotKey[:0]
	for _, key := range s.Keys() {
		val, err := s.Get(key)
		if err != nil {
			if errors.Is(err, ErrCorrupt) {
				continue // unreadable record: it cannot match a scan either
			}
			return err
		}
		if err := s.noteScanPut(key, val); err != nil {
			return err
		}
	}
	if revoked {
		if err := s.Checkpoint(); err != nil && errors.Is(err, flash.ErrPowerLoss) {
			return err
		}
	}
	return nil
}

// noteScanPut indexes a record about to be written: Put calls it before
// the append, so the bitmaps are a superset of the durable records even
// if power fails in between — a record that never commits leaves only
// stale bits. Failures degrade, never corrupt: running out of slots or a
// program error disables the index, and scans fall back to the exact host
// path — a disabled index can only cost reads, not results. Only power
// loss propagates.
func (s *Store) noteScanPut(key string, val []byte) error {
	if !s.ScanIndexed() {
		return nil
	}
	si := s.scanIdx
	slot, ok := si.slotOf[key]
	if !ok {
		if len(si.slotKey) >= si.ix.Slots() {
			si.disabled = true
			s.stats.ScanIndexDisabled++
			return nil
		}
		slot = len(si.slotKey)
		si.slotOf[key] = slot
		si.slotKey = append(si.slotKey, key)
	}
	return s.indexRecord(slot, key, val)
}

// indexRecord programs the member bits of one record at its slot, with
// noteScanPut's failure policy.
func (s *Store) indexRecord(slot int, key string, val []byte) error {
	si := s.scanIdx
	for _, f := range si.spec.Fields {
		b := f.Extract(key, val)
		if b < 0 || b >= f.Buckets {
			continue
		}
		if err := si.ix.Add(slot, f.Name, b); err != nil {
			if errors.Is(err, flash.ErrPowerLoss) {
				return err
			}
			si.disabled = true
			s.stats.ScanIndexDisabled++
			return nil
		}
	}
	return nil
}

// matches re-checks one record exactly against a compiled predicate,
// deriving only the fields the predicate reads.
func (si *scanIndexState) matches(m *isc.Matcher, key string, val []byte) bool {
	for _, i := range m.Fields() {
		si.buckets[i] = si.spec.Fields[i].Extract(key, val)
	}
	return m.Match(si.buckets)
}

// Scan returns the records matching the predicate, sorted by key. With a
// live scan index the predicate is evaluated inside the flash array —
// bitmap senses, never bitmap reads — and only candidate records are
// fetched; each candidate is re-checked exactly on its bytes, so stale
// index bits (from updates and deletes) can add reads but never wrong
// results. Without an index (none configured, backend can't sense, or the
// index degraded) the host path scans every record.
func (s *Store) Scan(p isc.Pred) ([]KV, error) {
	if !s.ScanIndexed() {
		s.stats.ScanFallbacks++
		return s.ScanHost(p)
	}
	si := s.scanIdx
	s.stats.Scans++
	// Plan the positive rewrite: index bits are a superset of the truth
	// (updates and deletes leave stale members), which only stays a
	// superset — recoverable by the re-check below — if no plan node
	// complements a bitmap. Not(Eq) becomes an In over the other buckets.
	plan := isc.Positive(p, func(field string) int {
		for _, f := range si.spec.Fields {
			if f.Name == field {
				return f.Buckets
			}
		}
		return 0
	})
	if err := si.ix.Query(plan, si.bm[:si.ix.BitmapBytes()]); err != nil {
		return nil, err
	}
	m := isc.Compile(p, si.names)
	var out []KV
	for w := 0; w < len(si.bm); w += 8 {
		for word := binary.LittleEndian.Uint64(si.bm[w:]); word != 0; word &= word - 1 {
			slot := 8*w + bits.TrailingZeros64(word)
			if slot >= len(si.slotKey) || si.slotKey[slot] == "" {
				continue // stale bit of a slot no key holds
			}
			key := si.slotKey[slot]
			loc, ok := s.index[key]
			if !ok || loc.dead {
				continue // deleted since its bits were programmed
			}
			s.stats.ScanCandidates++
			val, err := s.readRecord(key, loc)
			if err != nil {
				return nil, err
			}
			if !si.matches(m, key, val) {
				s.stats.ScanFalsePositives++
				continue // stale bit from an updated record
			}
			out = append(out, KV{Key: key, Val: val})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// ScanHost evaluates the predicate by reading every live record — the
// read-everything-to-host baseline Scan is measured against, and its
// exact-semantics oracle.
func (s *Store) ScanHost(p isc.Pred) ([]KV, error) {
	si := s.scanIdx
	if si == nil {
		si = &scanIndexState{}
	}
	m := isc.Compile(p, si.names)
	var out []KV
	for _, key := range s.Keys() {
		val, err := s.Get(key)
		if err != nil {
			return nil, err
		}
		if si.matches(m, key, val) {
			out = append(out, KV{Key: key, Val: val})
		}
	}
	return out, nil
}

// ScanIndexed reports whether scans are currently served by the in-flash
// index.
func (s *Store) ScanIndexed() bool {
	return s.scanIdx != nil && s.scanIdx.ix != nil && !s.scanIdx.disabled
}
