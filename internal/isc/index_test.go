package isc

import (
	"errors"
	"testing"

	"github.com/flipbit-sim/flipbit/internal/flash"
	"github.com/flipbit-sim/flipbit/internal/xrand"
)

// testDevice returns a small device: 16-byte pages, 2 banks, and an index
// geometry that forces multi-chunk bitmaps (300 slots → 38 bytes → 3
// chunks) and multi-batch senses (MaxSensePages 3 in the index config).
func testDevice(t testing.TB) *flash.Device {
	t.Helper()
	sp := flash.DefaultSpec()
	sp.PageSize = 16
	sp.NumPages = 64
	sp.Banks = 2
	return flash.MustNewDevice(sp)
}

func testIndexConfig() IndexConfig {
	return IndexConfig{
		PageSize:      16,
		Banks:         2,
		MaxSensePages: 3, // force leaf batches to split and fold host-side
		FirstPage:     0,
		Slots:         300,
		Fields: []Field{
			{Name: "status", Buckets: 4},
			{Name: "region", Buckets: 3},
		},
	}
}

// membership is the RAM truth the index is compared against.
type membership map[string]map[int]map[int]bool // field → bucket → slot

func (m membership) add(field string, bucket, slot int) {
	if m[field] == nil {
		m[field] = map[int]map[int]bool{}
	}
	if m[field][bucket] == nil {
		m[field][bucket] = map[int]bool{}
	}
	m[field][bucket][slot] = true
}

func (m membership) has(field string, bucket, slot int) bool {
	return m[field][bucket][slot]
}

// evalModel evaluates the predicate for one slot against the RAM model.
func evalModel(p Pred, m membership, slot int) bool {
	switch n := p.(type) {
	case predEq:
		return m.has(n.field, n.bucket, slot)
	case predNot:
		return !evalModel(n.kid, m, slot)
	case predAnd:
		for _, k := range n.kids {
			if !evalModel(k, m, slot) {
				return false
			}
		}
		return true
	case predOr:
		for _, k := range n.kids {
			if evalModel(k, m, slot) {
				return true
			}
		}
		return false
	}
	return false
}

// randomPred draws a predicate tree of bounded depth over the test schema.
func randomPred(rng *xrand.RNG, depth int) Pred {
	fields := []Field{{Name: "status", Buckets: 4}, {Name: "region", Buckets: 3}}
	leaf := func() Pred {
		f := fields[rng.Intn(len(fields))]
		return Eq(f.Name, rng.Intn(f.Buckets))
	}
	if depth == 0 {
		return leaf()
	}
	switch rng.Intn(6) {
	case 0, 1:
		return leaf()
	case 2:
		return Not(randomPred(rng, depth-1))
	case 3, 4:
		kids := make([]Pred, 1+rng.Intn(3))
		for i := range kids {
			kids[i] = randomPred(rng, depth-1)
		}
		return And(kids...)
	default:
		kids := make([]Pred, 1+rng.Intn(3))
		for i := range kids {
			kids[i] = randomPred(rng, depth-1)
		}
		return Or(kids...)
	}
}

func bit(bm []byte, i int) bool { return bm[i/8]&(1<<(i%8)) != 0 }

// TestIndexQueryMatchesOracles: on random memberships and random predicate
// trees, the in-flash plan, the host-read oracle and the RAM model must
// agree on every slot — and the in-flash path must not issue a single host
// read of a bitmap page.
func TestIndexQueryMatchesOracles(t *testing.T) {
	dev := testDevice(t)
	ix, err := NewIndex(dev, testIndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Reset(); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(0x1DE7)
	model := membership{}
	for _, f := range testIndexConfig().Fields {
		for slot := 0; slot < ix.Slots(); slot++ {
			// ~90% of slots get a bucket; ~15% pick up a second (stale)
			// membership, like an updated record would.
			if rng.Intn(10) == 0 {
				continue
			}
			n := 1
			if rng.Intn(7) == 0 {
				n = 2
			}
			for i := 0; i < n; i++ {
				b := rng.Intn(f.Buckets)
				if err := ix.Add(slot, f.Name, b); err != nil {
					t.Fatal(err)
				}
				model.add(f.Name, b, slot)
			}
		}
	}
	inFlash := make([]byte, ix.BitmapBytes())
	host := make([]byte, ix.BitmapBytes())
	for trial := 0; trial < 300; trial++ {
		p := randomPred(rng, 3)
		before := dev.Stats()
		if err := ix.Query(p, inFlash); err != nil {
			t.Fatalf("trial %d %s: %v", trial, p, err)
		}
		delta := dev.Stats().Sub(before)
		if delta.Reads != 0 {
			t.Fatalf("trial %d %s: in-flash query issued %d host read bytes", trial, p, delta.Reads)
		}
		if delta.Senses == 0 {
			t.Fatalf("trial %d %s: in-flash query issued no senses", trial, p)
		}
		if err := ix.QueryHost(p, host); err != nil {
			t.Fatalf("trial %d %s: host oracle: %v", trial, p, err)
		}
		for slot := 0; slot < ix.Slots(); slot++ {
			want := evalModel(p, model, slot)
			if got := bit(inFlash, slot); got != want {
				t.Fatalf("trial %d %s: slot %d in-flash=%v model=%v", trial, p, slot, got, want)
			}
			if got := bit(host, slot); got != want {
				t.Fatalf("trial %d %s: slot %d host=%v model=%v", trial, p, slot, got, want)
			}
		}
		// Padding bits beyond Slots must stay clear.
		for i := ix.Slots(); i < 8*len(inFlash); i++ {
			if bit(inFlash, i) || bit(host, i) {
				t.Fatalf("trial %d: padding bit %d set", trial, i)
			}
		}
	}
}

// TestIndexMaintenanceIsEraseFree: adds — including duplicate adds and the
// stale bits of updated records — must never erase a page; only Reset may.
func TestIndexMaintenanceIsEraseFree(t *testing.T) {
	dev := testDevice(t)
	ix, err := NewIndex(dev, testIndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Reset(); err != nil {
		t.Fatal(err)
	}
	base := dev.Stats().Erases
	rng := xrand.New(7)
	for i := 0; i < 2000; i++ {
		if err := ix.Add(rng.Intn(ix.Slots()), "status", rng.Intn(4)); err != nil {
			t.Fatal(err)
		}
	}
	if got := dev.Stats().Erases; got != base {
		t.Fatalf("index maintenance erased %d pages", got-base)
	}
	// Re-adding an existing member must not even program.
	if err := ix.Add(5, "region", 1); err != nil {
		t.Fatal(err)
	}
	before := dev.Stats()
	if err := ix.Add(5, "region", 1); err != nil {
		t.Fatal(err)
	}
	if d := dev.Stats().Sub(before); d.Programs != 0 && d.ProgramsSkipped == 0 {
		t.Fatalf("duplicate add programmed: %+v", d)
	}
}

// TestResetErasesPayloadOnly: Reset erases the payload pages of every
// bitmap — buckets × chunkPages — and leaves the bank-alignment padding
// alone; dirt in that padding must not leak into either query path.
func TestResetErasesPayloadOnly(t *testing.T) {
	dev := testDevice(t)
	cfg := testIndexConfig()
	ix, err := NewIndex(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ix.lay.stride == ix.lay.chunkPages {
		t.Fatal("test geometry has no padding pages")
	}
	buckets := cfg.totalBuckets()
	for b := 0; b < buckets; b++ {
		for c := ix.lay.chunkPages; c < ix.lay.stride; c++ {
			for off := 0; off < cfg.PageSize; off += 3 {
				if err := dev.ProgramByte(ix.lay.page(b, c)*cfg.PageSize+off, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	before := dev.Stats().Erases
	if err := ix.Reset(); err != nil {
		t.Fatal(err)
	}
	if got, want := dev.Stats().Erases-before, uint64(buckets*ix.lay.chunkPages); got != want {
		t.Fatalf("Reset issued %d erases, want %d (buckets × chunkPages)", got, want)
	}
	if ix.Members() != 0 {
		t.Fatalf("Members after Reset = %d", ix.Members())
	}
	rng := xrand.New(0x9AD)
	model := membership{}
	for slot := 0; slot < ix.Slots(); slot++ {
		for _, f := range cfg.Fields {
			b := rng.Intn(f.Buckets)
			if err := ix.Add(slot, f.Name, b); err != nil {
				t.Fatal(err)
			}
			model.add(f.Name, b, slot)
		}
	}
	inFlash := make([]byte, ix.BitmapBytes())
	host := make([]byte, ix.BitmapBytes())
	for trial := 0; trial < 100; trial++ {
		p := randomPred(rng, 3)
		if err := ix.Query(p, inFlash); err != nil {
			t.Fatal(err)
		}
		if err := ix.QueryHost(p, host); err != nil {
			t.Fatal(err)
		}
		for slot := 0; slot < ix.Slots(); slot++ {
			want := evalModel(p, model, slot)
			if bit(inFlash, slot) != want || bit(host, slot) != want {
				t.Fatalf("trial %d %s: slot %d in-flash=%v host=%v model=%v",
					trial, p, slot, bit(inFlash, slot), bit(host, slot), want)
			}
		}
	}
}

// TestIndexLoadAdoptsBitmaps: a second Index over the same region adopts
// the first one's bitmaps with reads only — same shadow, same member
// count (padding bits past the slot count excluded), same query answers —
// and re-adding a member it loaded programs nothing.
func TestIndexLoadAdoptsBitmaps(t *testing.T) {
	dev := testDevice(t)
	cfg := testIndexConfig()
	a, err := NewIndex(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Reset(); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(0x10AD)
	for i := 0; i < 500; i++ {
		f := cfg.Fields[rng.Intn(len(cfg.Fields))]
		if err := a.Add(rng.Intn(a.Slots()), f.Name, rng.Intn(f.Buckets)); err != nil {
			t.Fatal(err)
		}
	}
	// Clear the bits past the slot count in one bitmap's last byte, as
	// drift could: they are not members.
	last := a.lay.page(0, a.lay.chunkPages-1)*cfg.PageSize + a.lay.chunkLen(a.lay.chunkPages-1) - 1
	var cur [1]byte
	if err := dev.Read(last, cur[:]); err != nil {
		t.Fatal(err)
	}
	if err := dev.ProgramByte(last, cur[0]&0x0F); err != nil {
		t.Fatal(err)
	}

	b, err := NewIndex(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := dev.Stats()
	if err := b.Load(); err != nil {
		t.Fatal(err)
	}
	if d := dev.Stats().Sub(before); d.Erases != 0 || d.Programs != 0 {
		t.Fatalf("Load erased %d / programmed %d", d.Erases, d.Programs)
	}
	if b.Members() != a.Members() {
		t.Fatalf("loaded %d members, the writer added %d", b.Members(), a.Members())
	}
	for i := range a.shadow {
		if i == last-cfg.FirstPage*cfg.PageSize {
			continue
		}
		if a.shadow[i] != b.shadow[i] {
			t.Fatalf("shadow byte %d: loaded %08b, writer %08b", i, b.shadow[i], a.shadow[i])
		}
	}
	ga := make([]byte, a.BitmapBytes())
	gb := make([]byte, b.BitmapBytes())
	for trial := 0; trial < 50; trial++ {
		p := randomPred(rng, 3)
		if err := a.Query(p, ga); err != nil {
			t.Fatal(err)
		}
		if err := b.Query(p, gb); err != nil {
			t.Fatal(err)
		}
		for slot := 0; slot < b.Slots(); slot++ {
			if bit(ga, slot) != bit(gb, slot) {
				t.Fatalf("trial %d %s: slot %d differs after Load", trial, p, slot)
			}
		}
	}
	// Find a loaded member and re-add it: no program, no count change.
	for slot := 0; slot < b.Slots(); slot++ {
		if err := b.Query(Eq("status", 1), gb); err != nil {
			t.Fatal(err)
		}
		if !bit(gb, slot) {
			continue
		}
		n := b.Members()
		before := dev.Stats()
		if err := b.Add(slot, "status", 1); err != nil {
			t.Fatal(err)
		}
		if d := dev.Stats().Sub(before); d.Programs != 0 || b.Members() != n {
			t.Fatalf("re-adding loaded member %d programmed %d, members %d → %d", slot, d.Programs, n, b.Members())
		}
		return
	}
	t.Fatal("no member of status=1 found")
}

// TestIndexErrors covers schema validation and argument checks.
func TestIndexErrors(t *testing.T) {
	dev := testDevice(t)
	bad := []IndexConfig{
		{},
		{PageSize: 16, Banks: 2, MaxSensePages: 3, Slots: 10},                                      // no fields
		{PageSize: 16, Banks: 2, MaxSensePages: 3, Slots: 10, Fields: []Field{{Name: ""}}},         // empty name
		{PageSize: 16, Banks: 2, MaxSensePages: 3, Slots: 10, Fields: []Field{{Name: "f"}}},        // zero buckets
		{PageSize: 16, Banks: 2, MaxSensePages: 0, Slots: 10, Fields: []Field{{"f", 2}}},           // no senses
		{PageSize: 16, Banks: 2, MaxSensePages: 3, Slots: 10, Fields: []Field{{"f", 2}, {"f", 2}}}, // dup
	}
	for i, cfg := range bad {
		if _, err := NewIndex(dev, cfg); !errors.Is(err, ErrConfig) {
			t.Errorf("config %d accepted: %v", i, err)
		}
	}
	ix, err := NewIndex(dev, testIndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, ix.BitmapBytes())
	if err := ix.Query(Eq("bogus", 0), dst); !errors.Is(err, ErrUnknownField) {
		t.Errorf("unknown field: %v", err)
	}
	if err := ix.Query(Eq("status", 4), dst); !errors.Is(err, ErrBucketRange) {
		t.Errorf("bucket range: %v", err)
	}
	if err := ix.Query(Eq("status", 0), dst[:1]); !errors.Is(err, ErrBitmapSize) {
		t.Errorf("short buffer: %v", err)
	}
	if err := ix.Add(-1, "status", 0); !errors.Is(err, ErrSlotRange) {
		t.Errorf("slot range: %v", err)
	}
	if err := ix.Add(0, "status", -1); !errors.Is(err, ErrBucketRange) {
		t.Errorf("negative bucket: %v", err)
	}
}

// TestPredEval pins the exact per-record semantics candidates are
// re-checked with.
func TestPredEval(t *testing.T) {
	buckets := map[string]int{"status": 1, "region": 2}
	of := func(f string) int {
		if b, ok := buckets[f]; ok {
			return b
		}
		return -1
	}
	cases := []struct {
		p    Pred
		want bool
	}{
		{Eq("status", 1), true},
		{Eq("status", 0), false},
		{Eq("missing", 0), false},
		{Not(Eq("status", 0)), true},
		{And(Eq("status", 1), Eq("region", 2)), true},
		{And(Eq("status", 1), Eq("region", 0)), false},
		{Or(Eq("status", 0), Eq("region", 2)), true},
		{In("region", 0, 1, 2), true},
		{In("region", 0, 1), false},
		{And(), true},
		{Or(), false},
	}
	for _, tc := range cases {
		if got := Eval(tc.p, of); got != tc.want {
			t.Errorf("%s = %v, want %v", tc.p, got, tc.want)
		}
	}
}

// TestCompileMatchesEval: the compiled matcher agrees with Eval on random
// multi-field And/Or/Not/In trees — including leaves on fields outside the
// schema and out-of-range or negative buckets — over random bucket
// vectors that include −1 (no value).
func TestCompileMatchesEval(t *testing.T) {
	rng := xrand.New(0xC0DE)
	schema := []string{"status", "region", "kind"}
	names := append(append([]string(nil), schema...), "missing")
	bucket := func() int { return rng.Intn(7) - 1 } // −1 … 5
	var gen func(depth int) Pred
	gen = func(depth int) Pred {
		if depth == 0 || rng.Intn(4) == 0 {
			f := names[rng.Intn(len(names))]
			if rng.Intn(3) == 0 {
				bs := make([]int, 1+rng.Intn(5))
				for i := range bs {
					bs[i] = bucket()
				}
				if rng.Intn(8) == 0 {
					bs = append(bs, 70) // a second bitset word
				}
				return In(f, bs...)
			}
			return Eq(f, bucket())
		}
		switch rng.Intn(3) {
		case 0:
			return Not(gen(depth - 1))
		case 1:
			kids := make([]Pred, rng.Intn(4))
			for i := range kids {
				kids[i] = gen(depth - 1)
			}
			return And(kids...)
		default:
			kids := make([]Pred, rng.Intn(4))
			for i := range kids {
				kids[i] = gen(depth - 1)
			}
			return Or(kids...)
		}
	}
	vec := make([]int, len(schema))
	for trial := 0; trial < 2000; trial++ {
		p := gen(4)
		m := Compile(p, schema)
		for rec := 0; rec < 20; rec++ {
			for i := range vec {
				vec[i] = bucket()
			}
			if rec == 0 {
				vec[rng.Intn(len(vec))] = 70
			}
			of := func(f string) int {
				for i, n := range schema {
					if n == f {
						return vec[i]
					}
				}
				return -1
			}
			if got, want := m.Match(vec), Eval(p, of); got != want {
				t.Fatalf("trial %d: %s on %v: compiled %v, Eval %v", trial, p, vec, got, want)
			}
		}
		for _, f := range m.Fields() {
			if f < 0 || f >= len(schema) {
				t.Fatalf("trial %d: field position %d outside the schema", trial, f)
			}
		}
	}
	if m := Compile(Not(In("region", 0, 2, 4)), schema); len(m.Fields()) != 1 || m.Fields()[0] != 1 {
		t.Fatalf("Fields of a region-only predicate = %v, want [1]", m.Fields())
	}
}

// TestPositiveRewritePreservesSemantics: for records with exactly one
// bucket per field, the negation-normal-form rewrite used for stale-bit
// soundness must evaluate identically to the original predicate, and its
// tree must contain no Not nodes.
func TestPositiveRewritePreservesSemantics(t *testing.T) {
	rng := xrand.New(0x9051)
	fields := map[string]int{"status": 4, "region": 3}
	counts := func(f string) int { return fields[f] }
	for trial := 0; trial < 500; trial++ {
		p := randomPred(rng, 3)
		q := Positive(p, counts)
		walk(q, func(n Pred) {
			if _, ok := n.(predNot); ok {
				t.Fatalf("trial %d: rewrite of %s left a Not: %s", trial, p, q)
			}
		})
		for rec := 0; rec < 30; rec++ {
			assign := map[string]int{"status": rng.Intn(4), "region": rng.Intn(3)}
			of := func(f string) int { return assign[f] }
			if Eval(p, of) != Eval(q, of) {
				t.Fatalf("trial %d: %s and rewrite %s disagree on %v", trial, p, q, assign)
			}
		}
	}
}

// BenchmarkIndexScanQuery measures one in-flash predicate evaluation over
// the full slot space.
func BenchmarkIndexScanQuery(b *testing.B) {
	dev := testDevice(b)
	ix, err := NewIndex(dev, testIndexConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := ix.Reset(); err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(1)
	for slot := 0; slot < ix.Slots(); slot++ {
		_ = ix.Add(slot, "status", rng.Intn(4))
		_ = ix.Add(slot, "region", rng.Intn(3))
	}
	p := And(In("status", 0, 1), Not(Eq("region", 2)))
	dst := make([]byte, ix.BitmapBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ix.Query(p, dst); err != nil {
			b.Fatal(err)
		}
	}
}
