package isc

import (
	"fmt"
	"slices"
	"strings"
)

// Pred is a predicate tree over indexed fields: equality leaves combined
// with And/Or/Not. Build trees with the constructors below; the planner in
// Index.Query lowers them onto in-flash senses.
type Pred interface {
	// String renders the tree for diagnostics.
	String() string
	isPred()
}

type predEq struct {
	field  string
	bucket int
}

type predAnd struct{ kids []Pred }
type predOr struct{ kids []Pred }
type predNot struct{ kid Pred }

func (predEq) isPred()  {}
func (predAnd) isPred() {}
func (predOr) isPred()  {}
func (predNot) isPred() {}

func (p predEq) String() string { return fmt.Sprintf("%s=%d", p.field, p.bucket) }
func (p predNot) String() string {
	return "not(" + p.kid.String() + ")"
}
func (p predAnd) String() string { return joinPreds("and", p.kids) }
func (p predOr) String() string  { return joinPreds("or", p.kids) }

func joinPreds(op string, kids []Pred) string {
	parts := make([]string, len(kids))
	for i, k := range kids {
		parts[i] = k.String()
	}
	return op + "(" + strings.Join(parts, ", ") + ")"
}

// Eq matches records whose field falls in the given bucket.
func Eq(field string, bucket int) Pred { return predEq{field: field, bucket: bucket} }

// In matches records whose field falls in any of the given buckets.
func In(field string, buckets ...int) Pred {
	kids := make([]Pred, len(buckets))
	for i, b := range buckets {
		kids[i] = predEq{field: field, bucket: b}
	}
	if len(kids) == 1 {
		return kids[0]
	}
	return predOr{kids: kids}
}

// And matches records satisfying every child predicate.
func And(ps ...Pred) Pred {
	if len(ps) == 1 {
		return ps[0]
	}
	return predAnd{kids: ps}
}

// Or matches records satisfying any child predicate.
func Or(ps ...Pred) Pred {
	if len(ps) == 1 {
		return ps[0]
	}
	return predOr{kids: ps}
}

// Not matches records failing the child predicate.
func Not(p Pred) Pred { return predNot{kid: p} }

// Eval evaluates the predicate for one record given its bucket per field
// (bucketOf returns the record's bucket, or a negative value for a field
// the record has no value for — which fails every equality on it). This is
// the exact per-record semantics the in-flash plans approximate from the
// index; callers re-check fetched candidates with it to filter stale index
// bits.
func Eval(p Pred, bucketOf func(field string) int) bool {
	switch n := p.(type) {
	case predEq:
		return bucketOf(n.field) == n.bucket
	case predNot:
		return !Eval(n.kid, bucketOf)
	case predAnd:
		for _, k := range n.kids {
			if !Eval(k, bucketOf) {
				return false
			}
		}
		return true
	case predOr:
		for _, k := range n.kids {
			if Eval(k, bucketOf) {
				return true
			}
		}
		return false
	}
	return false
}

// Matcher is a predicate compiled against a field schema, so the exact
// per-record check costs a few comparisons on an array of buckets instead
// of a tree walk with a name lookup per leaf. Build one with Compile.
type Matcher struct {
	root   matchNode
	fields []int // schema positions the predicate reads, ascending
}

type matchOp uint8

const (
	matchConst matchOp = iota // leaf on a field outside the schema: truth
	matchEq                   // buckets[field] == bucket
	matchSet                  // buckets[field] is in set
	matchAnd
	matchOr
	matchNot
)

type matchNode struct {
	op     matchOp
	truth  bool
	field  int
	bucket int
	set    []uint64 // matchSet: bit b set ⇔ bucket b matches
	kids   []matchNode
}

// maxSetBucket bounds the bucket numbers a same-field Or is lowered to a
// bitset for; larger (or negative) buckets keep their equality leaves.
const maxSetBucket = 1 << 16

// Compile lowers p once against a schema — fields lists the field names,
// and a record's buckets are passed to Match in the same order. Equality
// leaves become (field position, bucket) comparisons, an Or of equalities
// on one field becomes a bucket-bitset test, and And/Or/Not stay as
// nodes. A leaf on a field outside the schema sees bucket −1 (no value),
// as Eval does with a bucketOf that reports −1 for unknown fields.
func Compile(p Pred, fields []string) *Matcher {
	m := &Matcher{}
	m.root = m.compile(p, fields)
	slices.Sort(m.fields)
	return m
}

// field resolves a field name to its schema position, noting it as read.
func (m *Matcher) field(name string, fields []string) (int, bool) {
	i := slices.Index(fields, name)
	if i >= 0 && !slices.Contains(m.fields, i) {
		m.fields = append(m.fields, i)
	}
	return i, i >= 0
}

func (m *Matcher) compile(p Pred, fields []string) matchNode {
	switch n := p.(type) {
	case predEq:
		i, ok := m.field(n.field, fields)
		if !ok {
			return matchNode{op: matchConst, truth: n.bucket == -1}
		}
		return matchNode{op: matchEq, field: i, bucket: n.bucket}
	case predNot:
		return matchNode{op: matchNot, kids: []matchNode{m.compile(n.kid, fields)}}
	case predAnd:
		return matchNode{op: matchAnd, kids: m.compileKids(n.kids, fields)}
	case predOr:
		if set, ok := m.bucketSet(n.kids, fields); ok {
			return set
		}
		return matchNode{op: matchOr, kids: m.compileKids(n.kids, fields)}
	}
	return matchNode{op: matchConst}
}

func (m *Matcher) compileKids(kids []Pred, fields []string) []matchNode {
	out := make([]matchNode, len(kids))
	for i, k := range kids {
		out[i] = m.compile(k, fields)
	}
	return out
}

// bucketSet lowers an Or whose kids are equalities on one schema field
// with buckets in [0, maxSetBucket) to a single bitset node.
func (m *Matcher) bucketSet(kids []Pred, fields []string) (matchNode, bool) {
	field, set, ok := sameFieldEqs(kids)
	if !ok {
		return matchNode{}, false
	}
	words := 0
	for b := range set {
		if b < 0 || b >= maxSetBucket {
			return matchNode{}, false
		}
		words = max(words, b/64+1)
	}
	i, known := m.field(field, fields)
	if !known {
		return matchNode{}, false
	}
	n := matchNode{op: matchSet, field: i, set: make([]uint64, words)}
	for b := range set {
		n.set[b/64] |= 1 << (b % 64)
	}
	return n, true
}

// Fields returns the schema positions the predicate reads, ascending:
// Match looks at no other entry of its buckets argument, so callers need
// only derive these.
func (m *Matcher) Fields() []int { return m.fields }

// Match evaluates the compiled predicate for one record, given its bucket
// per schema field (negative for a field the record has no value for). It
// agrees with Eval on every input.
func (m *Matcher) Match(buckets []int) bool { return m.root.match(buckets) }

func (n *matchNode) match(b []int) bool {
	switch n.op {
	case matchEq:
		return b[n.field] == n.bucket
	case matchSet:
		v := b[n.field]
		return v >= 0 && v < 64*len(n.set) && n.set[v/64]&(1<<(v%64)) != 0
	case matchAnd:
		for i := range n.kids {
			if !n.kids[i].match(b) {
				return false
			}
		}
		return true
	case matchOr:
		for i := range n.kids {
			if n.kids[i].match(b) {
				return true
			}
		}
		return false
	case matchNot:
		return !n.kids[0].match(b)
	}
	return n.truth
}

// Positive rewrites p into negation normal form with every leaf positive:
// Not distributes over And/Or by De Morgan, double negations cancel, and a
// negated equality becomes In(field, every other bucket) — buckets returns
// the bucket count of a field. The rewrite preserves semantics for records
// that fall in exactly one bucket per field, and it matters when the
// underlying bitmaps over-approximate membership (stale bits): positive
// leaves keep every plan a superset of the true matches, so a re-check can
// filter false positives, whereas complementing an over-approximation
// would lose matches unrecoverably.
func Positive(p Pred, buckets func(field string) int) Pred {
	return positive(p, buckets, false)
}

func positive(p Pred, buckets func(string) int, negated bool) Pred {
	switch n := p.(type) {
	case predEq:
		if !negated {
			return n
		}
		others := make([]int, 0, buckets(n.field))
		for b := 0; b < buckets(n.field); b++ {
			if b != n.bucket {
				others = append(others, b)
			}
		}
		return In(n.field, others...)
	case predNot:
		return positive(n.kid, buckets, !negated)
	case predAnd:
		kids := make([]Pred, len(n.kids))
		for i, k := range n.kids {
			kids[i] = positive(k, buckets, negated)
		}
		if negated {
			return Or(kids...)
		}
		return And(kids...)
	case predOr:
		// Negating an In — an Or of equalities on one field — dualises
		// directly to the complement In. The generic De Morgan path below
		// would be equivalent for single-bucket records but plans as an And
		// of wide Ins, one per negated leaf: quadratically more senses.
		if negated {
			if f, set, ok := sameFieldEqs(n.kids); ok {
				others := make([]int, 0, buckets(f))
				for b := 0; b < buckets(f); b++ {
					if !set[b] {
						others = append(others, b)
					}
				}
				return In(f, others...)
			}
		}
		kids := make([]Pred, len(n.kids))
		for i, k := range n.kids {
			kids[i] = positive(k, buckets, negated)
		}
		if negated {
			return And(kids...)
		}
		return Or(kids...)
	}
	return p
}

// sameFieldEqs reports whether every kid is an equality on one shared
// field, returning that field and the bucket set.
func sameFieldEqs(kids []Pred) (string, map[int]bool, bool) {
	if len(kids) == 0 {
		return "", nil, false
	}
	set := make(map[int]bool, len(kids))
	field := ""
	for _, k := range kids {
		eq, ok := k.(predEq)
		if !ok || (field != "" && eq.field != field) {
			return "", nil, false
		}
		field = eq.field
		set[eq.bucket] = true
	}
	return field, set, true
}

// walk visits every node of the tree.
func walk(p Pred, f func(Pred)) {
	f(p)
	switch n := p.(type) {
	case predNot:
		walk(n.kid, f)
	case predAnd:
		for _, k := range n.kids {
			walk(k, f)
		}
	case predOr:
		for _, k := range n.kids {
			walk(k, f)
		}
	}
}
