// Package bitset provides the dense bit-vector sets used on the
// exploration hot path. A Set over n indexed elements is a handful of
// machine words instead of a map[ID]bool, so the per-candidate
// cluster/activation/resource sets of the EXPLORE engine cost one
// allocation instead of dozens, and the subset tests behind the ECS
// lists and the novelty skip are word-parallel.
//
// Sets carry no element names; an Indexer translates between domain
// identifiers (problem clusters, architecture resources) and the dense
// indices a Set stores. Sets built against the same Indexer are
// directly comparable.
package bitset

import (
	"math/bits"
	"slices"
	"strings"
	"unsafe"
)

// Set is a dense bit vector. The zero value is the empty set over zero
// elements; use New to size one. Methods with a pointer receiver mutate
// the set; all others are read-only and safe for concurrent readers.
type Set struct {
	w []uint64
}

// New returns an empty set sized for indices [0, n).
func New(n int) Set {
	return Set{w: make([]uint64, WordsFor(n))}
}

// WordsFor returns the number of words a set sized for indices [0, n)
// holds.
func WordsFor(n int) int { return (n + 63) / 64 }

// Of returns the set whose words are w. The set aliases w: a change to
// either shows in the other. Sets carved out of one shared word buffer
// this way cost no allocation each.
func Of(w []uint64) Set { return Set{w: w} }

// Has reports whether index i is in the set. Out-of-range indices are
// reported absent.
func (s Set) Has(i int) bool {
	if i < 0 || i>>6 >= len(s.w) {
		return false
	}
	return s.w[i>>6]&(1<<(uint(i)&63)) != 0
}

// Add inserts index i. It panics if i is outside the sized range, like
// an out-of-bounds slice write.
func (s Set) Add(i int) {
	s.w[i>>6] |= 1 << (uint(i) & 63)
}

// Remove deletes index i (no-op when absent or out of range).
func (s Set) Remove(i int) {
	if i < 0 || i>>6 >= len(s.w) {
		return
	}
	s.w[i>>6] &^= 1 << (uint(i) & 63)
}

// Count returns the number of elements in the set.
func (s Set) Count() int {
	n := 0
	for _, w := range s.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set contains no elements.
func (s Set) Empty() bool {
	for _, w := range s.w {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether both sets contain the same elements. Sets of
// different sized ranges compare by content (missing words read as 0).
func (s Set) Equal(t Set) bool {
	a, b := s.w, t.w
	if len(a) < len(b) {
		a, b = b, a
	}
	for i, w := range b {
		if a[i] != w {
			return false
		}
	}
	for _, w := range a[len(b):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// SubsetOf reports whether s ⊆ t.
func (s Set) SubsetOf(t Set) bool {
	for i, w := range s.w {
		var tw uint64
		if i < len(t.w) {
			tw = t.w[i]
		}
		if w&^tw != 0 {
			return false
		}
	}
	return true
}

// IntersectionCount returns |s ∩ t| without materializing the
// intersection.
func (s Set) IntersectionCount(t Set) int {
	n := len(s.w)
	if len(t.w) < n {
		n = len(t.w)
	}
	c := 0
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(s.w[i] & t.w[i])
	}
	return c
}

// Intersects reports whether s ∩ t is non-empty.
func (s Set) Intersects(t Set) bool {
	n := len(s.w)
	if len(t.w) < n {
		n = len(t.w)
	}
	for i := 0; i < n; i++ {
		if s.w[i]&t.w[i] != 0 {
			return true
		}
	}
	return false
}

// IntersectsBoth reports whether s ∩ t ∩ u is non-empty.
func (s Set) IntersectsBoth(t, u Set) bool {
	n := min(len(s.w), len(t.w), len(u.w))
	for i := 0; i < n; i++ {
		if s.w[i]&t.w[i]&u.w[i] != 0 {
			return true
		}
	}
	return false
}

// UnionWith adds every element of t to s. The receiver must be sized to
// hold t's largest element.
func (s Set) UnionWith(t Set) {
	for i, w := range t.w {
		s.w[i] |= w
	}
}

// IntersectWith removes from s every element not in t.
func (s Set) IntersectWith(t Set) {
	for i := range s.w {
		if i < len(t.w) {
			s.w[i] &= t.w[i]
		} else {
			s.w[i] = 0
		}
	}
}

// Clear removes every element, keeping the sized range.
func (s Set) Clear() {
	for i := range s.w {
		s.w[i] = 0
	}
}

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	c := Set{w: make([]uint64, len(s.w))}
	copy(c.w, s.w)
	return c
}

// CopyFrom makes s an independent copy of t, reusing s's words when
// they are enough.
func (s *Set) CopyFrom(t Set) {
	if cap(s.w) < len(t.w) {
		s.w = make([]uint64, len(t.w))
	}
	s.w = s.w[:len(t.w)]
	copy(s.w, t.w)
}

// ForEach calls fn for every element in ascending index order until fn
// returns false.
func (s Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.w {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi<<6 | b) {
				return
			}
			w &= w - 1
		}
	}
}

// AppendTo appends the set's elements to dst in ascending index order
// and returns the extended slice.
func (s Set) AppendTo(dst []int) []int {
	for wi, w := range s.w {
		for w != 0 {
			dst = append(dst, wi<<6|bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// Key returns the set's content as a compact string usable as a map
// key: sets that Equal (over the same sized range) share the key. The
// string is raw words, not printable; use String for debugging.
func (s Set) Key() string { return string(s.KeyBytes()) }

// KeyBytes returns Key's bytes without copying them: they alias the
// set's words and change with the set. Looking a map up with
// m[string(s.KeyBytes())] allocates nothing.
func (s Set) KeyBytes() []byte {
	if len(s.w) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s.w[0])), len(s.w)*8)
}

// String renders the member indices, e.g. "{1 5 9}".
func (s Set) String() string {
	var parts []string
	s.ForEach(func(i int) bool {
		parts = append(parts, itoa(i))
		return true
	})
	return "{" + strings.Join(parts, " ") + "}"
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[p:])
}

// Indexer assigns dense indices to a fixed universe of identifiers, in
// the sorted order of the identifiers, so iterating a Set in index
// order visits IDs in their natural order. It holds only the sorted
// identifiers (a lookup is a binary search), is immutable after New
// and safe for concurrent use.
type Indexer[K interface {
	comparable
	~string
}] struct {
	ids []K
}

// NewIndexer builds an indexer over the given identifiers (duplicates
// collapse). Indices follow the sorted identifier order.
func NewIndexer[K interface {
	comparable
	~string
}](ids []K) *Indexer[K] {
	uniq := slices.Clone(ids)
	slices.Sort(uniq)
	return &Indexer[K]{ids: slices.Clip(slices.Compact(uniq))}
}

// Len returns the universe size.
func (ix *Indexer[K]) Len() int { return len(ix.ids) }

// Index returns the dense index of id and whether id is in the
// universe.
func (ix *Indexer[K]) Index(id K) (int, bool) {
	return slices.BinarySearch(ix.ids, id)
}

// At returns the identifier at index i.
func (ix *Indexer[K]) At(i int) K { return ix.ids[i] }

// SetOf builds a set containing the given identifiers; unknown
// identifiers are ignored.
func (ix *Indexer[K]) SetOf(ids ...K) Set {
	s := New(len(ix.ids))
	for _, id := range ids {
		if i, ok := ix.Index(id); ok {
			s.Add(i)
		}
	}
	return s
}

// IDs returns the identifiers of the set's members, in sorted order.
func (ix *Indexer[K]) IDs(s Set) []K {
	out := make([]K, 0, s.Count())
	s.ForEach(func(i int) bool {
		out = append(out, ix.ids[i])
		return true
	})
	return out
}
