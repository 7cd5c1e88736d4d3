package bitset

import (
	"math/rand"
	"testing"
)

func TestSetBasics(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Has(i) {
			t.Fatalf("fresh set has %d", i)
		}
		s.Add(i)
		if !s.Has(i) {
			t.Fatalf("Add(%d) not visible", i)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("count=%d, want 8", s.Count())
	}
	s.Remove(64)
	if s.Has(64) || s.Count() != 7 {
		t.Fatalf("remove failed: %v", s)
	}
	if s.Has(-1) || s.Has(1000) {
		t.Fatal("out-of-range Has must be false")
	}
	s.Remove(-1)
	s.Remove(1000) // no panic
	if s.Empty() {
		t.Fatal("set is not empty")
	}
	s.Clear()
	if !s.Empty() || s.Count() != 0 {
		t.Fatal("Clear left elements behind")
	}
}

func TestSetRelations(t *testing.T) {
	a, b := New(100), New(100)
	for _, i := range []int{3, 50, 99} {
		a.Add(i)
		b.Add(i)
	}
	if !a.Equal(b) || !a.SubsetOf(b) || !b.SubsetOf(a) {
		t.Fatal("equal sets must be mutual subsets")
	}
	b.Add(70)
	if a.Equal(b) {
		t.Fatal("different sets compare equal")
	}
	if !a.SubsetOf(b) || b.SubsetOf(a) {
		t.Fatal("subset relation wrong")
	}
	if !a.Intersects(b) {
		t.Fatal("overlapping sets must intersect")
	}
	c := New(100)
	c.Add(1)
	if c.Intersects(a) {
		t.Fatal("disjoint sets must not intersect")
	}
	// Different sized ranges compare by content.
	d := New(500)
	for _, i := range []int{3, 50, 99} {
		d.Add(i)
	}
	if !d.Equal(a) || !a.Equal(d) {
		t.Fatal("size-independent equality failed")
	}
	if !a.SubsetOf(d) || !d.SubsetOf(a) {
		t.Fatal("size-independent subset failed")
	}
	d.Add(400)
	if d.Equal(a) || d.SubsetOf(a) {
		t.Fatal("content beyond a's range ignored")
	}
}

func TestUnionCloneForEachKey(t *testing.T) {
	a := New(128)
	a.Add(5)
	b := New(128)
	b.Add(90)
	a.UnionWith(b)
	var got []int
	a.ForEach(func(i int) bool { got = append(got, i); return true })
	if len(got) != 2 || got[0] != 5 || got[1] != 90 {
		t.Fatalf("ForEach order: %v", got)
	}
	c := a.Clone()
	c.Add(7)
	if a.Has(7) {
		t.Fatal("Clone aliases the original")
	}
	if a.Key() == c.Key() {
		t.Fatal("different sets share a key")
	}
	if a.Key() != a.Clone().Key() {
		t.Fatal("equal sets have different keys")
	}
	if a.String() != "{5 90}" {
		t.Fatalf("String=%q", a.String())
	}
	// Early stop.
	n := 0
	a.ForEach(func(int) bool { n++; return false })
	if n != 1 {
		t.Fatalf("ForEach ignored early stop: %d", n)
	}
}

// TestOfAliasesWords: a set built by Of over a window of a shared word
// buffer reads and writes that window only, and AppendTo lists the
// members in ascending order.
func TestOfAliasesWords(t *testing.T) {
	if WordsFor(0) != 0 || WordsFor(1) != 1 || WordsFor(64) != 1 || WordsFor(65) != 2 {
		t.Fatal("WordsFor")
	}
	buf := make([]uint64, 4)
	a, b := Of(buf[0:2:2]), Of(buf[2:4:4])
	a.Add(3)
	a.Add(70)
	b.Add(0)
	if buf[0] != 1<<3 || buf[1] != 1<<6 || buf[2] != 1 || buf[3] != 0 {
		t.Fatalf("words %v", buf)
	}
	dst := []int{-1}
	if got := a.AppendTo(dst); len(got) != 3 || got[0] != -1 || got[1] != 3 || got[2] != 70 {
		t.Fatalf("AppendTo = %v", got)
	}
	if got := New(10).AppendTo(nil); len(got) != 0 {
		t.Fatalf("AppendTo of the empty set = %v", got)
	}
}

func TestSetAgainstMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 200
	s := New(n)
	m := map[int]bool{}
	for step := 0; step < 5000; step++ {
		i := rng.Intn(n)
		if rng.Intn(2) == 0 {
			s.Add(i)
			m[i] = true
		} else {
			s.Remove(i)
			delete(m, i)
		}
	}
	if s.Count() != len(m) {
		t.Fatalf("count %d vs model %d", s.Count(), len(m))
	}
	for i := 0; i < n; i++ {
		if s.Has(i) != m[i] {
			t.Fatalf("element %d: set %v model %v", i, s.Has(i), m[i])
		}
	}
}

func TestIndexer(t *testing.T) {
	ix := NewIndexer([]string{"c", "a", "b", "a"})
	if ix.Len() != 3 {
		t.Fatalf("len=%d", ix.Len())
	}
	// Sorted order.
	for i, want := range []string{"a", "b", "c"} {
		if ix.At(i) != want {
			t.Fatalf("At(%d)=%q want %q", i, ix.At(i), want)
		}
		j, ok := ix.Index(want)
		if !ok || j != i {
			t.Fatalf("Index(%q)=(%d,%v)", want, j, ok)
		}
	}
	if _, ok := ix.Index("zzz"); ok {
		t.Fatal("unknown id indexed")
	}
	s := ix.SetOf("b", "zzz", "a")
	if s.Count() != 2 {
		t.Fatalf("SetOf count=%d", s.Count())
	}
	ids := ix.IDs(s)
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Fatalf("IDs=%v", ids)
	}
}

func TestIntersectionCount(t *testing.T) {
	a := New(130)
	b := New(130)
	for _, i := range []int{0, 5, 63, 64, 100, 129} {
		a.Add(i)
	}
	for _, i := range []int{5, 64, 99, 129} {
		b.Add(i)
	}
	if got := a.IntersectionCount(b); got != 3 {
		t.Errorf("IntersectionCount = %d, want 3", got)
	}
	if got := b.IntersectionCount(a); got != 3 {
		t.Errorf("IntersectionCount reversed = %d, want 3", got)
	}
	// Different sized ranges: missing words read as empty.
	small := New(8)
	small.Add(5)
	if got := a.IntersectionCount(small); got != 1 {
		t.Errorf("mixed-size IntersectionCount = %d, want 1", got)
	}
	if got := (Set{}).IntersectionCount(a); got != 0 {
		t.Errorf("zero-value IntersectionCount = %d, want 0", got)
	}
}

func TestIntersectWith(t *testing.T) {
	a := New(130)
	for _, i := range []int{0, 5, 63, 64, 100, 129} {
		a.Add(i)
	}
	b := New(70)
	for _, i := range []int{5, 64, 69} {
		b.Add(i)
	}
	a.IntersectWith(b)
	if a.String() != "{5 64}" {
		t.Fatalf("a ∩ b = %s, want {5 64}", a)
	}
	if b.String() != "{5 64 69}" {
		t.Fatalf("argument changed: %s", b)
	}
	c := New(200)
	c.Add(64)
	if !a.IntersectsBoth(b, c) {
		t.Fatal("a ∩ b ∩ c holds 64")
	}
	c.Remove(64)
	c.Add(5 + 128)
	if a.IntersectsBoth(b, c) {
		t.Fatal("a ∩ b ∩ c is empty")
	}
}
