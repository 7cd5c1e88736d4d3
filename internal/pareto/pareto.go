// Package pareto provides the multi-objective optimization utilities of
// the reproduction: dominance, a Pareto-front archive, and quality
// indicators (2-D hypervolume and set coverage).
//
// The paper's MOP minimizes the two objectives c_impl(α(t)) and
// 1/f_impl(α(t)) simultaneously; a design point is Pareto-optimal iff no
// other design point is better in all objectives (Fig. 4). Objective
// vectors here are always minimized.
package pareto

import (
	"math"
	"sort"
)

// Dominates reports whether objective vector a dominates b (both
// minimized): a is no worse in every component and strictly better in
// at least one. Vectors must have equal length; mismatched vectors are
// never comparable.
func Dominates(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

// CostFlexObjectives converts the paper's two criteria into a minimized
// objective vector (c_impl, 1/f_impl). Zero flexibility maps to +Inf,
// matching the intuition that an implementation realizing no behaviour
// is infinitely bad on the flexibility axis.
func CostFlexObjectives(cost, flexibility float64) []float64 {
	inv := math.Inf(1)
	if flexibility > 0 {
		inv = 1 / flexibility
	}
	return []float64{cost, inv}
}

// Entry couples an objective vector with an arbitrary payload (an
// implementation, an allocation, ...).
type Entry struct {
	Objectives []float64
	Value      any
}

// Front is an archive of mutually non-dominated entries. The zero value
// is ready to use.
type Front struct {
	entries []*Entry
}

// Add inserts the entry unless it is dominated by (or exactly equal in
// objectives to) an archived entry; entries the newcomer dominates are
// removed. It reports whether the entry was inserted.
func (f *Front) Add(e *Entry) bool {
	keep := f.entries[:0]
	for _, old := range f.entries {
		if Dominates(old.Objectives, e.Objectives) || equal(old.Objectives, e.Objectives) {
			// Newcomer dominated or duplicate: archive unchanged (old
			// entries before keep-slot compaction are all retained).
			return false
		}
		if !Dominates(e.Objectives, old.Objectives) {
			keep = append(keep, old)
		}
	}
	f.entries = append(keep, e)
	return true
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Size returns the number of archived entries.
func (f *Front) Size() int { return len(f.entries) }

// Entries returns the archived entries sorted lexicographically by
// objective vector.
func (f *Front) Entries() []*Entry {
	out := append([]*Entry(nil), f.entries...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Objectives, out[j].Objectives
		for k := range a {
			if k >= len(b) {
				return false
			}
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return out
}

// DominatesPoint reports whether some archived entry dominates or
// equals the given objective vector — i.e. whether the point is
// redundant with respect to the front.
func (f *Front) DominatesPoint(obj []float64) bool {
	for _, e := range f.entries {
		if Dominates(e.Objectives, obj) || equal(e.Objectives, obj) {
			return true
		}
	}
	return false
}

// Hypervolume2D computes the hypervolume indicator of a 2-D front with
// respect to a reference point (both objectives minimized; the
// reference must be dominated by every entry for the result to be
// meaningful). Entries with any objective at or beyond the reference
// contribute nothing.
func Hypervolume2D(f *Front, ref [2]float64) float64 {
	var pts [][2]float64
	for _, e := range f.entries {
		if len(e.Objectives) != 2 {
			continue
		}
		x, y := e.Objectives[0], e.Objectives[1]
		if x >= ref[0] || y >= ref[1] || math.IsInf(x, 0) || math.IsInf(y, 0) {
			continue
		}
		pts = append(pts, [2]float64{x, y})
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i][0] != pts[j][0] {
			return pts[i][0] < pts[j][0]
		}
		return pts[i][1] < pts[j][1]
	})
	hv := 0.0
	prevY := ref[1]
	for _, p := range pts {
		if p[1] < prevY {
			hv += (ref[0] - p[0]) * (prevY - p[1])
			prevY = p[1]
		}
	}
	return hv
}

// Coverage returns the coverage indicator C(A, B): the fraction of
// entries of B that are dominated by or equal to at least one entry of
// A. C(A,B) = 1 means A completely covers B. An empty B yields 0.
func Coverage(a, b *Front) float64 {
	if b.Size() == 0 {
		return 0
	}
	covered := 0
	for _, eb := range b.entries {
		for _, ea := range a.entries {
			if Dominates(ea.Objectives, eb.Objectives) || equal(ea.Objectives, eb.Objectives) {
				covered++
				break
			}
		}
	}
	return float64(covered) / float64(b.Size())
}

// AdditiveEpsilon computes the additive ε-indicator ε(A, B): the
// smallest ε such that every point of B is weakly dominated by some
// point of A shifted by ε in every objective. ε(A, B) = 0 iff A covers
// B; smaller is better. Infinite objectives are skipped on both sides.
func AdditiveEpsilon(a, b *Front) float64 {
	worst := 0.0
	for _, eb := range b.entries {
		best := math.Inf(1)
		for _, ea := range a.entries {
			// Smallest shift making ea weakly dominate eb.
			if len(ea.Objectives) != len(eb.Objectives) {
				continue
			}
			shift := 0.0
			ok := true
			for k := range ea.Objectives {
				if math.IsInf(ea.Objectives[k], 0) || math.IsInf(eb.Objectives[k], 0) {
					ok = false
					break
				}
				if d := ea.Objectives[k] - eb.Objectives[k]; d > shift {
					shift = d
				}
			}
			if ok && shift < best {
				best = shift
			}
		}
		if !math.IsInf(best, 1) && best > worst {
			worst = best
		}
	}
	return worst
}
