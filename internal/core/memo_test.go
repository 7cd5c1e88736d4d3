package core

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

// scanOutcome is one verdict of the list-scan memo beside its present
// set.
type scanOutcome struct {
	present bitset.Set
	verdict bindOutcome
}

// scanMemo is the binding memo as one list of verdicts in insertion
// order, answered by scanning it: the reference the bitmap memo is held
// to (FuzzMemoMatchesScan).
type scanMemo struct{ outs []scanOutcome }

// lookup answers like bindMemo.lookup: an exact hit, else a proven
// infeasibility on a superset, else — when replay is allowed — a
// feasible verdict stored under a subset.
func (l *scanMemo) lookup(present bitset.Set, replay bool) (bindOutcome, memoHit) {
	for _, o := range l.outs {
		if o.present.Equal(present) {
			return o.verdict, memoExact
		}
	}
	feasible := false
	for _, o := range l.outs {
		switch {
		case !o.verdict.ok:
			if o.verdict.proof && present.SubsetOf(o.present) {
				return bindOutcome{}, memoInfeasible
			}
		case o.present.SubsetOf(present):
			feasible = true
		}
	}
	if replay && feasible {
		return bindOutcome{ok: true}, memoReplay
	}
	return bindOutcome{}, memoMiss
}

// store appends a verdict unless its present set is stored.
func (l *scanMemo) store(present bitset.Set, ok, proof bool) {
	if _, hit := l.lookup(present, false); hit != memoExact {
		l.outs = append(l.outs, scanOutcome{present.Clone(), bindOutcome{ok: ok, proof: proof}})
	}
}

// memoScript decodes a fuzz input into a memo and its operations. The
// first byte sizes the mask (1 to 64 resources) and the second spaces
// its resources over a 192-resource index. Then each operation is a
// kind byte: its value mod 5 stores a feasible, a proven-infeasible or
// a truncated outcome, or looks up with replay on or off; its value / 5
// mod 3 draws the present set afresh from the next mask bytes, or adds
// or removes the mask resource the next byte names from the previous
// present set, so stored sets nest often.
func memoScript(data []byte, op func(m *bindMemo, kind int, present bitset.Set)) {
	if len(data) < 2 {
		return
	}
	n, step := 1+int(data[0])%64, 1+int(data[1])%3
	m := &bindMemo{mask: bitset.New(192)}
	res := make([]int, n)
	for j := range res {
		res[j] = j * step
		m.mask.Add(res[j])
	}
	data = data[2:]
	present := bitset.New(192)
	for len(data) > 0 {
		kind, mode := int(data[0])%5, int(data[0])/5%3
		data = data[1:]
		switch mode {
		case 0:
			present = bitset.New(192)
			for j := range n {
				if k := j / 8; k < len(data) && data[k]&(1<<(j%8)) != 0 {
					present.Add(res[j])
				}
			}
			data = data[min(len(data), (n+7)/8):]
		default:
			if len(data) == 0 {
				return
			}
			present = present.Clone()
			if r := res[int(data[0])%n]; mode == 1 {
				present.Add(r)
			} else {
				present.Remove(r)
			}
			data = data[1:]
		}
		op(m, kind, present)
	}
}

// FuzzMemoMatchesScan: over a mask of up to 64 resources, a sequence
// of stores (feasible, proven infeasible, truncated) and lookups (with
// replay on and off) gets from the bitmap memo the hit kind and verdict
// the list scan gets, and after every store an exact lookup of its
// present set finds the verdict the scan keeps for it.
func FuzzMemoMatchesScan(f *testing.F) {
	f.Add([]byte{7, 0, 0, 3, 3, 1, 5, 6, 8, 0xff, 9, 0x0f, 13, 2})
	f.Add([]byte{63, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 3, 1, 2, 3, 4, 5, 6, 7, 8, 5, 9, 11, 9})
	// Long runs over a 10-resource mask fill several chunks.
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := []byte{9, byte(seed)}
		for range 400 {
			kind := byte(rng.Intn(15))
			data = append(data, kind)
			if kind/5%3 == 0 {
				data = append(data, byte(rng.Intn(256)), byte(rng.Intn(4)))
			} else {
				data = append(data, byte(rng.Intn(10)))
			}
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ref scanMemo
		step := 0
		memoScript(data, func(m *bindMemo, kind int, present bitset.Set) {
			step++
			replay := kind == 3
			if kind < 3 {
				ok, proof := kind == 0, kind == 1
				m.store(present, ok, proof)
				ref.store(present, ok, proof)
			}
			got, gotHit := m.lookup(present, replay)
			want, wantHit := ref.lookup(present, replay)
			if gotHit != wantHit || got != want {
				t.Fatalf("step %d, kind %d, present %v: memo (%+v, %d), list scan (%+v, %d)", step, kind, present, got, gotHit, want, wantHit)
			}
			if m.n != len(ref.outs) {
				t.Fatalf("step %d: memo holds %d outcomes, list scan %d", step, m.n, len(ref.outs))
			}
		})
	})
}
