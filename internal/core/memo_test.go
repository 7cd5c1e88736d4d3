package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
)

// scanOutcome is one outcome of the list-scan memo: its present set
// beside its verdict and a copy of its binding.
type scanOutcome struct {
	present   bitset.Set
	ok, proof bool
	binding   []int32
}

// scanMemo is the binding memo as one list of outcomes in insertion
// order, answered by scanning it: the reference the bitmap memo is held
// to (FuzzMemoMatchesScan).
type scanMemo struct{ outs []scanOutcome }

// lookup answers like bindMemo.lookup: an exact hit, else a proven
// infeasibility on a superset, else — when replay is allowed — the
// first feasible outcome in insertion order stored under a subset.
func (l *scanMemo) lookup(present bitset.Set, replay bool) (scanOutcome, memoHit) {
	for _, o := range l.outs {
		if o.present.Equal(present) {
			return o, memoExact
		}
	}
	sub := -1
	for i, o := range l.outs {
		switch {
		case !o.ok:
			if o.proof && present.SubsetOf(o.present) {
				return scanOutcome{}, memoInfeasible
			}
		case replay && sub < 0 && o.present.SubsetOf(present):
			sub = i
		}
	}
	if sub >= 0 {
		return l.outs[sub], memoReplay
	}
	return scanOutcome{}, memoMiss
}

// store appends an outcome unless its present set is stored, and
// returns the stored one.
func (l *scanMemo) store(present bitset.Set, ok, proof bool, binding []int32) scanOutcome {
	if o, hit := l.lookup(present, false); hit == memoExact {
		return o
	}
	o := scanOutcome{present: present.Clone(), ok: ok, proof: proof}
	if ok {
		o.binding = slices.Clone(binding)
	}
	l.outs = append(l.outs, o)
	return o
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
// replay on and off) gets from the bitmap memo the hit kind, verdict
// and binding the list scan gets, and every store returns the outcome
// the scan stores or finds.
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
		buf := make([]int32, 2)
		memoScript(data, func(m *bindMemo, kind int, present bitset.Set) {
			step++
			var (
				got     bindOutcome
				want    scanOutcome
				gotHit  = memoExact
				wantHit = memoExact
			)
			switch kind {
			case 0, 1, 2:
				ok, proof := kind == 0, kind == 1
				buf[0], buf[1] = int32(step), int32(-step)
				got = m.store(present, ok, proof, buf)
				want = ref.store(present, ok, proof, buf)
				// The memo keeps a copy: the caller's buffer is reused.
				buf[0], buf[1] = 0, 0
			default:
				replay := kind == 3
				got, gotHit = m.lookup(present, replay)
				want, wantHit = ref.lookup(present, replay)
			}
			if gotHit != wantHit || got.ok != want.ok || got.proof != want.proof || !slices.Equal(got.binding, want.binding) {
				t.Fatalf("step %d, kind %d, present %v: memo (%+v, %d), list scan (%+v, %d)", step, kind, present, got, gotHit, want, wantHit)
			}
			if m.n != len(ref.outs) {
				t.Fatalf("step %d: memo holds %d outcomes, list scan %d", step, m.n, len(ref.outs))
			}
		})
	})
}
