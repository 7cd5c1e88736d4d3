package core

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/cover"
	"repro/internal/hgraph"
	"repro/internal/models"
	"repro/internal/spec"
)

// inTable reports whether en is an entry of table, not a copy of one.
func inTable(table []ecsEntry, en *ecsEntry) bool {
	for i := range table {
		if en == &table[i] {
			return true
		}
	}
	return false
}

// supportableSets returns the distinct supportable-cluster sets of the
// specification's possible allocations, in stream order.
func supportableSets(ev *evaluator) []bitset.Set {
	var sets []bitset.Set
	seen := map[string]bool{}
	for _, a := range possibleAllocations(ev.s) {
		sup := ev.sup.Supportable(ev.sup.AvailOf(a))
		if k := string(sup.KeyBytes()); !seen[k] {
			seen[k] = true
			sets = append(sets, sup)
		}
	}
	return sets
}

// attemptedSets returns the supportable sets an Explore run of s
// implemented, in stream order: the sets its evaluator interned ECS
// lists for.
func attemptedSets(s *spec.Spec) []bitset.Set {
	sc := newScan(context.Background(), s, Options{})
	sc.run(sc.boundFold(0), sc.candidates, 1, 0)
	listed := map[string]bool{}
	for k := range sc.ev.ecss.m {
		listed[k] = true
	}
	return slices.DeleteFunc(supportableSets(sc.ev), func(sup bitset.Set) bool {
		return !listed[string(sup.KeyBytes())]
	})
}

// TestECSListMatchesCover: for the supportable set of every possible
// allocation of the oracle specifications, the list filtered from the
// run-wide table is cover.EnumerateFunc restricted to the set: the same
// ECSs in the same order, selections and clusters alike, each entry's
// bits its clusters, its prepared problem nil exactly when its
// selection does not flatten, and the entry printing as its ECS before
// and after the map form is built.
func TestECSListMatchesCover(t *testing.T) {
	for _, sp := range oracleSpecs {
		t.Run(sp.name, func(t *testing.T) {
			t.Parallel()
			s := sp.mk()
			ev := newEvaluator(s, Options{})
			cix := ev.sup.Clusters
			flattens := map[string]bool{}
			for _, sup := range supportableSets(ev) {
				var want []cover.ECS
				cover.EnumerateFunc(s.Problem, func(id hgraph.ID) bool {
					i, ok := cix.Index(id)
					return ok && sup.Has(i)
				}, func(e cover.ECS) bool {
					want = append(want, e)
					return true
				})
				got := ev.ecsList(sup)
				if len(got) != len(want) {
					t.Fatalf("%v: %d ECSs listed, cover enumerates %d", cix.IDs(sup), len(got), len(want))
				}
				for i, en := range got {
					w := want[i]
					printed := fmt.Sprint(en.e)
					if e := ev.ecs(en); !maps.Equal(e.Selection, w.Selection) || !slices.Equal(e.Clusters, w.Clusters) {
						t.Fatalf("%v: ECS %d is %v, cover's %v", cix.IDs(sup), i, e, w)
					}
					if printed != w.String() || fmt.Sprint(en.e) != w.String() {
						t.Fatalf("%v: ECS %v prints %s, then %s once built", cix.IDs(sup), w, printed, en.e)
					}
					if ids := cix.IDs(en.bits); !slices.Equal(ids, w.Clusters) {
						t.Fatalf("%v: ECS %v has bits %v", cix.IDs(sup), w, ids)
					}
					if !inTable(ev.table, en) {
						t.Fatalf("%v: ECS %v is not a table entry", cix.IDs(sup), w)
					}
					key := w.Selection.String()
					ok, seen := flattens[key]
					if !seen {
						_, err := s.Problem.Flatten(w.Selection)
						ok = err == nil
						flattens[key] = ok
					}
					if (en.prob != nil) != ok {
						t.Fatalf("%v: ECS %v prepared %v, flattens %v", cix.IDs(sup), w, en.prob != nil, ok)
					}
				}
			}
			if len(flattens) == 0 {
				t.Error("no supportable set lists an ECS")
			}
		})
	}
}

// TestECSTableSharedAcrossWorkers: two goroutines list every
// supportable set of a fresh evaluator, in opposite orders. They see one
// table and the same entries for each set, and every ECS a list holds
// is flattened exactly once: FlattenMisses counts the distinct ECSs
// listed, and every other listing is a hit.
func TestECSTableSharedAcrossWorkers(t *testing.T) {
	for _, sp := range oracleSpecs {
		s := sp.mk()
		sets := supportableSets(newEvaluator(s, Options{}))
		ev := newEvaluator(s, Options{})
		lists := [2][][]*ecsEntry{}
		tables := [2][]ecsEntry{}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				lists[g] = make([][]*ecsEntry, len(sets))
				for k := range sets {
					i := k
					if g == 1 {
						i = len(sets) - 1 - k
					}
					lists[g][i] = ev.ecsList(sets[i])
				}
				tables[g] = ev.ecsTable()
			}()
		}
		close(start)
		wg.Wait()

		if &tables[0][0] != &tables[1][0] || len(tables[0]) != len(tables[1]) {
			t.Fatalf("%s: the workers saw two tables", sp.name)
		}
		used := map[*ecsEntry]bool{}
		listed := 0
		for i := range sets {
			if !slices.Equal(lists[0][i], lists[1][i]) {
				t.Fatalf("%s: set %d: the workers got different lists", sp.name, i)
			}
			for _, en := range lists[0][i] {
				if !inTable(tables[0], en) {
					t.Fatalf("%s: set %d lists an entry outside the table", sp.name, i)
				}
				used[en] = true
			}
			listed += len(lists[0][i])
		}
		c := ev.snapshot()
		if c.FlattenMisses != len(used) || c.FlattenHits != listed-len(used) {
			t.Errorf("%s: %d flatten misses and %d hits, want %d and %d (%d distinct ECSs in %d listings)",
				sp.name, c.FlattenMisses, c.FlattenHits, len(used), listed-len(used), len(used), listed)
		}
	}
}

// TestECSListAllocs: once an evaluator's table is built and its ECSs
// prepared, the list of a supportable set not listed before builds no
// ECS, selection or bitset and flattens nothing. It allocates the
// list and its key, plus the cache map's growth (three allocations when
// the map outgrows its first group, two on a later growth): at most 5
// allocations whatever the list's length, where enumerating a set's
// ECSs allocates several per ECS.
func TestECSListAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, sp := range oracleSpecs {
		s := sp.mk()
		ev := newEvaluator(s, Options{})
		// The full allocation's set holds every other: listing it
		// prepares every ECS any set lists.
		all := make([]int, len(ev.units))
		for k := range all {
			all[k] = k
		}
		full := ev.sup.SupportableUnits(all, ev.sup.NewScratch()).Clone()
		ev.ecsList(full)
		sets := slices.DeleteFunc(supportableSets(ev), full.Equal)
		tableLen, misses := len(ev.table), ev.flattenMisses.Load()

		listed := 0
		for _, sup := range sets {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			n := len(ev.ecsList(sup))
			runtime.ReadMemStats(&after)
			if got := after.Mallocs - before.Mallocs; got > 5 {
				t.Errorf("%s: the new list of %d ECSs over %v allocates %d times, want at most 5",
					sp.name, n, ev.sup.Clusters.IDs(sup), got)
			}
			listed += n
		}
		if listed == 0 {
			t.Fatalf("%s: no new list holds an ECS", sp.name)
		}
		if len(ev.table) != tableLen || ev.flattenMisses.Load() != misses {
			t.Errorf("%s: the new lists grew the table to %d (from %d) and flattened %d ECSs",
				sp.name, len(ev.table), tableLen, ev.flattenMisses.Load()-misses)
		}
	}
}

// TestECSTableAllocs pins what a fresh evaluator allocates to lay out
// the problem graph, enumerate its ECS table and build every entry's
// binding problem: at most 70 allocations on the Set-Top box and 44 on
// wide. The map-based construction it replaced (cover.EnumerateFunc,
// then hgraph.Flatten and bind.Prepare per ECS) took 246 and 165.
func TestECSTableAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		s    *spec.Spec
		max  float64
	}{
		{"settop", models.SetTopBox(), 70},
		{"wide", models.Synthetic(models.ScaledSynthetic(1, 22)), 44},
	} {
		base := testing.AllocsPerRun(20, func() { newEvaluator(c.s, Options{}) })
		got := testing.AllocsPerRun(20, func() {
			ev := newEvaluator(c.s, Options{})
			table := ev.ecsTable()
			for i := range table {
				ev.problem(&table[i])
			}
		}) - base
		if got > c.max {
			t.Errorf("%s: the ECS table and its problems allocate %v times, want at most %v", c.name, got, c.max)
		}
	}
}

// BenchmarkECSCover is the ECS cover layer's number: a fresh evaluator
// lists the ECSs of every supportable set an Explore run of the Set-Top
// box attempts, enumerating the run's table and preparing each ECS's
// flattening once.
func BenchmarkECSCover(b *testing.B) {
	s := models.SetTopBox()
	sets := attemptedSets(s)
	b.ReportAllocs()
	b.ResetTimer()
	listed := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ev := newEvaluator(s, Options{})
		b.StartTimer()
		listed = 0
		for _, sup := range sets {
			listed += len(ev.ecsList(sup))
		}
	}
	b.ReportMetric(float64(len(sets)), "sets/op")
	b.ReportMetric(float64(listed), "ecs/op")
}
