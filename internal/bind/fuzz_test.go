package bind

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/alloc"
	"repro/internal/hgraph"
	"repro/internal/spec"
)

// randomSpec builds a small random specification: a few timed and
// untimed processes with random dependences and one two-cluster
// interface, a few resources (some of them buses) with random links and
// one reconfigurable interface, and random mapping edges.
func randomSpec(rng *rand.Rand) (*spec.Spec, error) {
	pb := hgraph.NewBuilder("fz-problem", "fzp")
	pr := pb.Root()
	np := 1 + rng.Intn(4)
	period := func() []any {
		if rng.Intn(2) == 0 {
			return nil
		}
		return []any{spec.AttrPeriod, float64(50 + rng.Intn(250))}
	}
	var procs []hgraph.ID
	for i := 0; i < np; i++ {
		id := hgraph.ID(fmt.Sprintf("P%d", i))
		pr.Vertex(id, period()...)
		procs = append(procs, id)
	}
	for i := 0; i < np; i++ {
		for j := i + 1; j < np; j++ {
			if rng.Intn(3) == 0 {
				pr.Edge(procs[i], procs[j])
			}
		}
	}
	pif := pr.Interface("IfX", hgraph.Port{Name: "in"})
	for c := 0; c < 2; c++ {
		q := hgraph.ID(fmt.Sprintf("Q%d", c))
		pif.Cluster(hgraph.ID(fmt.Sprintf("gX%d", c))).Vertex(q, period()...).Bind("in", q)
		procs = append(procs, q)
	}
	pr.PortEdge(procs[0], "", "IfX", "in")
	problem, err := pb.Build()
	if err != nil {
		return nil, err
	}

	ab := hgraph.NewBuilder("fz-arch", "fza")
	ar := ab.Root()
	nr := 1 + rng.Intn(4)
	var res []hgraph.ID
	for i := 0; i < nr; i++ {
		id := hgraph.ID(fmt.Sprintf("R%d", i))
		attrs := []any{spec.AttrCost, float64(1 + rng.Intn(50))}
		if rng.Intn(3) == 0 {
			attrs = append(attrs, spec.AttrComm, 1)
		}
		ar.Vertex(id, attrs...)
		res = append(res, id)
	}
	for i := 0; i < nr; i++ {
		for j := i + 1; j < nr; j++ {
			if rng.Intn(2) == 0 {
				ar.Edge(res[i], res[j])
			}
		}
	}
	aif := ar.Interface("FPGA", hgraph.Port{Name: "bus"})
	for c := 0; c < 2; c++ {
		d := hgraph.ID(fmt.Sprintf("D%d", c))
		aif.Cluster(hgraph.ID(fmt.Sprintf("dD%d", c))).Vertex(d, spec.AttrCost, 10).Bind("bus", d)
		res = append(res, d)
	}
	ar.PortEdge(res[rng.Intn(nr)], "", "FPGA", "bus")
	arch, err := ab.Build()
	if err != nil {
		return nil, err
	}

	var ms []*spec.Mapping
	for _, p := range procs {
		for _, r := range res {
			if rng.Intn(2) == 0 {
				ms = append(ms, &spec.Mapping{Process: p, Resource: r, Latency: float64(1 + rng.Intn(120))})
			}
		}
	}
	return spec.New("fuzz", problem, arch, ms)
}

// FuzzBindMatchesOracle: on random small specifications, every ECS
// under every architecture configuration of a random allocation binds
// and verifies like the map-based oracle.
func FuzzBindMatchesOracle(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed), uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, timing, maxNodes uint8) {
		rng := rand.New(rand.NewSource(seed))
		s, err := randomSpec(rng)
		if err != nil {
			t.Skip(err)
		}
		opts := Options{Timing: timingPolicies[int(timing)%len(timingPolicies)], MaxNodes: int(maxNodes % 6)}
		a := spec.Allocation{}
		for _, u := range alloc.Units(s) {
			if rng.Intn(3) != 0 {
				a[u.ID] = true
			}
		}
		var sc Scratch
		k := 0
		s.Problem.EnumerateSelections(func(sel hgraph.Selection) bool {
			fp, err := s.Problem.Flatten(sel)
			if err != nil {
				return true
			}
			p := Prepare(s, fp)
			a.EnumerateArchSelections(s, func(asel hgraph.Selection) bool {
				av, err := s.ArchViewFor(a, asel)
				if err != nil {
					return true
				}
				compareWithOracle(t, s, fp, p, av, opts, &sc, true, true, k)
				k++
				return true
			})
			return true
		})
		if k == 0 {
			t.Skip("no flattenable configuration")
		}
	})
}
