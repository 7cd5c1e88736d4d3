package core_test

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/spec"
)

// Exploring the paper's Set-Top box case study reproduces the published
// Pareto table.
func ExampleExplore() {
	s := models.SetTopBox()
	r := core.Explore(s, core.Options{})
	for _, im := range r.Front {
		fmt.Printf("$%g f=%g %v\n", im.Cost, im.Flexibility, im.Allocation)
	}
	// Output:
	// $100 f=2 {uP2}
	// $120 f=3 {uP1}
	// $230 f=4 {C1 dG1 dU2 uP2}
	// $290 f=5 {C1 dD3 dG1 dU2 uP2}
	// $360 f=7 {A1 C2 uP2}
	// $430 f=8 {A1 C1 C2 dD3 uP2}
}

// Run takes the explorer and its inputs as a Request, here the
// Pareto-optimal upgrades of the deployed $100 box, and stops cleanly
// with its prefix-exact front if the context ends first.
func ExampleRun() {
	s := models.SetTopBox()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	req := core.Request{Kind: core.KindUpgrade, Base: spec.NewAllocation("uP2")}
	r := core.Run(ctx, s, core.Options{}, req)
	fmt.Println(r.Reason)
	for _, im := range r.Front {
		fmt.Printf("$%g f=%g %v\n", im.Cost, im.Flexibility, im.Allocation)
	}
	// Output:
	// completed
	// $170 f=3 {C1 dU2 uP2}
	// $230 f=4 {C1 dG1 dU2 uP2}
	// $290 f=5 {C1 dD3 dG1 dU2 uP2}
	// $360 f=7 {A1 C2 uP2}
	// $430 f=8 {A1 C1 C2 dD3 uP2}
}

// Constructing one implementation reproduces the paper's worked
// feasibility analysis of the cheapest candidate: browser and digital
// TV fit on μP2, the game console fails the 69 % utilization estimate.
func ExampleImplement() {
	s := models.SetTopBox()
	im := core.Implement(s, spec.NewAllocation("uP2"), core.Options{}, nil)
	fmt.Printf("cost $%g, flexibility %g\n", im.Cost, im.Flexibility)
	for _, b := range im.Behaviours {
		fmt.Println("behaviour", b.ECS)
	}
	// Output:
	// cost $100, flexibility 2
	// behaviour {GP gI}
	// behaviour {GP gD gD1 gU1}
}
