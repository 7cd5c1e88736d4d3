// Software-defined radio: a second domain for the flexibility/cost
// method, plus incremental platform upgrades and a Markov environment.
//
//	go run ./examples/radio
//
// A radio must support GSM-style, WiFi-style and Bluetooth-style air
// interfaces with nested algorithm alternatives. The example explores
// the platform family, then upgrades a deployed entry-level radio
// without breaking its certified behaviours, and finally evaluates the
// long-run service level under a sticky Markov environment (users
// mostly stay on one standard).
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	s := models.SDR()

	// --- Fresh design space. ---
	fmt.Println("== SDR platform family ==")
	r := core.Explore(s, core.Options{AllBehaviours: true})
	fmt.Print(r.FrontTable(s.Problem.Root.ID))
	fmt.Printf("max flexibility %g; %d possible allocations, %d implementation attempts\n\n",
		r.MaxFlexibility, r.Stats.PossibleAllocations, r.Stats.Attempted)

	// --- Incremental upgrade of the deployed entry radio. ---
	fmt.Println("== Upgrading the deployed {DSP1} radio ==")
	base := r.Front[0]
	up := core.Run(context.Background(), s, core.Options{AllBehaviours: true}, core.Request{Kind: core.KindUpgrade, Base: base.Allocation})
	fmt.Printf("deployed: %v (f=%g). Upgrade path (never discards hardware):\n",
		base.Allocation, base.Flexibility)
	for _, im := range up.Front {
		fmt.Printf("  +$%-4.0f -> $%4.0f f=%g  %v\n",
			im.Cost-base.Cost, im.Cost, im.Flexibility, im.Allocation)
	}
	fmt.Println()

	// --- Markov environment: mostly-sticky standard switching. ---
	fmt.Println("== Long-run service level under a sticky environment ==")
	modes := trace.ModesOf(s.Problem, 0)
	chain, err := trace.Sticky(modes, 0.85)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := chain.Generate(42, 0, 2000, 100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%8s %3s %10s %10s %9s\n", "cost", "f", "analytic", "simulated", "reconfig")
	for _, im := range r.Front {
		analytic, err := trace.ExpectedServiceLevel(chain, im)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := sim.Run(s, im, tr, sim.Config{ReconfigDelay: 20})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%7.0f$ %3.0f %9.1f%% %9.1f%% %9d\n",
			im.Cost, im.Flexibility, 100*analytic, 100*rep.ServedFraction(), rep.Reconfigurations)
	}
	fmt.Println()
	fmt.Println("The analytic column is Σ π_i·[behaviour_i implemented] over the")
	fmt.Println("chain's stationary distribution; the simulation converges to it.")
}
