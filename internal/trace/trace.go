// Package trace models the environment of an adaptive system as a
// discrete-time Markov chain over behaviour modes: each state demands
// one behaviour (an elementary cluster selection of the problem graph),
// transitions capture how the environment evolves (a TV viewer mostly
// keeps watching, occasionally switches to a game, rarely browses).
//
// The package computes the stationary distribution of the chain, from
// which the long-run expected service level of an implementation
// follows analytically — the quantity the simulated traces of package
// sim converge to. It closes the loop on the paper's adaptive-systems
// motivation: flexibility bought at design time is service probability
// under an environment model at run time.
package trace

import (
	"fmt"
	"maps"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/hgraph"
	"repro/internal/sim"
)

// Mode is one environment state.
type Mode struct {
	Name      string
	Behaviour hgraph.Selection
}

// Chain is a discrete-time Markov chain over modes. P[i][j] is the
// probability of moving from mode i to mode j; rows must sum to 1.
type Chain struct {
	Modes []Mode
	P     [][]float64
}

// Validate checks stochasticity.
func (c *Chain) Validate() error {
	n := len(c.Modes)
	if n == 0 {
		return fmt.Errorf("trace: empty chain")
	}
	if len(c.P) != n {
		return fmt.Errorf("trace: P has %d rows, want %d", len(c.P), n)
	}
	for i, row := range c.P {
		if len(row) != n {
			return fmt.Errorf("trace: row %d has %d entries, want %d", i, len(row), n)
		}
		sum := 0.0
		for _, p := range row {
			if p < 0 {
				return fmt.Errorf("trace: negative probability in row %d", i)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("trace: row %d sums to %v, want 1", i, sum)
		}
	}
	return nil
}

// Uniform builds a chain that jumps to a uniformly random mode at every
// step (including self-transitions).
func Uniform(modes []Mode) *Chain {
	n := len(modes)
	p := make([][]float64, n)
	for i := range p {
		p[i] = make([]float64, n)
		for j := range p[i] {
			p[i][j] = 1 / float64(n)
		}
	}
	return &Chain{Modes: modes, P: p}
}

// Sticky builds a chain that stays in the current mode with probability
// stay and otherwise jumps uniformly to one of the other modes.
func Sticky(modes []Mode, stay float64) (*Chain, error) {
	n := len(modes)
	if n == 0 {
		return nil, fmt.Errorf("trace: no modes")
	}
	if stay < 0 || stay > 1 {
		return nil, fmt.Errorf("trace: stay probability %v out of [0,1]", stay)
	}
	if n == 1 {
		return &Chain{Modes: modes, P: [][]float64{{1}}}, nil
	}
	p := make([][]float64, n)
	for i := range p {
		p[i] = make([]float64, n)
		for j := range p[i] {
			if i == j {
				p[i][j] = stay
			} else {
				p[i][j] = (1 - stay) / float64(n-1)
			}
		}
	}
	return &Chain{Modes: modes, P: p}, nil
}

// Stationary computes the stationary distribution π (πP = π) by power
// iteration from the uniform distribution. For periodic chains the
// Cesàro-damped update (½π + ½πP) guarantees convergence to a
// stationary distribution of the chain.
func (c *Chain) Stationary() ([]float64, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n := len(c.Modes)
	pi := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	next := make([]float64, n)
	for iter := 0; iter < 100000; iter++ {
		for j := range next {
			next[j] = 0
		}
		for i := range pi {
			for j := range next {
				next[j] += pi[i] * c.P[i][j]
			}
		}
		diff := 0.0
		for j := range next {
			next[j] = 0.5*pi[j] + 0.5*next[j]
			diff += math.Abs(next[j] - pi[j])
		}
		copy(pi, next)
		if diff < 1e-12 {
			return pi, nil
		}
	}
	return nil, fmt.Errorf("trace: stationary distribution did not converge")
}

// Generate samples a request trace of length n from the chain starting
// in mode start, with unit inter-arrival times scaled by dt.
// Deterministic in seed.
func (c *Chain) Generate(seed int64, start, n int, dt float64) ([]sim.Request, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if start < 0 || start >= len(c.Modes) {
		return nil, fmt.Errorf("trace: start mode %d out of range", start)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]sim.Request, n)
	state := start
	for k := 0; k < n; k++ {
		out[k] = sim.Request{
			At:        float64(k) * dt,
			Behaviour: c.Modes[state].Behaviour.Clone(),
		}
		// next state
		u := rng.Float64()
		acc := 0.0
		next := len(c.Modes) - 1
		for j, p := range c.P[state] {
			acc += p
			if u < acc {
				next = j
				break
			}
		}
		state = next
	}
	return out, nil
}

// ExpectedServiceLevel returns the long-run probability that a request
// drawn from the chain's stationary distribution is served by the
// implementation: Σ_i π_i · [behaviour_i implemented]. The
// implementation must carry its full behaviour inventory
// (core.Options.AllBehaviours).
func ExpectedServiceLevel(c *Chain, im *core.Implementation) (float64, error) {
	pi, err := c.Stationary()
	if err != nil {
		return 0, err
	}
	level := 0.0
	for i, mode := range c.Modes {
		if implemented(im, mode.Behaviour) {
			level += pi[i]
		}
	}
	return level, nil
}

func implemented(im *core.Implementation, sel hgraph.Selection) bool {
	for i := range im.Behaviours {
		if maps.Equal(im.Behaviours[i].ECS.Selection, sel) {
			return true
		}
	}
	return false
}

// ModesOf enumerates every behaviour of a problem graph as a mode
// (named by its selection), capped at limit (0 = 10000).
func ModesOf(g *hgraph.Graph, limit int) []Mode {
	if limit <= 0 {
		limit = 10000
	}
	var out []Mode
	g.EnumerateSelections(func(sel hgraph.Selection) bool {
		out = append(out, Mode{Name: sel.String(), Behaviour: sel.Clone()})
		return len(out) < limit
	})
	return out
}
