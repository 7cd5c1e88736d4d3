// Package sim simulates the operation of an adaptive system: an
// implementation (a dimensioned platform with its feasible behaviours)
// faces a trace of environment requests, each demanding a behaviour
// (an elementary cluster selection) from some point in time on. The
// simulator switches behaviours — reconfiguring the architecture when
// the behaviour's configuration differs — or rejects requests the
// implementation is not flexible enough to serve.
//
// This operationalizes the paper's motivation ("systems that may adopt
// their behavior during operation, e.g., due to new environmental
// conditions"): the fraction of served requests grows with the
// implemented flexibility, quantifying what the extra allocation cost
// buys at run time.
package sim

import (
	"fmt"
	"maps"
	"math/rand"
	"sort"

	"repro/internal/activation"
	"repro/internal/core"
	"repro/internal/hgraph"
	"repro/internal/spec"
)

// Request is one environment demand: from time At on, the system should
// execute the behaviour identified by the problem-graph cluster
// selection.
type Request struct {
	At        float64
	Behaviour hgraph.Selection
}

// Config parameterizes the runtime.
type Config struct {
	// ReconfigDelay is the time penalty for changing the architecture
	// configuration (e.g. loading an FPGA bitstream).
	ReconfigDelay float64
	// SwitchDelay is the penalty for any behaviour switch.
	SwitchDelay float64
}

// EventKind classifies simulation events.
type EventKind int

// Event kinds.
const (
	// Serve: the request was accepted and a phase started.
	Serve EventKind = iota
	// Reject: the implementation cannot execute the behaviour.
	Reject
	// Reconfigure: serving required an architecture reconfiguration.
	Reconfigure
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case Serve:
		return "serve"
	case Reject:
		return "reject"
	case Reconfigure:
		return "reconfigure"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one runtime occurrence.
type Event struct {
	At     float64
	Kind   EventKind
	Detail string
}

// Report summarizes a simulation run.
type Report struct {
	Served           int
	Rejected         int
	Reconfigurations int
	// SwitchOverhead is the total time spent in switch/reconfiguration
	// penalties.
	SwitchOverhead float64
	// Schedule is the resulting timed activation (one phase per served
	// request), verifiable with activation.CheckSchedule.
	Schedule activation.Schedule
	Events   []Event
}

// ServedFraction is Served / (Served + Rejected); 1.0 for an empty
// trace.
func (r *Report) ServedFraction() float64 {
	total := r.Served + r.Rejected
	if total == 0 {
		return 1
	}
	return float64(r.Served) / float64(total)
}

// Run simulates the trace against the implementation. Requests are
// processed in time order; identical consecutive behaviours do not
// switch. An error is returned only for malformed traces (negative
// times, nil selections) — inability to serve is reported, not an
// error.
func Run(s *spec.Spec, im *core.Implementation, trace []Request, cfg Config) (*Report, error) {
	reqs := append([]Request(nil), trace...)
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].At < reqs[j].At })
	rep := &Report{}
	var current *core.Behaviour
	for _, rq := range reqs {
		if rq.At < 0 {
			return nil, fmt.Errorf("sim: negative request time %v", rq.At)
		}
		if rq.Behaviour == nil {
			return nil, fmt.Errorf("sim: request at %v has no behaviour", rq.At)
		}
		if current != nil && maps.Equal(current.ECS.Selection, rq.Behaviour) {
			rep.Served++
			rep.Events = append(rep.Events, Event{At: rq.At, Kind: Serve,
				Detail: "already executing " + rq.Behaviour.String()})
			continue
		}
		beh := findBehaviour(im, rq.Behaviour)
		if beh == nil {
			rep.Rejected++
			rep.Events = append(rep.Events, Event{At: rq.At, Kind: Reject,
				Detail: "behaviour " + rq.Behaviour.String() + " not implemented"})
			continue
		}
		start := rq.At
		if current != nil {
			start += cfg.SwitchDelay
			rep.SwitchOverhead += cfg.SwitchDelay
			if !maps.Equal(current.ArchSelection, beh.ArchSelection) {
				rep.Reconfigurations++
				rep.SwitchOverhead += cfg.ReconfigDelay
				start += cfg.ReconfigDelay
				rep.Events = append(rep.Events, Event{At: rq.At, Kind: Reconfigure,
					Detail: current.ArchSelection.String() + " -> " + beh.ArchSelection.String()})
			}
		}
		rep.Served++
		rep.Events = append(rep.Events, Event{At: rq.At, Kind: Serve,
			Detail: rq.Behaviour.String()})
		rep.Schedule.Phases = append(rep.Schedule.Phases, activation.Phase{
			Start:         start,
			Selection:     beh.ECS.Selection.Clone(),
			ArchSelection: beh.ArchSelection.Clone(),
			Binding:       beh.Binding.Clone(),
		})
		current = beh
	}
	return rep, nil
}

func findBehaviour(im *core.Implementation, sel hgraph.Selection) *core.Behaviour {
	for i := range im.Behaviours {
		if maps.Equal(im.Behaviours[i].ECS.Selection, sel) {
			return &im.Behaviours[i]
		}
	}
	return nil
}

// RandomTrace samples n requests uniformly from the specification's
// elementary cluster selections (the full behaviour space, regardless
// of what any implementation supports), with unit inter-arrival times.
// Deterministic in seed.
func RandomTrace(s *spec.Spec, seed int64, n int) []Request {
	all := map[hgraph.ID]bool{}
	for _, c := range s.Problem.Clusters() {
		all[c.ID] = true
	}
	var behaviours []hgraph.Selection
	s.Problem.EnumerateSelections(func(sel hgraph.Selection) bool {
		behaviours = append(behaviours, sel.Clone())
		return len(behaviours) < 10000
	})
	rng := rand.New(rand.NewSource(seed))
	out := make([]Request, n)
	for i := range out {
		out[i] = Request{
			At:        float64(i) * 1000,
			Behaviour: behaviours[rng.Intn(len(behaviours))],
		}
	}
	return out
}

// ServiceLevel runs a random trace of the given length against every
// implementation and reports their served fractions — the quantitative
// link between flexibility and runtime adaptivity used by the adaptive
// example and the E12 benchmark.
func ServiceLevel(s *spec.Spec, impls []*core.Implementation, seed int64, n int) []float64 {
	trace := RandomTrace(s, seed, n)
	out := make([]float64, len(impls))
	for i, im := range impls {
		rep, err := Run(s, im, trace, Config{})
		if err != nil {
			out[i] = 0
			continue
		}
		out[i] = rep.ServedFraction()
	}
	return out
}

// ExpectedServiceLevel returns the exact probability that a uniformly
// random behaviour request is served: the ratio of the implementation's
// feasible behaviours to all elementary cluster selections of the
// specification. For an exact value the implementation must have been
// constructed with core.Options.AllBehaviours (otherwise redundant
// feasible behaviours are elided and the value is a lower bound).
func ExpectedServiceLevel(s *spec.Spec, im *core.Implementation) float64 {
	total := s.Problem.CountVariants()
	if total == 0 {
		return 1
	}
	return float64(len(im.Behaviours)) / float64(total)
}
