// Package core implements the paper's primary contribution: the
// flexibility/cost design-space exploration of hierarchical
// specification graphs (EXPLORE, Section 4), together with the
// implementation model it produces and baseline explorers (exhaustive
// search, random search and an evolutionary algorithm in the spirit of
// the paper's reference [2]) used to validate the front and to measure
// the pruning the paper reports.
package core

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/alloc"
	"repro/internal/bind"
	"repro/internal/cover"
	"repro/internal/faultinject"
	"repro/internal/flex"
	"repro/internal/hgraph"
	"repro/internal/spec"
)

// Behaviour is one feasibly implemented elementary cluster activation:
// the behaviour's cluster selection, the architecture configuration
// chosen for it, and the binding of its processes.
type Behaviour struct {
	ECS           cover.ECS
	ArchSelection hgraph.Selection
	Binding       bind.Binding
}

// Implementation is a feasible design point: a resource allocation with
// its cost, the set of problem-graph clusters it implements (a⁺ = 1),
// the resulting flexibility, and one feasible behaviour per implemented
// elementary cluster activation.
type Implementation struct {
	Allocation  spec.Allocation
	Cost        float64
	Flexibility float64
	Clusters    []hgraph.ID
	Behaviours  []Behaviour
}

// owned returns a copy of im that shares no map or slice with it: the
// allocation, the implemented clusters and each behaviour's ECS,
// Binding and ArchSelection are copied; behaviours with equal
// architecture selections share one copy. A front admitting a ready
// implementation (a Resume front) stores an owned copy, and Progress
// reports hand out owned copies too, so nothing a caller is handed
// aliases another implementation or the run's result.
func owned(im *Implementation) *Implementation {
	c := *im
	c.Allocation = maps.Clone(im.Allocation)
	c.Clusters = slices.Clone(im.Clusters)
	c.Behaviours = make([]Behaviour, len(im.Behaviours))
	for i, b := range im.Behaviours {
		b.ECS = cover.ECS{Selection: maps.Clone(b.ECS.Selection), Clusters: slices.Clone(b.ECS.Clusters)}
		b.Binding = b.Binding.Clone()
		shared := false
		for _, prev := range c.Behaviours[:i] {
			if maps.Equal(prev.ArchSelection, b.ArchSelection) {
				b.ArchSelection, shared = prev.ArchSelection, true
				break
			}
		}
		if !shared {
			b.ArchSelection = b.ArchSelection.Clone()
		}
		c.Behaviours[i] = b
	}
	return &c
}

// ClusterString renders the implemented clusters (root omitted), e.g.
// "gD1 gI gU1".
func (im *Implementation) ClusterString(root hgraph.ID) string {
	var parts []string
	for _, c := range im.Clusters {
		if c != root {
			parts = append(parts, string(c))
		}
	}
	return strings.Join(parts, " ")
}

// String implements fmt.Stringer.
func (im *Implementation) String() string {
	return fmt.Sprintf("%s c=%g f=%g", im.Allocation, im.Cost, im.Flexibility)
}

// Options configures exploration.
type Options struct {
	// Timing is the performance test applied during binding (the paper
	// uses the 69 % utilization estimate).
	Timing bind.TimingPolicy
	// Weighted switches the flexibility metric to the footnote-2
	// weighted variant.
	Weighted bool
	// IncludeUselessComm disables the useless-bus pruning of the
	// allocation enumeration.
	IncludeUselessComm bool
	// DisableFlexBound disables the paper's flexibility-estimation
	// bound (every possible allocation is then implemented) — ablation.
	DisableFlexBound bool
	// StopAtMaxFlex changes how a run that reaches the specification's
	// maximum flexibility is reported. Every run with the flexibility
	// bound stops walking there, because the bound prunes every later
	// candidate. By default the run reports what the full scan reports
	// (ReasonCompleted at the stream's length); with StopAtMaxFlex it
	// ends ReasonMaxFlex at the stop cursor. Without the bound
	// (DisableFlexBound) only StopAtMaxFlex stops the scan there.
	StopAtMaxFlex bool
	// AllBehaviours records every feasible elementary cluster
	// activation in the implementation instead of only those that
	// extend the implemented cluster set. Needed when the behaviours
	// drive a runtime simulation (package sim); irrelevant for the
	// flexibility value.
	AllBehaviours bool
	// MaxECS bounds the number of elementary cluster activations tested
	// per candidate (0 = 10000).
	MaxECS int
	// MaxScan bounds the enumeration effort in BDD search nodes visited
	// (0 = unbounded). A bounded run explores a deterministic prefix of
	// the candidate stream and ends with ReasonScanBound. Per visit the
	// walk reaches at least as far into the stream as the walk keyed by
	// each node's own cost did, and a snapshot that walk took under a
	// budget resumes to the current walk's prefix for that budget: the
	// budget replays from visit 0.
	MaxScan int
	// MaxBindNodes bounds each binding search (0 = unbounded).
	MaxBindNodes int

	// The fields below configure the anytime runtime, not the
	// exploration semantics: they never change which front a completed
	// run returns, and they are excluded from checkpoint option
	// digests.

	// Fault injects deterministic failures at the engine's failpoints
	// (SiteEstimate, SiteImplement); see internal/faultinject. A nil
	// plan is inert. Test harness only. A failpoint aimed at a
	// candidate past the point where a run settles (see StopAtMaxFlex)
	// does not fire in an inline run: that candidate is not evaluated.
	// In a parallel run a pool worker running ahead of the commit may
	// still fire it, on the worker's goroutine. An error or panic there
	// is dropped with the worker's evaluation, which is never folded. A
	// Cancel cancels the run's context: if the run settled first it has
	// no effect, and otherwise the run ends interrupted, exact at the
	// first candidate the cancellation reached, like any other
	// cancellation.
	Fault *faultinject.Plan
	// Progress, if non-nil, is called every ProgressEvery committed
	// candidates, and once more at the final cursor, with a consistent
	// snapshot of the run, suitable for checkpointing. Every call is
	// made on the caller's goroutine, parallel runs included, and a
	// panic in Progress propagates to the caller. The snapshot's front
	// holds copies of the run's implementations, made once per
	// implementation and handed out again by later reports: changing
	// them cannot reach the run's result, but treat them as read-only.
	Progress func(Progress)
	// ProgressEvery is the candidate interval between Progress calls
	// (0 = 64).
	ProgressEvery int
	// Resume seeds the run with the state of an earlier interrupted
	// run: candidates before Resume.Cursor are skipped (the
	// cost-ordered enumeration is deterministic, so the skip replays
	// the identical prefix) and the front, best flexibility, and effort
	// counters continue from the snapshot.
	Resume *Resume
}

func (o Options) maxECS() int {
	if o.MaxECS <= 0 {
		return 10000
	}
	return o.MaxECS
}

func (o Options) progressEvery() int {
	if o.ProgressEvery <= 0 {
		return 64
	}
	return o.ProgressEvery
}

// Failpoint sites of the exploration engine (see Options.Fault). Both
// are fired with the cost-ordered candidate index.
const (
	// SiteEstimate fires before each candidate's flexibility
	// estimation.
	SiteEstimate = "core/estimate"
	// SiteImplement fires before each candidate's implementation
	// construction (only candidates that beat the flexibility bound).
	SiteImplement = "core/implement"
)

// Diag kinds recorded in Stats.Diags.
const (
	DiagError = "error"
	DiagPanic = "panic"
)

// Diag is a structured diagnostic for one candidate evaluation that
// failed (an injected error, or a panic recovered by the parallel
// explorer). The candidate is skipped; the scan continues.
type Diag struct {
	Kind       string `json:"kind"` // DiagError | DiagPanic
	Site       string `json:"site"` // SiteEstimate | SiteImplement
	Cursor     int    `json:"cursor"`
	Allocation string `json:"allocation"`
	Message    string `json:"message"`
	Stack      string `json:"stack,omitempty"`
}

// Reason classifies how an exploration run ended.
type Reason string

const (
	// ReasonCompleted: the scan exhausted the possible-allocation
	// space, or its front reached the maximum flexibility, after which
	// the bound prunes every remaining candidate unevaluated. Either
	// way Cursor is the length of the candidate stream.
	ReasonCompleted Reason = "completed"
	// ReasonMaxFlex: Options.StopAtMaxFlex terminated the scan after
	// the specification's maximum flexibility was implemented.
	ReasonMaxFlex Reason = "max-flex"
	// ReasonScanBound: Options.MaxScan bounded the enumeration.
	ReasonScanBound Reason = "scan-bound"
	// ReasonDeadline: the context's deadline expired mid-scan.
	ReasonDeadline Reason = "deadline"
	// ReasonCancelled: the context was cancelled mid-scan (SIGINT, a
	// parent cancellation, or an injected fault).
	ReasonCancelled Reason = "cancelled"
)

// reasonFor maps a done context to the interruption reason.
func reasonFor(ctx context.Context) Reason {
	if ctx.Err() == context.DeadlineExceeded {
		return ReasonDeadline
	}
	return ReasonCancelled
}

// Progress is a consistent snapshot of a running scan, delivered to
// Options.Progress. Cursor counts the possible candidates already
// folded into the front, so the front is exactly the Pareto set of the
// explored prefix [0, Cursor). The closing report of a run that
// settled may jump to the stream's length: the bound prunes every
// candidate past the settle point.
type Progress struct {
	Cursor         int
	BestFlex       float64
	MaxFlexibility float64
	Front          []*Implementation
	Stats          Stats
}

// Resume is the state needed to continue an interrupted cost-ordered
// scan; build it from a Result (Cursor, Front, Stats) or through
// internal/checkpoint, which persists and revalidates it.
type Resume struct {
	// Cursor is the index of the next possible candidate to evaluate.
	Cursor int
	// Front is the Pareto front over the explored prefix.
	Front []*Implementation
	// Stats holds the effort counters accumulated before the
	// interruption; the resumed run continues them, so a resumed run's
	// final counters match an uninterrupted run's.
	Stats Stats
}

// Stats aggregates the effort counters the paper reports in Section 5.
type Stats struct {
	// DesignSpace is 2^(allocatable units + problem clusters), the
	// paper's headline search-space size (2^25 for the case study).
	DesignSpace float64 `json:"designSpace"`
	// AllocSpace is 2^(allocatable units).
	AllocSpace float64 `json:"allocSpace"`
	// Scanned counts enumeration effort: BDD search nodes visited by the
	// cost-ordered explorers (draws by KindRandom, distinct
	// allocations evaluated by KindEvolutionary). Telemetry, zeroed by
	// Semantic().
	Scanned int `json:"scanned"`
	// PossibleAllocations counts subsets passing the possibility test
	// (the paper's "set of possible resource allocations").
	PossibleAllocations int `json:"possibleAllocations"`
	// Estimated counts flexibility estimations performed (one boolean
	// equation per candidate, in the paper's terms). A run that settles
	// estimates only the candidates before its settle point, so it can
	// be less than PossibleAllocations.
	Estimated int `json:"estimated"`
	// Attempted counts candidates whose estimate beat the implemented
	// flexibility and therefore went to implementation construction.
	Attempted int `json:"attempted"`
	// ECSTested counts elementary cluster activations submitted to the
	// binding solver; BindingRuns counts solver invocations (one per
	// architecture configuration tried); BindingNodes their summed
	// search nodes.
	ECSTested    int `json:"ecsTested"`
	BindingRuns  int `json:"bindingRuns"`
	BindingNodes int `json:"bindingNodes"`
	// Feasible counts candidates that yielded an implementation with
	// positive flexibility.
	Feasible int `json:"feasible"`
	// Diags records candidate evaluations that failed (injected
	// errors, panics recovered by the parallel workers). The failed
	// candidates are skipped; everything else proceeds.
	Diags []Diag `json:"diags,omitempty"`
	// Cache reports the evaluation-cache effectiveness.
	Cache CacheStats `json:"cache,omitempty"`
	// Pipeline instruments the parallel explorer's streaming pipeline
	// (zero for sequential runs).
	Pipeline PipelineStats `json:"pipeline"`
}

// PipelineStats describes one parallel exploration run: the pipeline
// shape and the contention gauges that tell whether the worker pool was
// actually saturated. Like the cache counters these are runtime
// telemetry, not semantics — Semantic() zeroes them, and a resumed run
// starts them afresh.
type PipelineStats struct {
	// Workers is the number of persistent worker goroutines the run
	// spawned — once each at startup, never per candidate.
	Workers int `json:"workers,omitempty"`
	// QueueDepth is the capacity of the bounded job channel feeding the
	// workers; QueueHighWater is the deepest the queue actually got. A
	// high-water mark pinned at the depth means enumeration outruns the
	// workers (the pool is saturated); near zero means the producer
	// starves it.
	QueueDepth     int `json:"queueDepth,omitempty"`
	QueueHighWater int `json:"queueHighWater,omitempty"`
	// CommitStalls counts range jobs that came back before an earlier
	// range had finished and waited in their ring slot for its commit.
	CommitStalls int `json:"commitStalls,omitempty"`
	// BatchSize is the largest candidate-range size the run used (an
	// adaptive run ramps up to it); BatchesCommitted counts the range
	// jobs folded into the front by the ordered commit; and
	// BoundPublishes counts publications of the shared flexibility
	// bound to the workers — at most one per committed batch plus the
	// initial seed, which is the relaxed cadence's observable form.
	BatchSize        int `json:"batchSize,omitempty"`
	BatchesCommitted int `json:"batchesCommitted,omitempty"`
	BoundPublishes   int `json:"boundPublishes,omitempty"`
	// BusyNanos sums the wall-clock time workers spent evaluating
	// candidates; BusyNanos / (elapsed × Workers) approximates pool
	// utilization.
	BusyNanos int64 `json:"busyNanos,omitempty"`
	// Producers, ProducerBusyNanos and MergeStalls described the sharded
	// candidate producers. The explorers no longer use those producers,
	// so the fields are always zero; they remain only until the
	// benchmark harness stops reading them.
	Producers         int   `json:"producers,omitempty"`
	ProducerBusyNanos int64 `json:"producerBusyNanos,omitempty"`
	MergeStalls       int   `json:"mergeStalls,omitempty"`
}

// CacheStats counts hits and misses of the candidate-evaluation caches
// (see internal/core/evaluator.go). Hits measure avoided work: a
// flatten hit is an ECS's binding problem, and an arch hit an
// architecture configuration, not rebuilt (the names are kept for the
// JSON form; no ECS is flattened into a graph); SupportableReused counts implementations
// that reused the supportable-cluster set computed by the candidate's
// estimate (or, in the sampling explorers, its possibility test): every
// attempt. Binding decisions are not cached: each is one solve, counted
// in Stats.BindingRuns and BindingNodes. The solves that find a kept
// behaviour's binding count in no field here, nor there.
type CacheStats struct {
	FlattenHits       int `json:"flattenHits,omitempty"`
	FlattenMisses     int `json:"flattenMisses,omitempty"`
	ArchFlattenHits   int `json:"archFlattenHits,omitempty"`
	ArchFlattenMisses int `json:"archFlattenMisses,omitempty"`
	// Deprecated: BindMisses counted the solves of a binding memo the
	// engine no longer keeps. It is always 0, on a run resumed from a
	// snapshot that recorded it too, and remains only until the benchmark
	// harness stops reading it; ROADMAP item 1 step 2 deletes it.
	BindMisses        int `json:"-"`
	SupportableReused int `json:"supportableReused,omitempty"`
}

// plus returns the counter-wise sum.
func (c CacheStats) plus(d CacheStats) CacheStats {
	c.FlattenHits += d.FlattenHits
	c.FlattenMisses += d.FlattenMisses
	c.ArchFlattenHits += d.ArchFlattenHits
	c.ArchFlattenMisses += d.ArchFlattenMisses
	c.SupportableReused += d.SupportableReused
	return c
}

// BindHits returned the solver invocations a binding memo avoided.
//
// Deprecated: the engine keeps no binding memo, so BindHits is always
// 0. It remains only until the benchmark harness stops calling it;
// ROADMAP item 1 step 2 deletes it.
func (c CacheStats) BindHits() int { return 0 }

// Semantic returns the counters that are invariant across worker count
// and resume splitting, and that a run through the uncached reference
// construction matches: what was found possible, estimated, attempted
// and found feasible.
// BindingRuns/BindingNodes measure solver effort, to which a pooled
// run's stale bound adds the attempts its commit drops; the cache
// counters measure the caching itself, and Scanned counts producer
// effort, which a resumed run partly replays, so all are zeroed. Differential tests compare runs through this
// view.
func (s Stats) Semantic() Stats {
	s.Scanned = 0
	s.BindingRuns = 0
	s.BindingNodes = 0
	s.Cache = CacheStats{}
	s.Pipeline = PipelineStats{}
	return s
}

// statsSemanticFields is the exhaustive list of Stats fields Semantic()
// preserves: the counters that must match across worker counts, resume
// splits and the uncached reference. Every Stats field must appear here
// or be zeroed in Semantic() — flexvet FX003 enforces the split, and
// TestSemanticZeroesTelemetry exercises it at runtime.
var statsSemanticFields = map[string]bool{
	"DesignSpace":         true,
	"AllocSpace":          true,
	"PossibleAllocations": true,
	"Estimated":           true,
	"Attempted":           true,
	"ECSTested":           true,
	"Feasible":            true,
	"Diags":               true,
}

// Result is the outcome of an exploration. Because candidates arrive
// in nondecreasing cost, an interrupted run's Front is still exactly
// the Pareto-optimal set of the explored prefix [0, Cursor) — a valid
// anytime answer, resumable via Options.Resume.
type Result struct {
	// Front is the Pareto-optimal set, sorted by increasing cost.
	Front []*Implementation
	// MaxFlexibility is the flexibility of the specification when every
	// bindable cluster is activated (upper bound of the front).
	MaxFlexibility float64
	// Interrupted reports that the scan stopped early on a context
	// deadline or cancellation; Front is the partial (prefix-exact)
	// answer.
	Interrupted bool
	// Reason classifies the termination.
	Reason Reason
	// Cursor is the scan cursor: the index of the next possible
	// candidate the scan would have evaluated (== the number of
	// candidates whose evaluation is reflected in Front; a settled run
	// reflects the pruned tail, see ReasonCompleted). For the
	// sampling baselines it counts iterations (KindRandom) or
	// generations (KindEvolutionary) instead.
	Cursor int
	Stats  Stats
	// Objectives and ObjectiveNames are a KindMulti run's: each front
	// entry's objective vector (Front is then sorted by vector) and the
	// objectives' names. MarshalJSON does not encode them.
	Objectives     [][]float64
	ObjectiveNames []string
}

// FrontTable renders the Pareto set in the layout of the paper's
// Section 5 table.
func (r *Result) FrontTable(root hgraph.ID) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s | %-44s | %6s | %3s\n", "Resources", "Clusters", "c", "f")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 92))
	for _, im := range r.Front {
		res := strings.Trim(im.Allocation.String(), "{}")
		fmt.Fprintf(&b, "%-28s | %-44s | $%5.0f | %4g\n", res, im.ClusterString(root), im.Cost, im.Flexibility)
	}
	return b.String()
}

// flexOf evaluates the configured flexibility metric for an activation
// set.
func (o Options) flexOf(g *hgraph.Graph, active map[hgraph.ID]bool) float64 {
	if o.Weighted {
		return flex.WeightedFlexibility(g, flex.FromSet(active))
	}
	return flex.Flexibility(g, flex.FromSet(active))
}

// Implement attempts to construct an implementation for one resource
// allocation: it determines the supportable clusters, tests every
// elementary cluster activation over the allocation's architecture
// configurations with the binding solver, and evaluates the flexibility
// of the clusters that are part of at least one feasible behaviour.
// It returns nil when no behaviour is feasible. Search effort is added
// to stats (which may be nil). It runs the explorers' evaluator afresh;
// ImplementAll shares one across many allocations.
func Implement(s *spec.Spec, a spec.Allocation, opts Options, stats *Stats) *Implementation {
	if stats == nil {
		stats = &Stats{}
	}
	return implementAll(s, []spec.Allocation{a}, opts, stats)[0]
}

// ImplementAll is Implement of each allocation of as, through one
// evaluator: an ECS's binding problem or a configuration built for one
// allocation is reused for the next. The i-th
// result is nil when as[i] implements no behaviour, and otherwise is
// Implement's result, bindings included: each binding is solved on its
// own allocation's view.
func ImplementAll(s *spec.Spec, as []spec.Allocation, opts Options) []*Implementation {
	return implementAll(s, as, opts, &Stats{})
}

// implementAll implements each allocation of as through one evaluator
// and one scratch, adding the search effort to stats, and materialises
// each feasible attempt, witness bindings included.
func implementAll(s *spec.Spec, as []spec.Allocation, opts Options, stats *Stats) []*Implementation {
	ev := newEvaluator(s, opts)
	w := ev.evalScratch()
	var r candRec
	out := make([]*Implementation, len(as))
	for i, a := range as {
		if r.att = ev.implementAllocation(a, &w, stats); r.att.ok {
			r.a, r.att.cost = a.Clone(), a.Cost(s)
			out[i] = ev.materialise(&r, &w)
		}
	}
	return out
}

// Estimate computes the paper's flexibility estimation for an
// allocation: the flexibility of the specification reduced to the
// clusters supportable under the allocation, ignoring binding and
// timing feasibility. It is an upper bound on the implementable
// flexibility.
func Estimate(s *spec.Spec, a spec.Allocation, opts Options) float64 {
	return opts.flexOf(s.Problem, alloc.SupportableClusters(s, a))
}

// MaxFlexibility returns the flexibility upper bound of the whole
// specification: the estimate under the full allocation (every unit).
func MaxFlexibility(s *spec.Spec, opts Options) float64 {
	units := alloc.Units(s)
	full := make(spec.Allocation, len(units))
	for _, u := range units {
		full[u.ID] = true
	}
	return Estimate(s, full, opts)
}
