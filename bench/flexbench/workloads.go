package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/lint"
	"repro/internal/models"
	"repro/internal/spec"
)

// task is one exploration the benchmark runs and checks. The workloads
// set only the options a service request can set, and never the
// runtime knobs (Enumerator, Producers, Batch, DisableCache), so a
// change that retires a knob is judged on its default path.
type task struct {
	key  string // names the reference
	spec *spec.Spec
	// exhaustive is the service's "exhaustive": no flexibility bound,
	// and allocations with useless buses are kept.
	exhaustive    bool
	stopAtMaxFlex bool
	workers       int    // 1: core.Explore; more: core.ExploreParallel
	specJSON      []byte // the spec as a service request carries it
}

func (t *task) options() core.Options {
	return core.Options{
		DisableFlexBound:   t.exhaustive,
		IncludeUselessComm: t.exhaustive,
		StopAtMaxFlex:      t.stopAtMaxFlex,
	}
}

// explore runs the task through the library's public entry point.
func (t *task) explore() *core.Result {
	if t.workers > 1 {
		return core.ExploreParallel(t.spec, t.options(), t.workers, 0)
	}
	return core.Explore(t.spec, t.options())
}

// encode renders the specification as the inline JSON a service
// request carries.
func (t *task) encode() error {
	var buf bytes.Buffer
	if err := t.spec.Write(&buf); err != nil {
		return fmt.Errorf("encode %s: %w", t.key, err)
	}
	t.specJSON = buf.Bytes()
	return nil
}

// The specifications are fixed: a generator seed changes a spec's
// exploration cost by up to 300x (wide: 3.6 ms to 1.25 s across
// generator seeds 1..60), far beyond any regression bound, so -seed
// draws the op sequence of the service workload instead.
func settopTask() *task { return &task{key: "settop", spec: models.SetTopBox(), workers: 1} }
func sdrTask() *task    { return &task{key: "sdr", spec: models.SDR(), workers: 1} }

func syntheticTask(seed int64) *task {
	return &task{key: fmt.Sprintf("synthetic%d", seed), spec: models.Synthetic(models.DefaultSynthetic(seed)), workers: 1}
}

func wideTask() *task {
	return &task{key: "wide", spec: models.Synthetic(models.ScaledSynthetic(1, 22)), stopAtMaxFlex: true, workers: 1}
}

func exhaustiveTask() *task {
	p := models.DefaultSynthetic(1)
	p.Buses = 4
	return &task{key: "exhaustive", spec: models.Synthetic(p), exhaustive: true, workers: 2}
}

// goldenTasks are the tasks whose references are committed golden
// fronts (the Set-Top box is checked against the paper instead).
func goldenTasks() []*task {
	return []*task{wideTask(), exhaustiveTask(), sdrTask(), syntheticTask(2), syntheticTask(3)}
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name    string
	tasks   func() []*task
	service bool // open-loop jobs through the HTTP service
}

var workloads = []workload{
	{name: "casestudy", tasks: func() []*task { return []*task{settopTask()} }},
	{name: "wide", tasks: func() []*task { return []*task{wideTask()} }},
	{name: "exhaustive", tasks: func() []*task { return []*task{exhaustiveTask()} }},
	{name: "service", service: true, tasks: func() []*task {
		return []*task{settopTask(), sdrTask(), syntheticTask(2), syntheticTask(3)}
	}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// tally counts the ops a run attempted and the ones that failed: a
// wrong front or termination reason, a non-2xx response, or a failed
// or cancelled job.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) record(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
	return err == nil
}

// lintPreflight rejects a specification with lint errors, as the CLIs
// and the service do before exploring.
func lintPreflight(t *task) error {
	if rep := lint.NewEngine().Run(t.spec); rep.HasErrors() {
		return fmt.Errorf("%s: lint preflight failed", t.key)
	}
	return nil
}

// exploreChecked runs one library op and checks it against ref.
func exploreChecked(t *task, ref *reference, tal *tally) (*core.Result, time.Duration) {
	start := time.Now()
	r := t.explore()
	lat := time.Since(start)
	err := ref.check(summarize(r))
	if err != nil {
		err = fmt.Errorf("%s: %w", t.key, err)
	}
	tal.record(err)
	return r, lat
}

// window is what one timed window measured.
type window struct {
	usage
	latencies []time.Duration // of the correct ops
	lags      []time.Duration // open loop: how late each job was sent
	effort    effort
}

// timing is the window's latency percentiles, throughput and process
// CPU time per completed op.
func (w window) timing() map[string]metric {
	n := float64(len(w.latencies))
	return map[string]metric{
		"latency_p50_ms":   {ms(percentile(w.latencies, 50)), "ms"},
		"latency_p90_ms":   {ms(percentile(w.latencies, 90)), "ms"},
		"throughput_per_s": {n / w.wall.Seconds(), "1/s"},
		"cpu_ms_per_op":    {ms(w.cpu) / n, "ms"},
	}
}

// measureWindow runs the workload's own loop for d: a closed loop for a
// library workload, the open loop of jobs drawn from seed for the
// service, whose jobs it also returns. A service job's latency runs
// from when it was due until a poll first saw it completed.
func measureWindow(w workload, e *env, seed int64, d time.Duration, tal *tally) (window, []*job) {
	if !w.service {
		return closedLoop(e.tasks[0], e.refs[0], d, tal), nil
	}
	seq := arrivals(seed, d, len(e.tasks))
	m := startMeter()
	jobs := e.svc.openLoop(seq, e.bodies, e.refs)
	win := window{usage: m.stop()}
	for _, j := range jobs {
		win.lags = append(win.lags, j.sent.Sub(j.due))
		if tal.record(j.err) {
			win.latencies = append(win.latencies, j.done.Sub(j.due))
			win.effort.add(j.stats, j.done.Sub(j.posted))
		}
	}
	return win, jobs
}

// closedLoop runs t back to back on one client goroutine for d.
func closedLoop(t *task, ref *reference, d time.Duration, tal *tally) window {
	var w window
	m := startMeter()
	for time.Since(m.wall) < d {
		r, lat := exploreChecked(t, ref, tal)
		w.latencies = append(w.latencies, lat)
		w.effort.add(r.Stats, lat)
	}
	w.usage = m.stop()
	return w
}

// effort sums the library's own effort counters over ops; the traced
// run reports them per op.
type effort struct {
	ops                                       int
	scanned, bindRuns, bindNodes              int
	bindHits, bindLookups                     int
	flattenHits, flattenLookups               int
	busyNanos, workerNanos                    int64
	producerBusyNanos, producerNanos          int64
	commitStalls, queueHighWater, mergeStalls int
}

func (e *effort) add(s core.Stats, elapsed time.Duration) {
	e.ops++
	e.scanned += s.Scanned
	e.bindRuns += s.BindingRuns
	e.bindNodes += s.BindingNodes
	c := s.Cache
	e.bindHits += c.BindHits()
	e.bindLookups += c.BindHits() + c.BindMisses
	e.flattenHits += c.FlattenHits + c.ArchFlattenHits
	e.flattenLookups += c.FlattenHits + c.FlattenMisses + c.ArchFlattenHits + c.ArchFlattenMisses
	p := s.Pipeline
	e.busyNanos += p.BusyNanos
	e.workerNanos += int64(p.Workers) * int64(elapsed)
	e.producerBusyNanos += p.ProducerBusyNanos
	e.producerNanos += int64(p.Producers) * int64(elapsed)
	e.commitStalls += p.CommitStalls
	e.queueHighWater += p.QueueHighWater
	e.mergeStalls += p.MergeStalls
}
