package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/alloc"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/lint"
	"repro/internal/server"
	"repro/internal/spec"
)

// replayed sums what a replay loop saw.
type replayed struct {
	ops        int
	replayTime time.Duration // in replay() only
	semantic   core.Stats    // summed semantic counters
	taskOps    []int         // ops per task
	cursor     []int         // each task's final cursor
	ckBytes    int64
}

// replayLoop replays the op sequence order (task indices, cycled) for d,
// each op once traced by tr and once untraced, so that a change in host
// speed during the loop falls on both alike. A traced op also reads and
// lints the task's JSON spec and checkpoints its result to dir and back,
// each in its own span.
func replayLoop(e *env, order []int, d time.Duration, tr *tracer, dir string, tal *tally) (traced, base replayed, err error) {
	traced = replayed{taskOps: make([]int, len(e.tasks)), cursor: make([]int, len(e.tasks))}
	base = replayed{taskOps: make([]int, len(e.tasks)), cursor: make([]int, len(e.tasks))}
	for start := time.Now(); base.ops == 0 || time.Since(start) < d; {
		ti := order[base.ops%len(order)]
		t := e.tasks[ti]
		for _, opTr := range []*tracer{tr, nil} {
			rp := &base
			if opTr != nil {
				rp = &traced
			}
			opTr.nextOp()
			opStart := time.Now()
			r := replay(t.spec, t.options(), autoProducer(t.spec), opTr)
			rp.replayTime += time.Since(opStart)
			if err := e.refs[ti].check(summarize(r)); err != nil {
				tal.record(fmt.Errorf("replay %s: %w", t.key, err))
			} else {
				tal.record(nil)
			}
			rp.ops++
			rp.taskOps[ti]++
			rp.cursor[ti] = r.Cursor
			s := r.Stats
			rp.semantic.PossibleAllocations += s.PossibleAllocations
			rp.semantic.Attempted += s.Attempted
			rp.semantic.ECSTested += s.ECSTested
			rp.semantic.Feasible += s.Feasible
			if opTr == nil {
				continue
			}
			n, err := admitAndCheckpoint(t, r, filepath.Join(dir, t.key+".ck.json"), opTr)
			if err != nil {
				return traced, base, err
			}
			rp.ckBytes += n
		}
	}
	return traced, base, nil
}

// admitAndCheckpoint runs the layers around an exploration: the
// admission's spec decoding and lint, and a checkpoint of the result
// written and resumed. It returns the checkpoint's size.
func admitAndCheckpoint(t *task, r *core.Result, path string, tr *tracer) (int64, error) {
	tr.begin(lSpecRead)
	_, err := spec.Read(bytes.NewReader(t.specJSON))
	tr.end()
	if err != nil {
		return 0, fmt.Errorf("spec.Read %s: %w", t.key, err)
	}
	tr.begin(lLint)
	lint.NewEngine().Run(t.spec)
	tr.end()

	tr.begin(lCheckpointSave)
	snap, err := checkpoint.FromResult(t.spec, t.options(), r)
	if err == nil {
		err = (&checkpoint.Writer{Path: path}).Save(snap)
	}
	tr.end()
	if err != nil {
		return 0, fmt.Errorf("checkpoint save %s: %w", t.key, err)
	}
	tr.begin(lCheckpointLoad)
	snap, err = checkpoint.Load(path)
	if err == nil {
		_, err = snap.Resume(t.spec, t.options())
	}
	tr.end()
	if err != nil {
		return 0, fmt.Errorf("checkpoint load %s: %w", t.key, err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// traceRun is the traced run. It divides the window among phases, in
// percent: the workload's own loop untraced, for its timings, the
// library's counters and, on the service, the client timings (30; 45
// on the service); a library workload's exploration submitted as
// service jobs, for the same client timings (10); the replay, each op
// traced and untraced, for the per-layer times and the tracing
// overhead (45; 40 on the service); and each candidate producer
// streamed to every task's cursor (15). It returns every per-layer
// metric.
func traceRun(w workload, e *env, cfg config, dir string, tal *tally, rep *report) (map[string]metric, *tracer, error) {
	d := cfg.window
	share := func(pct int) time.Duration { return d * time.Duration(pct) / 100 }
	for _, t := range e.tasks {
		if t.specJSON == nil {
			if err := t.encode(); err != nil {
				return nil, nil, err
			}
		}
	}
	loopShare, replayShare := 30, 45
	if w.service {
		loopShare, replayShare = 45, 40
	}
	win, jobs := measureWindow(w, e, cfg.seed, share(loopShare), tal)
	rep.samples = len(win.latencies)
	if rep.samples == 0 {
		return nil, nil, fmt.Errorf("no op completed in the traced run's %s loop", share(loopShare))
	}
	order := []int{0} // the replayed op sequence, as task indices
	var counters server.Counters
	var err error
	if w.service {
		counters, err = e.svc.serverCounters()
		order = order[:0]
		for _, j := range jobs {
			order = append(order, j.task)
		}
	} else {
		jobs, counters, err = serviceClosedLoop(e, share(10), filepath.Join(dir, "service"), tal)
	}
	if err != nil {
		return nil, nil, err
	}

	tr := newTracer()
	traced, base, err := replayLoop(e, order, share(replayShare), tr, dir, tal)
	if err != nil {
		return nil, nil, err
	}

	m := win.timing()
	perOp := func(name string, v float64, unit string) {
		m[name] = metric{Value: v / float64(traced.ops), Unit: unit}
	}
	producerMs := map[string]float64{}
	measured := 0
	for ti := range e.tasks {
		if traced.taskOps[ti] > 0 {
			measured++
		}
	}
	budget := share(15) / time.Duration(measured*len(publicProducers))
	for ti, t := range e.tasks {
		if traced.taskOps[ti] == 0 {
			continue
		}
		ao := alloc.Options{IncludeUselessComm: t.exhaustive}
		for _, p := range publicProducers {
			pd, delivered, timedOut := producerTime(p.run, t.spec, ao, traced.cursor[ti], budget)
			if timedOut {
				rep.notes = append(rep.notes, fmt.Sprintf("%s on %s: stopped after %.1f ms at candidate %d of %d; the value is a lower bound",
					p.metric, t.key, ms(pd), delivered, traced.cursor[ti]))
			}
			producerMs[p.metric] += ms(pd) * float64(traced.taskOps[ti])
		}
	}
	for name, v := range producerMs {
		perOp(name, v, "ms")
	}
	selfMs := map[string]layer{
		"alloc.self_ms":          lEnumerate,
		"alloc.supportable_ms":   lSupportable,
		"core.implement_self_ms": lImplement,
		"spec.archview_ms":       lArchView,
		"cover.self_ms":          lCover,
		"hgraph.flatten_ms":      lFlatten,
		"bind.find_ms":           lBind,
		"flex.flexibility_ms":    lFlexibility,
		"pareto.add_ms":          lPareto,
		"spec.read_ms":           lSpecRead,
		"lint.run_ms":            lLint,
		"checkpoint.save_ms":     lCheckpointSave,
		"checkpoint.load_ms":     lCheckpointLoad,
	}
	for name, l := range selfMs {
		perOp(name, float64(tr.self[l])/1e6, "ms")
	}
	perOp("core.estimate_ms", float64(tr.total[lEstimate])/1e6, "ms")
	perOp("checkpoint.bytes", float64(traced.ckBytes), "B")

	// Every possible allocation is estimated, so the possible count is
	// also the estimate count.
	sem := traced.semantic
	perOp("alloc.possible", float64(sem.PossibleAllocations), "count")
	perOp("cover.ecs_tested", float64(sem.ECSTested), "count")
	m["core.bound_prune_ratio"] = metric{1 - ratio(sem.Attempted, sem.PossibleAllocations), "ratio"}
	m["core.attempt_yield"] = metric{ratio(sem.Feasible, sem.Attempted), "ratio"}

	eff := win.effort
	n := float64(max(eff.ops, 1))
	m["alloc.scanned"] = metric{float64(eff.scanned) / n, "count"}
	m["bind.runs"] = metric{float64(eff.bindRuns) / n, "count"}
	m["bind.nodes"] = metric{float64(eff.bindNodes) / n, "count"}
	m["core.cache.bind_hit_ratio"] = metric{ratio(eff.bindHits, eff.bindLookups), "ratio"}
	m["core.cache.flatten_hit_ratio"] = metric{ratio(eff.flattenHits, eff.flattenLookups), "ratio"}
	m["core.pipeline.busy_ratio"] = metric{ratio(eff.busyNanos, eff.workerNanos), "ratio"}
	m["core.pipeline.commit_stalls"] = metric{float64(eff.commitStalls) / n, "count"}
	m["core.pipeline.queue_high_water"] = metric{float64(eff.queueHighWater) / n, "count"}
	m["alloc.producer_busy_ratio"] = metric{ratio(eff.producerBusyNanos, eff.producerNanos), "ratio"}
	m["alloc.merge_stalls"] = metric{float64(eff.mergeStalls) / n, "count"}

	var admit, wait, run, result []time.Duration
	polls := 0
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		admit = append(admit, j.posted.Sub(j.sent))
		result = append(result, j.result)
		polls += j.polls
		if !j.running.IsZero() {
			wait = append(wait, j.running.Sub(j.posted))
			run = append(run, j.done.Sub(j.running))
		}
	}
	m["server.admit_p50_ms"] = metric{ms(percentile(admit, 50)), "ms"}
	m["server.queue_wait_p50_ms"] = metric{ms(percentile(wait, 50)), "ms"}
	m["server.run_p50_ms"] = metric{ms(percentile(run, 50)), "ms"}
	m["server.result_p50_ms"] = metric{ms(percentile(result, 50)), "ms"}
	m["server.polls_per_job"] = metric{float64(polls) / float64(max(len(admit), 1)), "count"}
	m["server.rejected"] = metric{float64(counters.RejectedLint + counters.RejectedInvalid + counters.RejectedFull + counters.RejectedDraining), "count"}
	m["server.shed"] = metric{float64(counters.Shed), "count"}
	m["checkpoint.retries"] = metric{float64(counters.CheckpointRetries), "count"}

	m["trace.coverage"] = metric{tr.coverage(), "ratio"}
	m["trace.overhead_ratio"] = metric{
		(float64(traced.replayTime) / float64(traced.ops)) / (float64(base.replayTime) / float64(base.ops)), "ratio"}
	return m, tr, nil
}

// serviceClosedLoop submits a library workload's task as service jobs,
// one after another, for d. It gives the service layer's client timings
// for that workload's exploration: a traced run reports every per-layer
// metric, and a timing is measured, never a placeholder.
func serviceClosedLoop(e *env, d time.Duration, dir string, tal *tally) ([]*job, server.Counters, error) {
	t := e.tasks[0]
	body, err := requestBody(t, false)
	if err != nil {
		return nil, server.Counters{}, err
	}
	svc, err := startService(dir)
	if err != nil {
		return nil, server.Counters{}, err
	}
	var jobs []*job
	for start := time.Now(); len(jobs) == 0 || time.Since(start) < d; {
		j := &job{ref: e.refs[0], due: time.Now()}
		svc.runJob(j, body)
		tal.record(j.err)
		jobs = append(jobs, j)
	}
	counters, err := svc.serverCounters()
	if cerr := svc.close(); err == nil {
		err = cerr
	}
	return jobs, counters, err
}

func ratio[T int | int64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
