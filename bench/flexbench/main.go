// Command flexbench is the repository's benchmark: EXPLORE through the
// library's public entry points and through the HTTP service, on four
// workloads, checked against reference fronts.
//
//	flexbench -workload casestudy|wide|exhaustive|service|all [-seed n] [-seconds s] [-trace 0|1]
//
// A run sets up setupRepeats times (spec generation, lint preflight,
// service start until /readyz answers, one warm-up op) and reports the
// median set-up time, then measures one window of -seconds. With
// -trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics; with -trace 1 it holds the per-layer metrics
// of a traced run, and the spans are written as Chrome trace-event
// JSON. The object's "correct" is false when any op's result differed
// from its reference; the exit status is 0 whenever it is printed. The
// metric names, units and regression bounds are declared in
// BENCHMARK.json at the repository root; bench/README.md explains them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
// One set-up takes about one op, so a single one is as noisy as one op:
// on a 2-vCPU host single Set-Top box set-ups ranged from 10.5 to 20 ms
// within one run.
const setupRepeats = 31

type config struct {
	workload  string
	seed      int64
	window    time.Duration
	trace     bool
	traceFile string
	workdir   string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what one set-up produced.
type env struct {
	tasks  []*task
	refs   []*reference
	bodies [][2][]byte // service request bodies per task: plain, periodic checkpoint
	svc    *service
}

func (e *env) close() error {
	if e == nil || e.svc == nil {
		return nil
	}
	return e.svc.close()
}

// setup builds the workload's specifications, lints them and warms up
// with one op; for the service workload it also starts the daemon.
func setup(w workload, refs map[string]*reference, dir string, tal *tally) (*env, error) {
	e := &env{tasks: w.tasks()}
	for _, t := range e.tasks {
		ref := refs[t.key]
		if ref == nil {
			return nil, fmt.Errorf("no reference for %s", t.key)
		}
		e.refs = append(e.refs, ref)
		if err := lintPreflight(t); err != nil {
			return nil, err
		}
	}
	if !w.service {
		exploreChecked(e.tasks[0], e.refs[0], tal)
		return e, nil
	}
	for _, t := range e.tasks {
		if err := t.encode(); err != nil {
			return nil, err
		}
		plain, err := requestBody(t, false)
		if err != nil {
			return nil, err
		}
		periodic, err := requestBody(t, true)
		if err != nil {
			return nil, err
		}
		e.bodies = append(e.bodies, [2][]byte{plain, periodic})
	}
	svc, err := startService(dir)
	if err != nil {
		return nil, err
	}
	e.svc = svc
	j := &job{ref: e.refs[0], due: time.Now()}
	svc.runJob(j, e.bodies[0][0])
	tal.record(j.err)
	return e, nil
}

// report is a finished run: the result line and what the human-readable
// lines above it show.
type report struct {
	result
	// timing holds an untraced window's latency, throughput and CPU
	// time, printed for reading but not part of the result: on a shared
	// host they do not repeat within a regression bound, so they are
	// per-layer metrics of the traced run (see README.md).
	timing               map[string]metric
	samples              int
	calibStart, calibEnd time.Duration
	lagP90, lagMax       time.Duration
	notes                []string
	firstErr             error
}

// run performs one run of cfg's workload.
func run(cfg config) (*report, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	refs, err := loadReferences()
	if err != nil {
		return nil, err
	}

	rep := &report{calibStart: calibrate()}
	tal := &tally{}
	var e *env
	var setups []time.Duration
	for i := 0; i < setupRepeats; i++ {
		if err := e.close(); err != nil {
			return nil, err
		}
		start := time.Now()
		e, err = setup(w, refs, filepath.Join(dir, fmt.Sprintf("setup%d", i)), tal)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start))
	}

	if cfg.trace {
		var tr *tracer
		rep.Metrics, tr, err = traceRun(w, e, cfg, dir, tal, rep)
		if err == nil {
			err = tr.writeChrome(cfg.traceFile)
		}
	} else {
		err = timedRun(w, e, cfg, tal, rep)
	}
	if cerr := e.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	rep.calibEnd = calibrate()
	if cfg.trace {
		rep.Metrics["host.calib_ms"] = metric{ms(rep.calibStart+rep.calibEnd) / 2, "ms"}
	} else {
		slices.Sort(setups)
		rep.Metrics["setup_s"] = metric{setups[len(setups)/2].Seconds(), "s"}
		rep.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	}
	rep.Attempted, rep.Failed, rep.firstErr = tal.attempted, tal.failed, tal.firstErr
	rep.Correct = tal.failed == 0
	return rep, nil
}

// timedRun measures the untraced window: the end-to-end metrics other
// than set-up time and peak RSS go to rep.Metrics, its timings to
// rep.timing.
func timedRun(w workload, e *env, cfg config, tal *tally, rep *report) error {
	win, _ := measureWindow(w, e, cfg.seed, cfg.window, tal)
	n := len(win.latencies)
	rep.samples = n
	if n == 0 {
		return errors.New("no op completed in the window")
	}
	rep.lagP90, rep.lagMax = percentile(win.lags, 90), percentile(win.lags, 100)
	rep.timing = win.timing()
	rep.Metrics = map[string]metric{
		"alloc_mb_per_op": {float64(win.alloc) / 1e6 / float64(n), "MB"},
	}
	return nil
}

func (r *report) print(out io.Writer, cfg config) error {
	fmt.Fprintf(out, "flexbench workload=%s seed=%d seconds=%g trace=%v go=%s num_cpu=%d GOMAXPROCS=%d\n",
		cfg.workload, cfg.seed, cfg.window.Seconds(), cfg.trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	printMetrics := func(set map[string]metric) {
		names := make([]string, 0, len(set))
		for name := range set {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			fmt.Fprintf(out, "  %-32s %14.4f %s\n", name, set[name].Value, set[name].Unit)
		}
	}
	printMetrics(r.Metrics)
	if r.timing != nil {
		fmt.Fprintln(out, "  window timings (per-layer metrics of a traced run; not in the result):")
		printMetrics(r.timing)
	}
	fmt.Fprintf(out, "  attempted %d failed %d error_ratio %g latency_samples %d host.calib_ms %.3f -> %.3f\n",
		r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)), r.samples, ms(r.calibStart), ms(r.calibEnd))
	if cfg.workload == "service" && !cfg.trace {
		fmt.Fprintf(out, "  gen.lag_p90_ms %.3f gen.lag_max_ms %.3f\n", ms(r.lagP90), ms(r.lagMax))
	}
	for _, note := range r.notes {
		fmt.Fprintf(out, "  %s\n", note)
	}
	if cfg.trace {
		fmt.Fprintf(out, "  trace file %s\n", cfg.traceFile)
	}
	if r.firstErr != nil {
		fmt.Fprintf(out, "  first failure: %v\n", r.firstErr)
	}
	line, err := json.Marshal(r.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// runAll runs every workload in its own process, with the flags given.
func runAll() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var args []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "workload" {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	var failed []string
	for _, w := range workloads {
		cmd := exec.Command(exe, append(args, "-workload="+w.name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", w.name, err))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %v", failed)
	}
	return nil
}

func main() {
	var cfg config
	var seconds float64
	var traceFlag int
	var golden string
	flag.StringVar(&cfg.workload, "workload", "casestudy", "casestudy | wide | exhaustive | service | all")
	flag.Int64Var(&cfg.seed, "seed", 1, "draws the service workload's arrival times and job order")
	flag.Float64Var(&seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting the per-layer metrics; 0: the end-to-end metrics")
	flag.StringVar(&cfg.traceFile, "trace-file", "", "Chrome trace-event file of a traced run (default <workdir>/flexbench-<workload>.trace.json)")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for checkpoints and trace files")
	flag.StringVar(&golden, "golden", "", "regenerate the golden fronts into this directory and exit")
	flag.Parse()
	if flag.NArg() > 0 || seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if golden != "" {
		if err := writeGoldens(golden); err != nil {
			fmt.Fprintln(os.Stderr, "flexbench:", err)
			os.Exit(1)
		}
		return
	}
	if cfg.workload == "all" {
		if err := runAll(); err != nil {
			fmt.Fprintln(os.Stderr, "flexbench:", err)
			os.Exit(1)
		}
		return
	}
	cfg.window = time.Duration(seconds * float64(time.Second))
	cfg.trace = traceFlag == 1
	if cfg.traceFile == "" {
		cfg.traceFile = filepath.Join(cfg.workdir, "flexbench-"+cfg.workload+".trace.json")
	}
	rep, err := run(cfg)
	if err == nil {
		err = rep.print(os.Stdout, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexbench:", err)
		os.Exit(1)
	}
}
