// Package profiling wires the standard -cpuprofile/-memprofile/-trace
// flags into the CLI commands. The commands cannot rely on defers for
// teardown — they exit through os.Exit on several paths — so Start
// returns an explicit stop function the command must call before any
// exit that should produce usable profiles.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Flags holds the profiling output paths of a command.
type Flags struct {
	CPUProfile string
	MemProfile string
	Trace      string
}

// Problems returns every reason the flag combination is rejected (the
// command exits with status 2 on a non-empty result, like its other
// flag validations): two profiles writing to the same file would
// silently corrupt each other.
func (f Flags) Problems() []string {
	var out []string
	seen := map[string]string{}
	check := func(name, path string) {
		if path == "" {
			return
		}
		if prev, ok := seen[path]; ok {
			out = append(out, fmt.Sprintf("-%s and -%s write to the same file %q", prev, name, path))
			return
		}
		seen[path] = name
	}
	check("cpuprofile", f.CPUProfile)
	check("memprofile", f.MemProfile)
	check("trace", f.Trace)
	return out
}

// Start begins the requested CPU profile and execution trace. The
// returned stop ends them and writes the heap profile; it is safe to
// call exactly once, and must be called on every exit path after a
// successful Start.
func (f Flags) Start() (stop func() error, err error) {
	var cpuFile, traceFile *os.File
	abort := func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if traceFile != nil {
			trace.Stop()
			traceFile.Close()
		}
	}
	if f.CPUProfile != "" {
		cpuFile, err = os.Create(f.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	if f.Trace != "" {
		traceFile, err = os.Create(f.Trace)
		if err != nil {
			abort()
			return nil, err
		}
		if err = trace.Start(traceFile); err != nil {
			traceFile.Close()
			abort()
			return nil, err
		}
	}
	return func() error {
		var firstErr error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			firstErr = cpuFile.Close()
		}
		if traceFile != nil {
			trace.Stop()
			if err := traceFile.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if f.MemProfile != "" {
			mf, err := os.Create(f.MemProfile)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
			} else {
				runtime.GC() // materialize up-to-date allocation stats
				if err := pprof.WriteHeapProfile(mf); err != nil && firstErr == nil {
					firstErr = err
				}
				if err := mf.Close(); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
		return firstErr
	}, nil
}
