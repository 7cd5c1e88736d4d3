package main

// Every call that names a specific candidate producer lives in this
// file, so retiring a producer from the library is one edit here.

import (
	"time"

	"repro/internal/alloc"
	"repro/internal/spec"
)

// producer streams the cost-ordered possible allocations of s into fn
// until fn returns false.
type producer func(s *spec.Spec, opts alloc.Options, fn func(alloc.Candidate) bool) alloc.Stats

func bitsetProducer(s *spec.Spec, opts alloc.Options, fn func(alloc.Candidate) bool) alloc.Stats {
	return alloc.EnumerateRange(s, opts, 0, fn)
}

func symbolicProducer(s *spec.Spec, opts alloc.Options, fn func(alloc.Candidate) bool) alloc.Stats {
	return alloc.EnumerateSymbolicRange(s, opts, 0, fn)
}

// autoProducer is the producer core's automatic selection runs on s: the
// bitset scan up to 20 allocatable units, the symbolic search above.
func autoProducer(s *spec.Spec) producer {
	if len(alloc.Units(s)) > 20 {
		return symbolicProducer
	}
	return bitsetProducer
}

// publicProducers are the library's range producers, each measured in
// the traced run by streaming it to the op's cursor.
var publicProducers = []struct {
	metric string
	run    producer
}{
	{"alloc.bitset_ms", bitsetProducer},
	{"alloc.symbolic_ms", symbolicProducer},
	{"alloc.sharded2_ms", func(s *spec.Spec, opts alloc.Options, fn func(alloc.Candidate) bool) alloc.Stats {
		return alloc.EnumerateShardedRange(s, opts, 2, 0, fn)
	}},
	{"alloc.symbolic_sharded2_ms", func(s *spec.Spec, opts alloc.Options, fn func(alloc.Candidate) bool) alloc.Stats {
		return alloc.EnumerateSymbolicShardedRange(s, opts, 2, 0, fn)
	}},
}

// producerTime returns how long p takes to deliver the first cursor
// candidates of s: the median of as many streams as fit in budget.
//
// A stream stops only at a candidate, and a producer may scan for
// seconds before its first one, so every attempt also carries an effort
// cap (alloc.Options.MaxScan, in the producer's own unit, split across
// shards by the sharded producers). The cap starts small and doubles
// while attempts hit it within budget; an attempt counts as a sample
// only if no shard can have reached its share of the cap. A producer
// still short of the cursor when budget runs out is reported by its
// last attempt's time, a lower bound, with the candidates that attempt
// delivered; timedOut reports that. That attempt overruns budget by at
// most about its own length.
func producerTime(p producer, s *spec.Spec, opts alloc.Options, cursor int, budget time.Duration) (d time.Duration, delivered int, timedOut bool) {
	deadline := time.Now().Add(budget)
	var samples []time.Duration
	for opts.MaxScan = 1 << 10; len(samples) == 0 || time.Now().Before(deadline); {
		t0 := time.Now()
		n := 0
		st := p(s, opts, func(alloc.Candidate) bool {
			n++
			return n < cursor && (len(samples) > 0 || time.Now().Before(deadline))
		})
		el := time.Since(t0)
		capped := st.Scanned >= (opts.MaxScan-1)/max(st.Producers, 1)
		switch {
		case n >= cursor && !capped:
			samples = append(samples, el)
		case time.Now().Before(deadline):
			opts.MaxScan *= 2
		default:
			return el, n, true
		}
	}
	return percentile(samples, 50), cursor, false
}
