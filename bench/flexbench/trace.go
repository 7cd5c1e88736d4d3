package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// layer names one span kind: a call into one layer of the EXPLORE
// stack, or the op that contains them.
type layer uint8

const (
	lOp layer = iota
	lEnumerate
	lEstimate
	lSupportable
	lFlexibility
	lImplement
	lArchView
	lCover
	lFlatten
	lBind
	lPareto
	lSpecRead
	lLint
	lCheckpointSave
	lCheckpointLoad
	numLayers
)

var layerNames = [numLayers]string{
	lOp:             "op",
	lEnumerate:      "alloc.enumerate",
	lEstimate:       "core.estimate",
	lSupportable:    "alloc.supportable",
	lFlexibility:    "flex.flexibility",
	lImplement:      "core.implement",
	lArchView:       "spec.archview",
	lCover:          "cover.enumerate",
	lFlatten:        "hgraph.flatten",
	lBind:           "bind.find",
	lPareto:         "pareto.add",
	lSpecRead:       "spec.read",
	lLint:           "lint.run",
	lCheckpointSave: "checkpoint.save",
	lCheckpointLoad: "checkpoint.load",
}

// maxKeptSpans bounds the spans kept for the trace file (about 40 bytes
// each); self times are aggregated over every span regardless.
const maxKeptSpans = 100_000

type span struct {
	name       layer
	start, end int64 // ns since the tracer's epoch
	parent     int32 // index in spans, -1 for a root or when not kept
	op         int32
}

type openSpan struct {
	name  layer
	start int64
	child int64 // ns covered by direct children
	kept  int32 // index in spans, -1 when not kept
}

// tracer records nested spans in memory. A nil *tracer records nothing,
// so the same replay code runs traced and untraced.
type tracer struct {
	epoch   time.Time
	op      int32
	stack   []openSpan
	self    [numLayers]int64 // summed self time, ns
	total   [numLayers]int64 // summed duration, ns
	spans   []span
	dropped int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now()}
}

func (t *tracer) begin(name layer) {
	if t == nil {
		return
	}
	kept := int32(-1)
	if len(t.spans) < maxKeptSpans {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].kept
		}
		kept = int32(len(t.spans))
		t.spans = append(t.spans, span{name: name, parent: parent, op: t.op})
	} else {
		t.dropped++
	}
	// The clock is read last so the bookkeeping above is charged to the
	// parent, not to the span.
	now := int64(time.Since(t.epoch))
	if kept >= 0 {
		t.spans[kept].start = now
	}
	t.stack = append(t.stack, openSpan{name: name, start: now, kept: kept})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	dur := now - s.start
	t.self[s.name] += dur - s.child
	t.total[s.name] += dur
	if n > 0 {
		t.stack[n-1].child += dur
	}
	if s.kept >= 0 {
		t.spans[s.kept].end = now
	}
}

// nextOp starts a new op: spans begun from now on carry its number.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// coverage is the share of the ops' wall time that their child spans
// account for.
func (t *tracer) coverage() float64 {
	if t.total[lOp] == 0 {
		return 0
	}
	return 1 - float64(t.self[lOp])/float64(t.total[lOp])
}

// writeChrome writes the kept spans as Chrome trace-event JSON, which
// chrome://tracing and Perfetto open offline.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	if _, err := w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if i > 0 {
			if err := w.WriteByte(','); err != nil {
				return err
			}
		}
		err := enc.Encode(event{
			Name: layerNames[s.name], Cat: "flexbench", Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: 1,
			Args: map[string]any{"op": s.op, "parent": s.parent},
		})
		if err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, `],"otherData":{"droppedSpans":%d}}`+"\n", t.dropped); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
