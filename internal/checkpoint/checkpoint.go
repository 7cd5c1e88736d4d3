// Package checkpoint makes long cost-ordered exploration scans
// crash-safe: a Writer periodically persists an atomic JSON snapshot of
// the scan cursor, the Pareto front, and the effort counters, and a
// Snapshot can be revalidated and turned back into a core.Resume after
// a crash, a deadline, or a SIGINT.
//
// Snapshots are written with the classic write-to-temp-then-rename
// protocol, so a reader never observes a torn file: a crash at any
// point leaves either the previous snapshot or the new one. Resume is
// refused unless the snapshot's specification digest and exploration
// options digest both match the current run — continuing a scan cursor
// against a different specification would silently mislabel the
// candidate sequence. The file format is versioned and documented in
// docs/checkpoint-format.md.
package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/hgraph"
	"repro/internal/spec"
)

// Version is the snapshot schema version; Load refuses other versions.
const Version = 1

// Failpoint sites of the checkpoint I/O path (auto-indexed per save,
// see faultinject.Plan.Count).
const (
	// SiteWrite fires before the temp file is written.
	SiteWrite = "checkpoint/write"
	// SiteRename fires after the temp file is written, before the
	// atomic rename — a panic here simulates a crash between the two.
	SiteRename = "checkpoint/rename"
)

// FrontEntry is one Pareto-front member in wire form. Only the
// allocation is authoritative: Resume reconstructs the implementation
// deterministically and refuses the snapshot if cost or flexibility
// disagree with the recorded values.
type FrontEntry struct {
	Allocation  []string `json:"allocation"`
	Cost        float64  `json:"cost"`
	Flexibility float64  `json:"flexibility"`
}

// Snapshot is the versioned, self-validating state of a cost-ordered
// scan.
type Snapshot struct {
	Version        int          `json:"version"`
	SpecName       string       `json:"specName"`
	SpecDigest     string       `json:"specDigest"`
	OptsDigest     string       `json:"optsDigest"`
	Cursor         int          `json:"cursor"`
	BestFlex       float64      `json:"bestFlex"`
	MaxFlexibility float64      `json:"maxFlexibility"`
	Front          []FrontEntry `json:"front"`
	Stats          core.Stats   `json:"stats"`
}

// SpecDigest returns "sha256:<hex>" over the specification's canonical
// JSON encoding. Two specifications digest equal iff they enumerate the
// same cost-ordered candidate sequence and implement candidates
// identically, which is what makes a scan cursor transferable.
func SpecDigest(s *spec.Spec) (string, error) {
	data, err := s.MarshalJSON()
	if err != nil {
		return "", fmt.Errorf("checkpoint: digest spec %q: %w", s.Name, err)
	}
	sum := sha256.Sum256(data)
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}

// digestExcluded is the documented list of core.Options fields
// OptionsDigest deliberately leaves out of the digest: runtime hooks
// and performance knobs that never change what a completed scan
// returns. Every Options field must either be formatted into the
// digest or appear here — flexvet FX004 enforces the split.
var digestExcluded = map[string]bool{
	// DisableCache only trades CPU for memory; differential tests
	// assert cache on/off runs are semantically identical.
	"DisableCache": true,
	// Fault is the fault-injection hook used by robustness tests.
	"Fault": true,
	// Progress and ProgressEvery only control reporting cadence.
	"Progress":      true,
	"ProgressEvery": true,
	// Resume is the mechanism consuming the digest, not an input to it.
	"Resume": true,
}

// OptionsDigest digests the exploration options that affect the
// candidate sequence or the per-candidate evaluation. Runtime hooks
// (Fault, Progress, Resume) are deliberately excluded: they never
// change what a completed scan returns.
func OptionsDigest(o core.Options) string {
	canon := fmt.Sprintf(
		"v%d|timing=%s|weighted=%t|uselesscomm=%t|noflexbound=%t|stopatmax=%t|allbehaviours=%t|maxecs=%d|maxscan=%d|maxbindnodes=%d",
		Version, o.Timing, o.Weighted, o.IncludeUselessComm, o.DisableFlexBound,
		o.StopAtMaxFlex, o.AllBehaviours, o.MaxECS, o.MaxScan, o.MaxBindNodes)
	sum := sha256.Sum256([]byte(canon))
	return "sha256:" + hex.EncodeToString(sum[:])
}

// Capture builds a snapshot from an exploration progress report.
func Capture(s *spec.Spec, opts core.Options, p core.Progress) (*Snapshot, error) {
	sd, err := SpecDigest(s)
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{
		Version:        Version,
		SpecName:       s.Name,
		SpecDigest:     sd,
		OptsDigest:     OptionsDigest(opts),
		Cursor:         p.Cursor,
		BestFlex:       p.BestFlex,
		MaxFlexibility: p.MaxFlexibility,
		Stats:          p.Stats,
	}
	for _, im := range p.Front {
		fe := FrontEntry{Cost: im.Cost, Flexibility: im.Flexibility}
		for _, id := range im.Allocation.IDs() {
			fe.Allocation = append(fe.Allocation, string(id))
		}
		snap.Front = append(snap.Front, fe)
	}
	return snap, nil
}

// FromResult builds a snapshot from a finished (possibly interrupted)
// exploration result — the final flush before printing a partial front.
func FromResult(s *spec.Spec, opts core.Options, r *core.Result) (*Snapshot, error) {
	best := 0.0
	for _, im := range r.Front {
		if im.Flexibility > best {
			best = im.Flexibility
		}
	}
	return Capture(s, opts, core.Progress{
		Cursor:         r.Cursor,
		BestFlex:       best,
		MaxFlexibility: r.MaxFlexibility,
		Front:          r.Front,
		Stats:          r.Stats,
	})
}

// Writer persists snapshots to Path with atomic write-rename. The zero
// Fault is inert.
type Writer struct {
	Path  string
	Fault *faultinject.Plan
}

// Save writes the snapshot atomically: marshal, write Path+".tmp",
// rename over Path. A crash (or injected panic) between write and
// rename leaves the previous snapshot intact.
func (w *Writer) Save(snap *Snapshot) error {
	if err := w.Fault.Count(SiteWrite); err != nil {
		return fmt.Errorf("checkpoint: save %s: %w", w.Path, err)
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: save %s: %w", w.Path, err)
	}
	tmp := w.Path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("checkpoint: save %s: %w", w.Path, err)
	}
	if err := w.Fault.Count(SiteRename); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: save %s: %w", w.Path, err)
	}
	if err := os.Rename(tmp, w.Path); err != nil {
		return fmt.Errorf("checkpoint: save %s: %w", w.Path, err)
	}
	return nil
}

// Load reads a snapshot and checks its schema version.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("checkpoint: load %s: %w", path, err)
	}
	if snap.Version != Version {
		return nil, fmt.Errorf("checkpoint: load %s: snapshot version %d, this build reads version %d",
			path, snap.Version, Version)
	}
	return &snap, nil
}

// Validate checks that the snapshot belongs to this specification and
// these exploration options; resuming across either mismatch is
// refused because the scan cursor would index a different candidate
// sequence.
func (snap *Snapshot) Validate(s *spec.Spec, opts core.Options) error {
	sd, err := SpecDigest(s)
	if err != nil {
		return err
	}
	if sd != snap.SpecDigest {
		return fmt.Errorf("checkpoint: spec digest mismatch (snapshot %s taken for %s, current spec %q is %s); refusing to resume",
			snap.SpecDigest, snap.SpecName, s.Name, sd)
	}
	if od := OptionsDigest(opts); od != snap.OptsDigest {
		return fmt.Errorf("checkpoint: exploration-options digest mismatch (snapshot %s, current %s); refusing to resume",
			snap.OptsDigest, od)
	}
	return nil
}

// Resume validates the snapshot and turns it back into exploration
// state: every front allocation is re-implemented deterministically,
// and the snapshot is refused if a reconstruction disagrees with the
// recorded cost or flexibility (corruption, or a drift the digests
// could not see).
func (snap *Snapshot) Resume(s *spec.Spec, opts core.Options) (*core.Resume, error) {
	if err := snap.Validate(s, opts); err != nil {
		return nil, err
	}
	r := &core.Resume{Cursor: snap.Cursor, Stats: snap.Stats}
	for _, fe := range snap.Front {
		a := spec.Allocation{}
		for _, id := range fe.Allocation {
			a[hgraph.ID(id)] = true
		}
		im := core.Implement(s, a, opts, nil)
		if im == nil {
			return nil, fmt.Errorf("checkpoint: front allocation %s no longer implements any behaviour; refusing to resume", a)
		}
		if im.Cost != fe.Cost || im.Flexibility != fe.Flexibility {
			return nil, fmt.Errorf("checkpoint: front allocation %s reconstructs to (c=%g, f=%g) but the snapshot recorded (c=%g, f=%g); refusing to resume",
				a, im.Cost, im.Flexibility, fe.Cost, fe.Flexibility)
		}
		r.Front = append(r.Front, im)
	}
	return r, nil
}
