package checkpoint

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/hgraph"
	"repro/internal/models"
	"repro/internal/spec"
)

// frontsEqual reports whether two fronts encode alike: allocations,
// costs, flexibilities, clusters and behaviours, bindings included.
func frontsEqual(a, b []*core.Implementation) bool {
	ja, errA := (&core.Result{Front: a}).MarshalJSON()
	jb, errB := (&core.Result{Front: b}).MarshalJSON()
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}

func mustStamp(t testing.TB, s *spec.Spec, opts core.Options) Stamp {
	t.Helper()
	st, err := NewStamp(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// settleCursor is the cursor at which a default Set-Top box run
// settles, where a StopAtMaxFlex run stops: the bound prunes every
// later candidate, so a cancellation or failpoint aimed at or past it
// never fires.
func settleCursor(s *spec.Spec) int {
	return core.Explore(s, core.Options{StopAtMaxFlex: true}).Cursor
}

// interruptedResult runs Explore with an injected cancellation at
// candidate k and returns the partial result.
func interruptedResult(t *testing.T, k int) *core.Result {
	t.Helper()
	s := models.SetTopBox()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := core.Options{Fault: faultinject.New().CancelAt(core.SiteEstimate, k).Bind(cancel)}
	r := core.Run(ctx, s, opts, core.Request{})
	if !r.Interrupted || r.Cursor != k {
		t.Fatalf("interrupt failed: interrupted=%v cursor=%d", r.Interrupted, r.Cursor)
	}
	return r
}

func TestSaveLoadResumeRoundtrip(t *testing.T) {
	s := models.SetTopBox()
	full := core.Explore(s, core.Options{})
	part := interruptedResult(t, settleCursor(s)/2)

	snap, err := FromResult(s, core.Options{}, part)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := (&Writer{Path: path}).Save(snap); err != nil {
		t.Fatal(err)
	}

	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, snap) {
		t.Fatalf("snapshot changed across save/load:\n%+v\n%+v", loaded, snap)
	}
	res, err := loaded.Resume(s, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cursor != part.Cursor || !frontsEqual(res.Front, part.Front) {
		t.Fatalf("resume state diverges from the interrupted result")
	}

	resumed := core.Explore(s, core.Options{Resume: res})
	if !frontsEqual(resumed.Front, full.Front) {
		t.Errorf("resumed-from-disk front differs from uninterrupted run")
	}
	// Compare through Semantic(): the resumed run restarts with a cold
	// evaluation cache, so solver-effort and cache counters may differ
	// while the semantic counters continue exactly.
	if !reflect.DeepEqual(resumed.Stats.Semantic(), full.Stats.Semantic()) {
		t.Errorf("resumed stats %+v\n  differ from uninterrupted %+v", resumed.Stats, full.Stats)
	}
}

func TestResumeRefusesSpecMismatch(t *testing.T) {
	settop := models.SetTopBox()
	part := interruptedResult(t, 50)
	snap, err := FromResult(settop, core.Options{}, part)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Resume(models.Decoder(), core.Options{}); err == nil ||
		!strings.Contains(err.Error(), "spec digest mismatch") {
		t.Fatalf("want spec digest refusal, got %v", err)
	}
}

func TestResumeRefusesOptionsMismatch(t *testing.T) {
	s := models.SetTopBox()
	part := interruptedResult(t, 50)
	snap, err := FromResult(s, core.Options{}, part)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Resume(s, core.Options{Weighted: true}); err == nil ||
		!strings.Contains(err.Error(), "options digest mismatch") {
		t.Fatalf("want options digest refusal, got %v", err)
	}
}

func TestOptionsDigestIgnoresRuntimeHooks(t *testing.T) {
	base := OptionsDigest(core.Options{})
	hooked := OptionsDigest(core.Options{
		Fault:         faultinject.New(),
		Progress:      func(core.Progress) {},
		ProgressEvery: 3,
		Resume:        &core.Resume{Cursor: 9},
	})
	if base != hooked {
		t.Fatal("runtime hooks leaked into the options digest")
	}
	if base == OptionsDigest(core.Options{MaxScan: 10}) {
		t.Fatal("scan-shaping option not in the digest")
	}
}

func TestLoadRefusesVersionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := os.WriteFile(path, []byte(`{"version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("want version refusal, got %v", err)
	}
}

func TestLoadRejectsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := os.WriteFile(path, []byte(`{"version": 1,`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("corrupt snapshot loaded")
	}
}

func TestResumeRefusesTamperedFront(t *testing.T) {
	s := models.SetTopBox()
	part := interruptedResult(t, settleCursor(s)*3/4)
	if len(part.Front) == 0 {
		t.Fatal("need a non-empty partial front")
	}
	snap, err := FromResult(s, core.Options{}, part)
	if err != nil {
		t.Fatal(err)
	}
	snap.Front[0].Flexibility += 1 // bit-rot the recorded objective
	if _, err := snap.Resume(s, core.Options{}); err == nil ||
		!strings.Contains(err.Error(), "refusing to resume") {
		t.Fatalf("want reconstruction refusal, got %v", err)
	}
}

// TestSaveAtomicUnderCrash: a crash (injected panic) between the temp
// write and the rename must leave the previously saved snapshot intact
// and loadable.
func TestSaveAtomicUnderCrash(t *testing.T) {
	s := models.SetTopBox()
	first, err := FromResult(s, core.Options{}, interruptedResult(t, 50))
	if err != nil {
		t.Fatal(err)
	}
	second, err := FromResult(s, core.Options{}, interruptedResult(t, 100))
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "ck.json")
	w := &Writer{Path: path, Fault: faultinject.New().PanicAt(SiteRename, 1, "crash before rename")}
	if err := w.Save(first); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("second save did not crash")
			}
		}()
		w.Save(second)
	}()

	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Cursor != first.Cursor {
		t.Fatalf("crash corrupted the snapshot: cursor %d, want %d", loaded.Cursor, first.Cursor)
	}
}

func TestSaveWriteErrorInjected(t *testing.T) {
	w := &Writer{
		Path:  filepath.Join(t.TempDir(), "ck.json"),
		Fault: faultinject.New().ErrorAt(SiteWrite, 0, nil),
	}
	if err := w.Save(&Snapshot{Version: Version}); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("want injected write error, got %v", err)
	}
	if _, err := os.Stat(w.Path); !os.IsNotExist(err) {
		t.Fatal("failed save left a file behind")
	}
}

func TestSaveRenameErrorCleansTemp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	w := &Writer{Path: path, Fault: faultinject.New().ErrorAt(SiteRename, 0, nil)}
	if err := w.Save(&Snapshot{Version: Version}); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("want injected rename error, got %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file not cleaned up after rename failure")
	}
}

// TestCrashResumeMatchesUninterrupted is the acceptance scenario: a run
// checkpointing periodically via the Progress hook is killed by an
// injected panic mid-scan; the last snapshot on disk is loaded, resumed,
// and the final front and counters match the never-interrupted run.
func TestCrashResumeMatchesUninterrupted(t *testing.T) {
	s := models.SetTopBox()
	full := core.Explore(s, core.Options{})

	path := filepath.Join(t.TempDir(), "ck.json")
	w := &Writer{Path: path}
	crash := settleCursor(s) - 1
	opts := core.Options{
		ProgressEvery: 50,
		Fault:         faultinject.New().PanicAt(core.SiteEstimate, crash, "simulated crash"),
	}
	st := mustStamp(t, s, opts)
	opts.Progress = func(p core.Progress) {
		if err := w.Save(st.Capture(p)); err != nil {
			t.Errorf("save: %v", err)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the injected crash did not fire")
			}
		}()
		core.Explore(s, opts)
	}()

	snap, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Cursor <= 0 || snap.Cursor > crash {
		t.Fatalf("snapshot cursor %d outside the pre-crash window", snap.Cursor)
	}
	res, err := snap.Resume(s, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resumed := core.Explore(s, core.Options{Resume: res})
	if !frontsEqual(resumed.Front, full.Front) {
		t.Errorf("crash+resume front differs from uninterrupted run")
	}
	if resumed.Stats.PossibleAllocations != full.Stats.PossibleAllocations ||
		resumed.Stats.Feasible != full.Stats.Feasible {
		t.Errorf("crash+resume counters diverge: %+v vs %+v", resumed.Stats, full.Stats)
	}
}

// TestDeadlineResumeMatchesUninterrupted covers the deadline
// interruption mode: an exhaustive-options scan is cut off by a short
// context deadline, snapshotted, and resumed to the uninterrupted
// front. The scan can finish in less time than the deadline, so its
// first Progress report holds it until the deadline has passed: the
// deadline then always cuts the scan at the next candidate.
func TestDeadlineResumeMatchesUninterrupted(t *testing.T) {
	s := models.SetTopBox()
	opts := core.Options{DisableFlexBound: true, IncludeUselessComm: true}
	full := core.Run(context.Background(), s, opts, core.Request{})

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	held := opts
	held.Progress = func(core.Progress) { <-ctx.Done() }
	part := core.Run(ctx, s, held, core.Request{})
	if !part.Interrupted || part.Reason != core.ReasonDeadline || part.Cursor >= full.Cursor {
		t.Fatalf("interrupted=%v reason=%q cursor %d: want a deadline cut before %d", part.Interrupted, part.Reason, part.Cursor, full.Cursor)
	}

	snap, err := FromResult(s, opts, part)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := (&Writer{Path: path}).Save(snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := loaded.Resume(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Resume = res
	resumed := core.Run(context.Background(), s, opts, core.Request{})
	if !frontsEqual(resumed.Front, full.Front) {
		t.Errorf("deadline+resume front differs from uninterrupted run")
	}
}

func TestSpecDigestStableAndDiscriminating(t *testing.T) {
	a, err := SpecDigest(models.SetTopBox())
	if err != nil {
		t.Fatal(err)
	}
	b, err := SpecDigest(models.SetTopBox())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("digest of identical specs differs — encoding is not canonical")
	}
	c, err := SpecDigest(models.Decoder())
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different specs collide")
	}
	if !strings.HasPrefix(a, "sha256:") {
		t.Fatalf("digest %q lacks scheme prefix", a)
	}
}

// TestPipelineCheckpointCrossModeResume: a checkpoint written from a
// Progress emission of the *pipelined* explorer loads, validates
// (digest compatibility is unaffected by worker count — workers and
// queue depth are call arguments, not digested options), and resumes to
// the uninterrupted front under either explorer. Snapshots are
// interchangeable between -workers=1 and -workers=N runs.
func TestPipelineCheckpointCrossModeResume(t *testing.T) {
	s := models.SetTopBox()
	full := core.Explore(s, core.Options{})

	path := filepath.Join(t.TempDir(), "ck.json")
	w := &Writer{Path: path}
	opts := core.Options{ProgressEvery: 16}
	saved := false
	st := mustStamp(t, s, opts)
	opts.Progress = func(p core.Progress) {
		if saved || p.Cursor >= full.Cursor {
			return
		}
		if err := w.Save(st.Capture(p)); err != nil {
			t.Errorf("save: %v", err)
			return
		}
		saved = true
	}
	core.ExploreParallel(s, opts, 4, 8)
	if !saved {
		t.Fatal("no mid-pipeline checkpoint written")
	}

	snap, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Stats.Pipeline.Workers != 4 {
		t.Errorf("snapshot lost the pipeline shape: %+v", snap.Stats.Pipeline)
	}
	res, err := snap.Resume(s, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if seq := core.Explore(s, core.Options{Resume: res}); !frontsEqual(seq.Front, full.Front) {
		t.Errorf("sequential resume of a pipeline checkpoint diverges from the full run")
	}
	if par := core.ExploreParallel(s, core.Options{Resume: res}, 2, 4); !frontsEqual(par.Front, full.Front) {
		t.Errorf("pipelined resume of a pipeline checkpoint diverges from the full run")
	}
}

// TestResumeAcrossBatchSizes: a checkpoint written mid-scan — at a
// cursor that is deliberately NOT a multiple of the resuming run's
// range size, so the resumed run chunks the candidate stream on
// different boundaries — resumes in parallel and sequentially and
// still converges to the uninterrupted front.
func TestResumeAcrossBatchSizes(t *testing.T) {
	s := models.SetTopBox()
	full := core.Explore(s, core.Options{})

	// Snapshot from a parallel run at the first progress emission past
	// cursor 100: with ProgressEvery=1 the parallel explorer runs
	// one-candidate ranges and reports every committed candidate.
	var snap *Snapshot
	opts := core.Options{ProgressEvery: 1}
	st := mustStamp(t, s, opts)
	opts.Progress = func(p core.Progress) {
		if snap != nil || p.Cursor < 100 || p.Cursor >= full.Cursor {
			return
		}
		snap = st.Capture(p)
	}
	core.ExploreParallel(s, opts, 4, 8)
	if snap == nil {
		t.Fatal("no mid-scan checkpoint captured")
	}
	if snap.Cursor%64 == 0 {
		t.Fatalf("cursor %d is a batch-64 boundary; the test wants a mid-batch resume point", snap.Cursor)
	}

	for _, workers := range []int{1, 4} {
		res, err := snap.Resume(s, core.Options{})
		if err != nil {
			t.Fatalf("workers=%d refused the snapshot: %v", workers, err)
		}
		r := core.ExploreParallel(s, core.Options{Resume: res}, workers, 8)
		if !frontsEqual(r.Front, full.Front) {
			t.Errorf("workers=%d: resumed front diverges from the uninterrupted run", workers)
		}
		if r.Cursor != full.Cursor {
			t.Errorf("workers=%d: resumed cursor %d, want %d", workers, r.Cursor, full.Cursor)
		}
	}
}

// TestCheckpointResumeFractionalCosts: a front whose allocation needs
// three units with fractional costs resumes every time. Resume
// re-implements each front allocation and refuses any cost that
// differs from the recorded one, so the cost must not depend on the
// order a map happens to iterate in.
func TestCheckpointResumeFractionalCosts(t *testing.T) {
	pb := hgraph.NewBuilder("problem", "GP")
	pb.Root().Vertex("A").Vertex("B").Vertex("C")
	ab := hgraph.NewBuilder("arch", "GA")
	ab.Root().Vertex("R1", spec.AttrCost, 0.1).Vertex("R2", spec.AttrCost, 0.2).Vertex("R3", spec.AttrCost, 0.3)
	s := spec.MustNew("fractional", pb.MustBuild(), ab.MustBuild(), []*spec.Mapping{
		{Process: "A", Resource: "R1", Latency: 1},
		{Process: "B", Resource: "R2", Latency: 1},
		{Process: "C", Resource: "R3", Latency: 1},
	})
	full := core.Explore(s, core.Options{})
	if len(full.Front) != 1 || len(full.Front[0].Allocation) != 3 {
		t.Fatalf("front = %v, want the one three-unit allocation", full.Front)
	}
	snap, err := FromResult(s, core.Options{}, full)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := snap.Resume(s, core.Options{}); err != nil {
			t.Fatalf("resume %d: %v", i, err)
		}
	}
}
