package checkpoint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/spec"
)

// freshSnapshot builds the snapshot of a progress report field by
// field, digesting the specification and options anew: the reference a
// stamped Capture must reproduce byte for byte.
func freshSnapshot(t *testing.T, s *spec.Spec, opts core.Options, p core.Progress) *Snapshot {
	t.Helper()
	sd, err := SpecDigest(s)
	if err != nil {
		t.Fatal(err)
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
	return snap
}

// TestStampCaptureEncodesNoSpec: a stamped Capture costs the same
// allocations whatever the size of the specification behind the stamp,
// because it copies the digests instead of encoding the spec.
func TestStampCaptureEncodesNoSpec(t *testing.T) {
	settop := models.SetTopBox()
	r := core.Explore(settop, core.Options{})
	p := core.Progress{Cursor: r.Cursor, MaxFlexibility: r.MaxFlexibility, Front: r.Front, Stats: r.Stats}

	small := mustStamp(t, settop, core.Options{})
	large := mustStamp(t, models.Synthetic(models.ScaledSynthetic(1, 50)), core.Options{})
	a := testing.AllocsPerRun(100, func() { small.Capture(p) })
	b := testing.AllocsPerRun(100, func() { large.Capture(p) })
	if a != b {
		t.Fatalf("Capture allocates %v times under the Set-Top stamp and %v under the 50-unit one; want equal", a, b)
	}
}

// TestStampSnapshotsMatchFreshDigests: at every progress report of a
// run, the snapshot of the run's stamp marshals byte-identical to one
// built with freshly computed digests, and Resume accepts it.
func TestStampSnapshotsMatchFreshDigests(t *testing.T) {
	specs := []struct {
		name string
		s    *spec.Spec
	}{
		{"settop", models.SetTopBox()},
		{"sdr", models.SDR()},
		{"synthetic2", models.Synthetic(models.DefaultSynthetic(2))},
		{"synthetic3", models.Synthetic(models.DefaultSynthetic(3))},
	}
	optsGrid := []struct {
		name string
		opts core.Options
	}{
		{"default", core.Options{}},
		{"weighted", core.Options{Weighted: true}},
		{"exhaustive", core.Options{DisableFlexBound: true, IncludeUselessComm: true}},
	}
	for _, sc := range specs {
		for _, oc := range optsGrid {
			t.Run(sc.name+"/"+oc.name, func(t *testing.T) {
				opts := oc.opts
				opts.ProgressEvery = 64
				st := mustStamp(t, sc.s, opts)
				reports := 0
				opts.Progress = func(p core.Progress) {
					reports++
					got, err := json.MarshalIndent(st.Capture(p), "", "  ")
					if err != nil {
						t.Fatal(err)
					}
					want, err := json.MarshalIndent(freshSnapshot(t, sc.s, opts, p), "", "  ")
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("cursor %d: stamped snapshot differs from a fresh one:\n%s\nwant\n%s", p.Cursor, got, want)
					}
					if _, err := st.Capture(p).Resume(sc.s, oc.opts); err != nil {
						t.Fatalf("cursor %d: %v", p.Cursor, err)
					}
				}
				core.Explore(sc.s, opts)
				if reports == 0 {
					t.Fatal("no progress report")
				}
			})
		}
	}
}

// TestPreStampSnapshotResumes: testdata/settop-v1.ck.json was written
// before snapshots took their digests from a Stamp (at commit e094a83),
// by a default Set-Top box run reporting every 16 candidates, when the
// engine still kept a binding memo. A stamped run writes the same bytes
// at the same cursor outside "stats", and the same Stats but for the
// solver effort, which every binding decision now solves: 122 runs and
// 328 nodes where the memo made 60 and 137. The old file still resumes
// to the uninterrupted front, and the memo counters it carries do not
// reappear in the resumed run.
func TestPreStampSnapshotResumes(t *testing.T) {
	golden := filepath.Join("testdata", "settop-v1.ck.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	old, err := Load(golden)
	if err != nil {
		t.Fatal(err)
	}

	s := models.SetTopBox()
	path := filepath.Join(t.TempDir(), "ck.json")
	w := &Writer{Path: path}
	opts := core.Options{ProgressEvery: 16}
	st := mustStamp(t, s, opts)
	saved := false
	opts.Progress = func(p core.Progress) {
		if p.Cursor != old.Cursor {
			return
		}
		if err := w.Save(st.Capture(p)); err != nil {
			t.Fatal(err)
		}
		saved = true
	}
	full := core.Explore(s, opts)
	if !saved {
		t.Fatalf("no progress report at cursor %d", old.Cursor)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var gotKeys, wantKeys map[string]json.RawMessage
	if err := json.Unmarshal(got, &gotKeys); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &wantKeys); err != nil {
		t.Fatal(err)
	}
	if len(gotKeys) != len(wantKeys) {
		t.Errorf("snapshot at cursor %d has %d keys, %s %d", old.Cursor, len(gotKeys), golden, len(wantKeys))
	}
	for k, v := range wantKeys {
		if k != "stats" && !bytes.Equal(gotKeys[k], v) {
			t.Errorf("snapshot at cursor %d: %q is %s, %s has %s", old.Cursor, k, gotKeys[k], golden, v)
		}
	}
	fresh, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.Stats.Semantic(), old.Stats.Semantic()) {
		t.Errorf("semantic counters at cursor %d:\n%+v\n%s has\n%+v", old.Cursor, fresh.Stats.Semantic(), golden, old.Stats.Semantic())
	}
	wantStats := old.Stats
	wantStats.BindingRuns, wantStats.BindingNodes = 122, 328
	if !reflect.DeepEqual(fresh.Stats, wantStats) {
		t.Errorf("stats at cursor %d:\n%+v\nwant\n%+v", old.Cursor, fresh.Stats, wantStats)
	}

	res, err := old.Resume(s, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resumed := core.Explore(s, core.Options{Resume: res})
	if !frontsEqual(resumed.Front, full.Front) || resumed.Cursor != full.Cursor {
		t.Errorf("resumed run (cursor %d, %d front) differs from the uninterrupted one (cursor %d, %d front)",
			resumed.Cursor, len(resumed.Front), full.Cursor, len(full.Front))
	}
	// The old file's bindMisses is not read back: the deprecated field,
	// the one counter not copied here, stays 0.
	c := resumed.Stats.Cache
	if c != (core.CacheStats{FlattenHits: c.FlattenHits, FlattenMisses: c.FlattenMisses,
		ArchFlattenHits: c.ArchFlattenHits, ArchFlattenMisses: c.ArchFlattenMisses, SupportableReused: c.SupportableReused}) {
		t.Errorf("resumed run reports binding-memo counters: %+v", c)
	}
}

// BenchmarkPeriodicCheckpoint is the checkpoint I/O layer of a
// periodically checkpointed job: Explore on synthetic 2 reporting every
// 64 candidates, each report captured under the run's stamp and saved.
func BenchmarkPeriodicCheckpoint(b *testing.B) {
	s := models.Synthetic(models.DefaultSynthetic(2))
	w := &Writer{Path: filepath.Join(b.TempDir(), "ck.json")}
	saves := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := core.Options{ProgressEvery: 64}
		st := mustStamp(b, s, opts)
		opts.Progress = func(p core.Progress) {
			if err := w.Save(st.Capture(p)); err != nil {
				b.Fatal(err)
			}
			saves++
		}
		core.Explore(s, opts)
	}
	b.ReportMetric(float64(saves)/float64(b.N), "saves/op")
}
