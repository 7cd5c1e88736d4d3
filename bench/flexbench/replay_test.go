package main

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
)

// TestReplayMatchesExplore checks the replay's fidelity: on every spec
// it returns core.Explore's front, cursor, termination reason and
// semantic counters, traced or not. The behaviours' bindings are not
// compared: core's binding cache may replay a binding found under a
// smaller allocation where the uncached solver finds another. The
// golden specs' references also come out of the replay on the bitset
// producer.
func TestReplayMatchesExplore(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	tasks := append([]*task{
		{key: "decoder", spec: models.Decoder(), workers: 1},
		settopTask(),
	}, goldenTasks()...)
	for _, tk := range tasks {
		t.Run(tk.key, func(t *testing.T) {
			want := core.Explore(tk.spec, tk.options())
			for _, tr := range []*tracer{nil, newTracer()} {
				got := replay(tk.spec, tk.options(), autoProducer(tk.spec), tr)
				if g, w := summarize(got), summarize(want); !reflect.DeepEqual(g, w) {
					t.Errorf("traced=%v: replay result %+v, want %+v", tr != nil, g, w)
				}
				if g, w := got.Stats.Semantic(), want.Stats.Semantic(); !reflect.DeepEqual(g, w) {
					t.Errorf("traced=%v: semantic counters %+v, want %+v", tr != nil, g, w)
				}
			}
			ref := refs[tk.key]
			if ref == nil {
				return
			}
			if err := ref.check(summarize(want)); err != nil {
				t.Errorf("core.Explore vs reference: %v", err)
			}
			if tk.key != "settop" {
				if err := ref.check(summarize(replay(tk.spec, tk.options(), bitsetProducer, nil))); err != nil {
					t.Errorf("bitset replay vs golden: %v (regenerate with -golden)", err)
				}
			}
		})
	}
}

// TestReferenceCheckRejects checks that a result differing from its
// reference in any field the reference pins is counted as failed.
func TestReferenceCheckRejects(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, ref string
		mutate    func(*summary)
	}{
		{"reason", "settop", func(s *summary) { s.Reason = string(core.ReasonDeadline) }},
		{"max flexibility", "settop", func(s *summary) { s.MaxFlexibility = 7 }},
		{"missing row", "settop", func(s *summary) { s.Front = s.Front[:5] }},
		{"cost", "settop", func(s *summary) { s.Front[2].Cost++ }},
		{"allocation", "settop", func(s *summary) { s.Front[0].Allocation = []string{"uP1"} }},
		{"paper cluster", "settop", func(s *summary) {
			s.Front[5].Clusters = slices.DeleteFunc(s.Front[5].Clusters, func(c string) bool { return c == "gI" })
		}},
		{"cursor", "sdr", func(s *summary) { s.Cursor++ }},
		{"extra cluster", "sdr", func(s *summary) { s.Front[0].Clusters = append(s.Front[0].Clusters, "x") }},
	}
	explore := map[string]*task{"settop": settopTask(), "sdr": sdrTask()}
	for _, c := range cases {
		got := summarize(explore[c.ref].explore())
		if err := refs[c.ref].check(got); err != nil {
			t.Fatalf("%s: unmodified result rejected: %v", c.name, err)
		}
		c.mutate(&got)
		if refs[c.ref].check(got) == nil {
			t.Errorf("%s: modified result accepted", c.name)
		}
	}
}
