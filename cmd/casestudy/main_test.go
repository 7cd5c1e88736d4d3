package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/hgraph"
	"repro/internal/models"
	"repro/internal/spec"
)

func TestPaperName(t *testing.T) {
	cases := map[string]string{
		"dD3": "D3", "dU2": "U2", "dG1": "G1", "uP2": "uP2", "A1": "A1", "C1": "C1",
	}
	for in, want := range cases {
		if got := paperName(hgraph.ID(in)); got != want {
			t.Errorf("paperName(%s) = %s, want %s", in, got, want)
		}
	}
}

func TestAllocAndClusterStrings(t *testing.T) {
	s := models.SetTopBox()
	im := core.Implement(s, spec.NewAllocation("uP2", "dG1", "dU2", "C1"), core.Options{}, nil)
	if im == nil {
		t.Fatal("implement failed")
	}
	as := allocString(im)
	if as != "C1, G1, U2, uP2" {
		t.Errorf("allocString = %q", as)
	}
	cs := clusterString(im)
	if cs != "yD1, yG1, yI, yU1, yU2" {
		t.Errorf("clusterString = %q", cs)
	}
	if strings.Contains(cs, "yD,") || strings.Contains(cs, "yG,") {
		t.Error("parent clusters must be omitted")
	}
}

// TestVerifyFrontUsesRunTiming: -verify checks every front under the
// run's timing policy. A front explored without timing holds bindings
// the paper's 69% test rejects, so checking them under that test
// reported false failures.
func TestVerifyFrontUsesRunTiming(t *testing.T) {
	for _, name := range []string{"paper", "none", "ll", "rta"} {
		timing, err := bind.ParseTiming(name)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		code := verifyFront(context.Background(), &out, models.SetTopBox(), core.Options{Timing: timing})
		if code != 0 || strings.Contains(out.String(), "FAIL") {
			t.Errorf("-timing %s: verifyFront = %d:\n%s", name, code, out.String())
		}
	}
}

// TestTimingPolicyFlag: -timing takes every name bind.ParseTiming
// accepts; any other name is a flag problem, so casestudy exits 2
// before exploring.
func TestTimingPolicyFlag(t *testing.T) {
	for _, name := range []string{"paper", "none", "ll", "liu-layland", "rta", "edf", "hyperbolic", "paper-69%"} {
		f := baseFlags()
		f.timing = name
		if probs := f.problems(); len(probs) != 0 {
			t.Errorf("-timing %s rejected: %v", name, probs)
		}
	}
	for _, name := range []string{"bogus", ""} {
		f := baseFlags()
		f.timing = name
		if probs := f.problems(); len(probs) != 1 || !strings.Contains(probs[0], "-timing") {
			t.Errorf("-timing %q: problems %v, want one -timing problem", name, probs)
		}
	}
}

// baseFlags returns a valid default flag set; tests mutate one aspect
// and assert on problems().
func baseFlags() *cliFlags {
	return &cliFlags{
		checkpointEvery: 64, cache: "on", timing: "paper", workers: 1,
		explicit: map[string]bool{},
	}
}

func TestFlagValidationAccepts(t *testing.T) {
	cases := []func(*cliFlags){
		func(f *cliFlags) {},
		func(f *cliFlags) { f.table1 = true },
		func(f *cliFlags) { f.compare = true },
		func(f *cliFlags) { f.checkpoint = "ck.json" },
		func(f *cliFlags) { f.checkpoint = "ck.json"; f.resume = true },
		func(f *cliFlags) {
			f.checkpoint = "ck.json"
			f.checkpointEvery = 8
			f.explicit["checkpoint"] = true
			f.explicit["checkpoint-every"] = true
		},
		func(f *cliFlags) { f.workers = 0 },
		func(f *cliFlags) { f.workers = 4 },
		func(f *cliFlags) { f.timeout = 1 },
		func(f *cliFlags) { f.cache = "off" },
	}
	for i, mutate := range cases {
		f := baseFlags()
		mutate(f)
		if probs := f.problems(); len(probs) != 0 {
			t.Errorf("case %d: valid flags rejected: %v", i, probs)
		}
	}
}

func TestFlagValidationRejects(t *testing.T) {
	cases := []struct {
		mutate func(*cliFlags)
		want   string
	}{
		{func(f *cliFlags) { f.checkpoint = "ck.json"; f.table1 = true }, "only apply to the default"},
		{func(f *cliFlags) { f.resume = true; f.verify = true }, "only apply to the default"},
		{func(f *cliFlags) { f.resume = true }, "-resume requires"},
		{func(f *cliFlags) { f.checkpointEvery = 0 }, "-checkpoint-every must be > 0"},
		{func(f *cliFlags) { f.explicit["checkpoint-every"] = true }, "-checkpoint-every requires -checkpoint"},
		{func(f *cliFlags) { f.timeout = -1 }, "-timeout"},
		{func(f *cliFlags) { f.cache = "maybe" }, "-cache"},
		{func(f *cliFlags) { f.workers = -1 }, "-workers must be >= 0"},
		{func(f *cliFlags) { f.workers = 4; f.family = true }, "-workers only applies"},
		{func(f *cliFlags) { f.prof.CPUProfile = "p.out"; f.prof.Trace = "p.out" }, "same file"},
	}
	for i, tc := range cases {
		f := baseFlags()
		tc.mutate(f)
		probs := f.problems()
		found := false
		for _, p := range probs {
			if strings.Contains(p, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("case %d: want a problem matching %q, got %v", i, tc.want, probs)
		}
	}
}

// Every rejection must surface all problems at once, not just the first.
func TestFlagValidationReportsAll(t *testing.T) {
	f := baseFlags()
	f.resume = true
	f.timeout = -1
	f.workers = -2
	if probs := f.problems(); len(probs) < 3 {
		t.Errorf("want >= 3 problems, got %v", probs)
	}
}
