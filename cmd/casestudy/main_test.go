package main

import (
	"bytes"
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
		code := verifyFront(&out, models.SetTopBox(), core.Options{Timing: timing})
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
		if probs := problems(name); len(probs) != 0 {
			t.Errorf("-timing %s rejected: %v", name, probs)
		}
	}
	for _, name := range []string{"bogus", ""} {
		if probs := problems(name); len(probs) != 1 || !strings.Contains(probs[0], "-timing") {
			t.Errorf("-timing %q: problems %v, want one -timing problem", name, probs)
		}
	}
}

// TestFlagValidationAccepts: no report switch, or any one of them, under
// any valid timing policy.
func TestFlagValidationAccepts(t *testing.T) {
	for _, timing := range []string{"paper", "rta"} {
		if probs := problems(timing, false, false, false, false, false); len(probs) != 0 {
			t.Errorf("default run, -timing %s rejected: %v", timing, probs)
		}
		for i := 0; i < 5; i++ {
			modes := make([]bool, 5)
			modes[i] = true
			if probs := problems(timing, modes...); len(probs) != 0 {
				t.Errorf("report switch %d, -timing %s rejected: %v", i, timing, probs)
			}
		}
	}
}

func TestFlagValidationRejects(t *testing.T) {
	cases := []struct {
		timing string
		modes  []bool
		want   string
	}{
		{"bogus", nil, "-timing"},
		{"paper", []bool{true, false, true, false, false}, "mutually exclusive"},
		{"paper", []bool{false, false, false, true, true}, "mutually exclusive"},
		{"paper", []bool{true, true, true, true, true}, "mutually exclusive"},
	}
	for i, tc := range cases {
		probs := problems(tc.timing, tc.modes...)
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
	if probs := problems("bogus", true, true); len(probs) < 2 {
		t.Errorf("want >= 2 problems, got %v", probs)
	}
}
