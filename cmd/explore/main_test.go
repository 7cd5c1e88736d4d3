package main

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
)

// baseFlags returns a valid default flag set; tests mutate one aspect
// and assert on problems().
func baseFlags() *cliFlags {
	return &cliFlags{
		algo: "explore", workers: 1, iters: 1000, checkpointEvery: 64,
		timing: "paper", explicit: map[string]bool{},
	}
}

func TestFlagValidationAccepts(t *testing.T) {
	cases := []func(*cliFlags){
		func(f *cliFlags) {},
		func(f *cliFlags) { f.workers = 0; f.explicit["workers"] = true },
		func(f *cliFlags) { f.workers = 8; f.explicit["workers"] = true },
		func(f *cliFlags) {
			f.algo = "random"
			f.iters = 5
			f.explicit["iters"] = true
			f.explicit["seed"] = true
		},
		func(f *cliFlags) { f.algo = "ea"; f.explicit["seed"] = true },
		func(f *cliFlags) { f.model = "synthetic"; f.explicit["seed"] = true },
		func(f *cliFlags) { f.checkpoint = "ck.json"; f.checkpointEvery = 4 },
		func(f *cliFlags) {
			f.checkpoint = "ck.json"
			f.checkpointEvery = 4
			f.explicit["checkpoint"] = true
			f.explicit["checkpoint-every"] = true
		},
		func(f *cliFlags) { f.algo = "exhaustive"; f.checkpoint = "ck.json"; f.resume = true },
		func(f *cliFlags) { f.timeout = 1 },
		func(f *cliFlags) { f.objectives = "latency,power" },
		func(f *cliFlags) { f.upgradeFrom = "uP2" },
		func(f *cliFlags) { f.upgradeFrom = "uP2"; f.explicit["stop-at-max"] = true },
		func(f *cliFlags) { f.explicit["stop-at-max"] = true },
		func(f *cliFlags) { f.objectives = "power"; f.workers = 1; f.explicit["workers"] = true },
		func(f *cliFlags) { f.timing = "edf" },
		func(f *cliFlags) { f.timing = "hyperbolic" },
		func(f *cliFlags) {
			f.prof.CPUProfile = "cpu.out"
			f.prof.MemProfile = "mem.out"
			f.prof.Trace = "trace.out"
		},
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
		{func(f *cliFlags) { f.workers = -1 }, "-workers"},
		{func(f *cliFlags) { f.iters = 0 }, "-iters"},
		{func(f *cliFlags) { f.iters = -3 }, "-iters"},
		{func(f *cliFlags) { f.explicit["iters"] = true }, "-iters only applies"},
		{func(f *cliFlags) { f.explicit["seed"] = true }, "-seed only applies"},
		{func(f *cliFlags) { f.algo = "ea"; f.workers = 4; f.explicit["workers"] = true }, "-workers only applies"},
		{func(f *cliFlags) { f.checkpointEvery = 0 }, "-checkpoint-every"},
		{func(f *cliFlags) { f.explicit["checkpoint-every"] = true }, "-checkpoint-every requires -checkpoint"},
		{func(f *cliFlags) { f.timeout = -1 }, "-timeout"},
		{func(f *cliFlags) { f.resume = true }, "-resume requires"},
		{func(f *cliFlags) { f.algo = "random"; f.checkpoint = "ck.json" }, "cost-ordered"},
		{func(f *cliFlags) { f.algo = "ea"; f.checkpoint = "ck.json" }, "cost-ordered"},
		{func(f *cliFlags) { f.checkpoint = "ck.json"; f.objectives = "latency" }, "not supported"},
		{func(f *cliFlags) { f.checkpoint = "ck.json"; f.upgradeFrom = "CPU1" }, "not supported"},
		{func(f *cliFlags) { f.objectives = "power"; f.upgradeFrom = "uP2" }, "mutually exclusive"},
		{func(f *cliFlags) { f.algo = "ea"; f.upgradeFrom = "uP2" }, "only apply to -algo explore"},
		{func(f *cliFlags) { f.algo = "exhaustive"; f.objectives = "power" }, "only apply to -algo explore"},
		{func(f *cliFlags) { f.upgradeFrom = "uP2"; f.asJSON = true }, "do not apply"},
		{func(f *cliFlags) { f.upgradeFrom = "uP2"; f.tsv = true }, "do not apply"},
		{func(f *cliFlags) { f.upgradeFrom = "uP2"; f.stats = true }, "do not apply"},
		{func(f *cliFlags) { f.objectives = "power"; f.asJSON = true }, "do not apply"},
		{func(f *cliFlags) { f.objectives = "power"; f.tsv = true }, "do not apply"},
		{func(f *cliFlags) { f.objectives = "power"; f.stats = true }, "do not apply"},
		{func(f *cliFlags) { f.objectives = "power"; f.workers = 2; f.explicit["workers"] = true }, "-workers does not apply"},
		{func(f *cliFlags) { f.upgradeFrom = "uP2"; f.workers = 2; f.explicit["workers"] = true }, "-workers does not apply"},
		{func(f *cliFlags) { f.algo = "exhaustive"; f.explicit["stop-at-max"] = true }, "-stop-at-max only applies"},
		{func(f *cliFlags) { f.algo = "random"; f.explicit["stop-at-max"] = true }, "-stop-at-max only applies"},
		{func(f *cliFlags) { f.algo = "ea"; f.explicit["stop-at-max"] = true }, "-stop-at-max only applies"},
		{func(f *cliFlags) { f.objectives = "power"; f.explicit["stop-at-max"] = true }, "-stop-at-max only applies"},
		{func(f *cliFlags) { f.timing = "bogus" }, "-timing"},
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
	f.workers = -2
	f.iters = 0
	f.timeout = -1
	if probs := f.problems(); len(probs) < 3 {
		t.Errorf("want >= 3 problems, got %v", probs)
	}
}

func TestLoadSpecModels(t *testing.T) {
	for _, m := range []string{"settop", "decoder", "synthetic"} {
		s, err := loadSpec("", m, 1)
		if err != nil {
			t.Errorf("loadSpec(%s): %v", m, err)
			continue
		}
		if err := s.Validate(); err != nil {
			t.Errorf("model %s invalid: %v", m, err)
		}
	}
}

func TestLoadSpecErrors(t *testing.T) {
	if _, err := loadSpec("", "", 0); err == nil {
		t.Error("no source should error")
	}
	if _, err := loadSpec("x.json", "settop", 0); err == nil {
		t.Error("both sources should error")
	}
	if _, err := loadSpec("", "nope", 0); err == nil {
		t.Error("unknown model should error")
	}
	if _, err := loadSpec("/nonexistent.json", "", 0); err == nil {
		t.Error("missing file should error")
	}
}

// TestUpgradeFromRefusesUnknownUnit: an -upgrade-from ID that is not an
// allocatable unit of the spec is refused, naming the ID, instead of
// giving an empty upgrade space; run prints the error and exits 2.
func TestUpgradeFromRefusesUnknownUnit(t *testing.T) {
	s := models.SetTopBox()
	base, err := upgradeBase(s, "uP2, dU2")
	if err != nil || len(base) != 2 || !base["uP2"] || !base["dU2"] {
		t.Fatalf("upgradeBase(uP2, dU2) = %v, %v", base, err)
	}
	for _, ids := range []string{"uPX", "uP2,uPX"} {
		if _, err := upgradeBase(s, ids); err == nil || !strings.Contains(err.Error(), `"uPX"`) {
			t.Errorf("upgradeBase(%s) = %v, want an error naming uPX", ids, err)
		}
	}
}

// TestLoadSpecFromJSONFile loads the shipped case-study model from disk
// and checks that exploring it reproduces the published front.
func TestLoadSpecFromJSONFile(t *testing.T) {
	s, err := loadSpec("../../testdata/settop.json", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	r := core.Explore(s, core.Options{})
	want := [][2]float64{{100, 2}, {120, 3}, {230, 4}, {290, 5}, {360, 7}, {430, 8}}
	if len(r.Front) != len(want) {
		t.Fatalf("front size = %d, want %d", len(r.Front), len(want))
	}
	for i, w := range want {
		if r.Front[i].Cost != w[0] || r.Front[i].Flexibility != w[1] {
			t.Errorf("row %d = (%v,%v), want (%v,%v)",
				i, r.Front[i].Cost, r.Front[i].Flexibility, w[0], w[1])
		}
	}
}
