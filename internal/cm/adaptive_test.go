package cm_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"contribmax/internal/cm"
	"contribmax/internal/im"
	"contribmax/internal/workload"
)

// TestAdaptiveMode exercises the IMM-based sampling (Remark 2) end to end
// on all four algorithms: the RR-set count must be chosen by the driver
// (positive, capped), the selected seeds must solve the clear-cut instance,
// and the OPT lower bound must be recorded.
func TestAdaptiveMode(t *testing.T) {
	prog := workload.TCProgramDirected(1.0, 0.8)
	d := mustFactsDB(t, `
		edge(a, b). edge(b, c).
		edge(x, y). edge(y, z).
	`)
	in := cm.Input{
		Program: prog,
		DB:      d,
		T2:      atoms(t, "tc(a, c)", "tc(x, z)"),
		K:       2,
	}
	for _, al := range algos {
		t.Run(al.name, func(t *testing.T) {
			res, err := al.run(in, cm.Options{
				Adaptive: true,
				Theta:    im.ThetaSpec{Epsilon: 0.2, Delta: 0.05, MaxAuto: 3000},
				Rand:     rand.New(rand.NewPCG(9, 9)),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.NumRR <= 0 || res.Stats.NumRR > 3000 {
				t.Errorf("adaptive NumRR = %d", res.Stats.NumRR)
			}
			if res.Stats.AdaptiveLowerBound <= 0 {
				t.Errorf("lower bound = %g", res.Stats.AdaptiveLowerBound)
			}
			var chainA, chainX int
			for _, s := range seedsOf(res) {
				switch s {
				case "edge(a, b)", "edge(b, c)":
					chainA++
				case "edge(x, y)", "edge(y, z)":
					chainX++
				}
			}
			if chainA != 1 || chainX != 1 {
				t.Errorf("%s adaptive seeds %v do not split across chains", al.name, res.Seeds)
			}
			if len(res.SeedGains) != len(res.Seeds) {
				t.Errorf("SeedGains = %v for %d seeds", res.SeedGains, len(res.Seeds))
			}
		})
	}
}

// TestAdaptiveLowerBoundSane: on an instance where OPT is known (two
// deterministic one-hop targets, base probability 1), IMM's certified
// lower bound must not exceed the true optimum.
func TestAdaptiveLowerBoundSane(t *testing.T) {
	prog := workload.TCProgramDirected(1.0, 1.0)
	d := mustFactsDB(t, `edge(a, b). edge(x, y).`)
	in := cm.Input{Program: prog, DB: d, T2: atoms(t, "tc(a, b)", "tc(x, y)"), K: 2}
	res, err := cm.NaiveCM(in, cm.Options{
		Adaptive: true,
		Theta:    im.ThetaSpec{Epsilon: 0.3, MaxAuto: 2000},
		Rand:     rand.New(rand.NewPCG(4, 4)),
	})
	if err != nil {
		t.Fatal(err)
	}
	// OPT = 2 (both targets deterministically covered).
	if res.Stats.AdaptiveLowerBound > 2.0+1e-9 {
		t.Errorf("lower bound %g exceeds OPT=2", res.Stats.AdaptiveLowerBound)
	}
	if res.EstContribution < 1.9 {
		t.Errorf("estimate %g, want ~2", res.EstContribution)
	}
}

// TestParallelMatchesSequential verifies the parallel RR paths of all four
// algorithms: same seed must give an equivalent (deterministic) outcome
// and identical seed sets regardless of worker count.
func TestParallelMatchesSequential(t *testing.T) {
	prog := workload.TCProgram(1.0, 0.8)
	rng := rand.New(rand.NewPCG(31, 41))
	d := workload.RandomGraphM(12, 30, rng)
	derived := evalFacts(t, prog, d, "tc")
	if len(derived) < 6 {
		t.Skip("sparse instance")
	}
	in := cm.Input{Program: prog, DB: d, T2: derived[:6], K: 3}
	opt := func(par int) cm.Options {
		return cm.Options{
			Theta:       im.ThetaSpec{Explicit: 120},
			Rand:        rand.New(rand.NewPCG(5, 5)),
			Parallelism: par,
		}
	}
	for _, algo := range []struct {
		name string
		run  func(cm.Input, cm.Options) (*cm.Result, error)
	}{
		{"NaiveCM", cm.NaiveCM},
		{"MagicCM", cm.MagicCM},
		{"MagicSCM", cm.MagicSampledCM},
		{"MagicGCM", cm.MagicGroupedCM},
	} {
		par4a, err := algo.run(in, opt(4))
		if err != nil {
			t.Fatalf("%s: %v", algo.name, err)
		}
		par4b, err := algo.run(in, opt(4))
		if err != nil {
			t.Fatalf("%s: %v", algo.name, err)
		}
		par8, err := algo.run(in, opt(8))
		if err != nil {
			t.Fatalf("%s: %v", algo.name, err)
		}
		a, b, c := seedsOf(par4a), seedsOf(par4b), seedsOf(par8)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Errorf("%s: same seed, different results: %v vs %v", algo.name, a, b)
		}
		if fmt.Sprint(a) != fmt.Sprint(c) {
			t.Errorf("%s: worker count changed result: %v vs %v", algo.name, a, c)
		}
		switch algo.name {
		case "MagicCM":
			// Target-major schedule: one build per distinct drawn target,
			// at every worker count.
			want := distinctSlotTargets(rand.New(rand.NewPCG(5, 5)), 120, len(in.T2))
			if par4a.Stats.GraphBuilds != want || par8.Stats.GraphBuilds != want {
				t.Errorf("%s: builds = %d (P=4), %d (P=8), want %d distinct targets",
					algo.name, par4a.Stats.GraphBuilds, par8.Stats.GraphBuilds, want)
			}
		case "MagicSCM":
			// Magic^S draws a fresh gate per RR set: one build per slot.
			if par4a.Stats.GraphBuilds != 120 {
				t.Errorf("%s: builds = %d, want 120", algo.name, par4a.Stats.GraphBuilds)
			}
		}
	}
}

// distinctSlotTargets counts the distinct targets among the theta RR slots
// the pre-seeded slot phase draws from rng: per slot, a target index over
// n targets followed by the two PCG seeds of its walk.
func distinctSlotTargets(rng *rand.Rand, theta, n int) int {
	seen := map[int]bool{}
	for i := 0; i < theta; i++ {
		seen[rng.IntN(n)] = true
		rng.Uint64()
		rng.Uint64()
	}
	return len(seen)
}
