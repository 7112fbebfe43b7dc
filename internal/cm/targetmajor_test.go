package cm_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"contribmax/internal/ast"
	"contribmax/internal/cm"
	"contribmax/internal/im"
	"contribmax/internal/obs"
)

// TestTargetMajorBuildsOncePerTarget pins the target-major slot schedule
// of unsampled MagicCM: 500 RR sets over 3 targets build and compile each
// target's subgraph exactly once at every worker count, keep at most the
// largest single subgraph resident, and produce byte-identical results.
func TestTargetMajorBuildsOncePerTarget(t *testing.T) {
	in := cancelInstance(t)
	in.T2 = in.T2[:3]

	peak := 0
	for _, target := range in.T2 {
		one := in
		one.T2 = []ast.Atom{target}
		res, err := cm.MagicCM(one, cm.Options{
			Theta:       im.ThetaSpec{Explicit: 1},
			Rand:        rand.New(rand.NewPCG(1, 1)),
			Parallelism: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		peak = max(peak, res.Stats.PeakResidentSize)
	}

	var first *cm.Result
	for _, par := range []int{1, 2, 8} {
		reg := obs.NewRegistry()
		res, err := cm.MagicCM(in, cm.Options{
			Theta:       im.ThetaSpec{Explicit: 500},
			Rand:        rand.New(rand.NewPCG(9, 9)),
			Parallelism: par,
			Obs:         reg,
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if res.Stats.GraphBuilds != 3 {
			t.Errorf("parallelism %d: builds = %d, want 3", par, res.Stats.GraphBuilds)
		}
		if got := reg.Counter(obs.EngineRuns).Value(); got != 3 {
			t.Errorf("parallelism %d: engine.runs = %d, want 3", par, got)
		}
		if res.Stats.PeakResidentSize != peak {
			t.Errorf("parallelism %d: peak resident = %d, want largest subgraph %d", par, res.Stats.PeakResidentSize, peak)
		}
		if first == nil {
			first = res
			continue
		}
		if res.Stats.PlansBuilt != first.Stats.PlansBuilt || res.Stats.PlanCacheHits != first.Stats.PlanCacheHits {
			t.Errorf("parallelism %d: plans built/hits = %d/%d, want %d/%d", par,
				res.Stats.PlansBuilt, res.Stats.PlanCacheHits, first.Stats.PlansBuilt, first.Stats.PlanCacheHits)
		}
		if got, want := fmt.Sprint(seedsOf(res), res.SeedGains), fmt.Sprint(seedsOf(first), first.SeedGains); got != want {
			t.Errorf("parallelism %d: seeds/gains %s, want %s", par, got, want)
		}
	}
}

// TestCancelInsideTargetGroup: with a single target every RR set belongs
// to one work item, so only the per-slot context check inside the item's
// walk loop can stop the phase. Canceling once walks are under way must
// return ctx's error promptly with no result.
func TestCancelInsideTargetGroup(t *testing.T) {
	in := cancelInstance(t)
	in.T2 = in.T2[:1]
	reg := obs.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	canceled := make(chan time.Time, 1)
	go func() {
		for reg.Counter(obs.RRSets).Value() < 1000 {
			if ctx.Err() != nil {
				return
			}
			time.Sleep(time.Millisecond)
		}
		canceled <- time.Now()
		cancel()
	}()
	const theta = 500_000
	res, err := cm.MagicCM(in, cm.Options{
		Theta:       im.ThetaSpec{Explicit: theta},
		Rand:        rand.New(rand.NewPCG(5, 5)),
		Parallelism: 2,
		Obs:         reg,
		Context:     ctx,
	})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("err = %v, res = %v; want context.Canceled and no result", err, res)
	}
	at := <-canceled
	if d := time.Since(at); d > 2*time.Second {
		t.Errorf("solve returned %v after cancellation, want prompt return", d)
	}
	if n := reg.Counter(obs.RRSets).Value(); n >= theta {
		t.Errorf("all %d RR sets drawn despite cancellation", n)
	}
	if b := reg.Counter(obs.GraphBuilds).Value(); b != 1 {
		t.Errorf("graph builds = %d, want 1", b)
	}
}
