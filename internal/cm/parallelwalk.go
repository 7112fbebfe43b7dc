package cm

import (
	"context"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"contribmax/internal/im"
	"contribmax/internal/obs"
	"contribmax/internal/obs/journal"
	"contribmax/internal/wdgraph"
)

// rrSeg locates one RR set inside a worker's member arena: slot i was
// produced by worker `worker` and occupies arena[lo:hi]. The per-slot table
// lets the phases assemble the collection in slot order after the join,
// which is what keeps P=1 and P=N byte-identical.
type rrSeg struct {
	worker int32
	lo, hi int64
}

// assembleCollection builds the RR collection from the per-worker arenas in
// slot order, pre-sized so the copies are the only work.
func assembleCollection(numCandidates int, segs []rrSeg, arenas [][]im.CandidateID) *im.RRCollection {
	var total int64
	for _, s := range segs {
		total += s.hi - s.lo
	}
	coll := im.NewRRCollection(numCandidates)
	coll.Reserve(len(segs), total)
	for _, s := range segs {
		coll.Add(arenas[s.worker][s.lo:s.hi])
	}
	return coll
}

// observeArena records the post-phase memory figures: the resident size of
// the assembled RR arena and how often worker scratch (walker marks) had to
// regrow — zero in steady state.
func observeArena(reg *obs.Registry, coll *im.RRCollection, scratchGrows int64) {
	if reg == nil || coll == nil {
		return
	}
	reg.Gauge(obs.RRBytesArena).Set(coll.ArenaBytes())
	reg.Counter(obs.RRScratchGrows).Add(scratchGrows)
}

// parallelWalkPhase is the shared-graph analogue of parallelRRPhase, used
// by NaiveCM and Magic^G CM: θ independent reverse sampled walks over one
// immutable graph, each worker with its own Walker (the graph itself is
// safe for concurrent reads once built). Walk slots are pre-seeded from the
// master rng, so results are deterministic regardless of scheduling or
// worker count — Parallelism 1 and Parallelism N produce byte-identical
// collections.
// Each worker appends walk members to a private growing arena and records
// per-slot offsets; the collection is assembled in slot order after the
// join, so a steady-state walk allocates nothing (arena growth is
// amortized, walker marks are epoch-reused).
// roots, when non-nil, fixes the walk roots (Magic^G CM pre-draws them so
// the grouped transformation covers exactly the sampled tuples); nil draws
// them here.
// Workers re-check ctx before every slot; on cancellation the phase returns
// ctx's error without assembling a collection.
func parallelWalkPhase(ctx context.Context, inst *instance, opts Options, res *Result, rng *rand.Rand,
	g *wdgraph.Graph, targetIDs []wdgraph.NodeID, targetOK []bool, candOfNode []int32, roots []int) error {

	rrStart := time.Now()
	theta := inst.theta(opts)
	slots := make([]rrSlot, theta)
	for i := range slots {
		ti := 0
		if roots != nil {
			ti = roots[i%len(roots)]
		} else {
			ti = drawTarget(rng, len(inst.targets))
		}
		slots[i] = rrSlot{
			ti:    ti,
			seedA: rng.Uint64(),
			seedB: rng.Uint64(),
		}
	}
	segs := make([]rrSeg, theta)
	ro := newRRObs(opts.Obs)
	workers := opts.Parallelism
	if workers < 1 {
		workers = 1
	}
	arenas := make([][]im.CandidateID, workers)
	grows := make([]int64, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			walker := wdgraph.NewWalker(g)
			rec := journal.NewBatchRecorder(opts.Journal, w)
			defer rec.Flush()
			var arena []im.CandidateID
			defer func() {
				arenas[w] = arena
				grows[w] = walker.Grows()
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= theta || ctx.Err() != nil {
					return
				}
				s := slots[i]
				lo := len(arena)
				var t0 time.Time
				if opts.Profile != nil {
					t0 = time.Now()
				}
				if targetOK[s.ti] {
					r := rand.New(rand.NewPCG(s.seedA, s.seedB))
					walker.ReverseReachable(targetIDs[s.ti], r, false, func(v wdgraph.NodeID) {
						if c := candOfNode[v]; c >= 0 {
							arena = append(arena, im.CandidateID(c))
						}
					})
				}
				if opts.Profile != nil {
					// Atomic per-target adds: walk counts and members are a
					// fixed function of the pre-seeded slots, so they are
					// byte-identical at every worker count; only the times
					// vary.
					opts.Profile.RecordWalk(s.ti, len(arena)-lo, int64(time.Since(t0)))
				}
				segs[i] = rrSeg{worker: int32(w), lo: int64(lo), hi: int64(len(arena))}
				ro.observe(len(arena) - lo)
				rec.Observe(len(arena) - lo)
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		res.Stats.RRGenTime += time.Since(rrStart)
		return err
	}
	coll := assembleCollection(len(inst.candidates), segs, arenas)
	res.rrColl = coll
	res.Stats.NumRR = theta
	res.Stats.RRGenTime += time.Since(rrStart)
	var totalGrows int64
	for _, n := range grows {
		totalGrows += n
	}
	observeArena(opts.Obs, coll, totalGrows)
	return nil
}
