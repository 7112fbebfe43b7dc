package cm

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"contribmax/internal/ast"
	"contribmax/internal/db"
	"contribmax/internal/engine"
	"contribmax/internal/im"
	"contribmax/internal/magic"
	"contribmax/internal/obs"
	"contribmax/internal/obs/journal"
	"contribmax/internal/planner"
	"contribmax/internal/prof"
	"contribmax/internal/wdgraph"
)

// MagicCM is NaiveCM with the on-the-fly subgraph construction of Section
// IV-B1 (Algorithm 3): no full WD graph is ever materialized. For each
// sampled target tuple t, the Magic-Sets-transformed program (P^m_t, w^m_t)
// is evaluated over D, yielding (Proposition 4.4) exactly the subgraph of
// the WD graph backward-reachable from t; the RR set is then sampled from
// that subgraph and the subgraph is discarded.
func MagicCM(in Input, opts Options) (*Result, error) {
	res, err := solveVia(in, opts, "MagicCM", func(in Input, opts Options) (*Result, error) {
		return magicVariant(in, opts, "MagicCM", false)
	})
	return observeSolve(opts, res, err)
}

// MagicSampledCM is the paper's Magic^S CM (written Magic³CM in places):
// MagicCM with the RR sampling folded into the subgraph construction
// (Section IV-B2). Every origin-rule instantiation is drawn to fire with
// probability w(r) *during* evaluation — one draw per origin instantiation,
// shared by all of its Magic-Sets modified rules — so only the fired part
// of the subgraph is ever materialized, and the subsequent RR extraction is
// a deterministic reverse reachability.
func MagicSampledCM(in Input, opts Options) (*Result, error) {
	res, err := solveVia(in, opts, "MagicSCM", func(in Input, opts Options) (*Result, error) {
		return magicVariant(in, opts, "MagicSCM", true)
	})
	return observeSolve(opts, res, err)
}

func magicVariant(in Input, opts Options, name string, sampled bool) (*Result, error) {
	sp := opts.Trace.StartChild(name)
	defer sp.End()
	prep := sp.StartChild("prepare")
	inst, err := prepare(in, opts)
	prep.End()
	if err != nil {
		return nil, err
	}
	ctx := opts.ctx()
	rng := opts.rng()
	start := time.Now()
	res := &Result{Algorithm: name, pl: opts.solvePlanner()}
	res.Stats.RulesTotal, res.Stats.RulesPruned = inst.rulesTotal, inst.rulesPruned
	journalSolveStart(opts, inst, name)
	opts.Profile.EnsureTargets(len(inst.targets))

	// The transformed program for a target depends only on the target, so
	// it is computed once per distinct target and reused across RR sets.
	// The cache is lock-guarded for the parallel path.
	var trMu sync.Mutex
	transforms := make([]*magic.Transformed, len(inst.targets))
	transformFor := func(ti int) (*magic.Transformed, error) {
		trMu.Lock()
		defer trMu.Unlock()
		if transforms[ti] == nil {
			tr, err := magic.TransformWith(inst.prog, []ast.Atom{inst.atomOf(inst.targets[ti])}, opts.SIPS)
			if err != nil {
				return nil, err
			}
			transforms[ti] = tr
		}
		return transforms[ti], nil
	}

	// build evaluates target ti's transformed program into its subgraph,
	// recording the build into st; r seeds Magic^S's gate and is unused
	// (nil) otherwise. Engine parallelism stays off for per-tuple
	// subgraphs: the RR phase already runs one worker per Parallelism
	// slot, and the subgraphs are small — nesting worker pools would
	// oversubscribe.
	build := func(ti int, r *rand.Rand, st *Stats) (*wdgraph.Graph, error) {
		tr, err := transformFor(ti)
		if err != nil {
			return nil, err
		}
		g, err := buildMagicGraph(in, tr, r, sampled, ctx, opts.Obs, nil, 0, res.pl, opts.Profile)
		if err != nil {
			return nil, err
		}
		// PeakResidentSize for the per-tuple variants is the largest single
		// subgraph: each one is discarded once its RR sets are drawn
		// (Section V-A).
		recordBuild(st, g)
		return g, nil
	}

	// target returns the draw for target ti's RR sets. Unsampled MagicCM
	// draws no randomness while building (Proposition 4.4: the subgraph is
	// a fixed function of the target), so the subgraph is built here once
	// and serves every RR set the caller draws with the returned rrFunc;
	// dropping that rrFunc drops the subgraph. Magic^S draws a fresh gate
	// per RR set, so its rrFunc builds per call. Per-target profile
	// attribution covers the whole target pipeline: the first walk is
	// charged with everything since this call, build included, and each
	// later walk with the time since its predecessor. RecordWalk is
	// atomic, so the parallel RR workers share the counters race-free.
	target := func(ti int, st *Stats) (rrFunc, error) {
		var t0 time.Time
		if opts.Profile != nil {
			t0 = time.Now()
		}
		var g *wdgraph.Graph
		if !sampled {
			var err error
			if g, err = build(ti, nil, st); err != nil {
				return nil, err
			}
		}
		return func(ti int, r *rand.Rand, st *Stats, sc *rrScratch, arena []im.CandidateID) ([]im.CandidateID, error) {
			if sampled {
				var err error
				if g, err = build(ti, r, st); err != nil {
					return nil, err
				}
			}
			out := collectRR(g, inst, inst.targets[ti], r, sampled, sc, arena)
			if opts.Profile != nil {
				opts.Profile.RecordWalk(ti, len(out)-len(arena), int64(time.Since(t0)))
				t0 = time.Now()
			}
			return out, nil
		}, nil
	}

	rrSpan := sp.StartChild("rrgen")
	if opts.Parallelism >= 1 && !opts.Adaptive {
		err = parallelRRPhase(ctx, inst, opts, res, rng, !sampled, target)
	} else {
		// The legacy stream interleaves target draws with walk draws, so
		// each RR set gets its own build here.
		sc := newRRScratch()
		var members []im.CandidateID
		var genErr error
		gen := func() []im.CandidateID {
			members = members[:0]
			if genErr != nil {
				return members
			}
			ti := drawTarget(rng, len(inst.targets))
			draw, err := target(ti, &res.Stats)
			var out []im.CandidateID
			if err == nil {
				out, err = draw(ti, rng, &res.Stats, sc, members)
			}
			if err != nil {
				genErr = err
				return members
			}
			members = out
			return out
		}
		err = runRRPhase(ctx, inst, opts, res, gen)
		if genErr != nil {
			err = genErr
		}
		observeArena(opts.Obs, res.rrColl, sc.walker.Grows())
	}
	rrSpan.SetAttr("rr", int64(res.Stats.NumRR))
	rrSpan.SetAttr("builds", int64(res.Stats.GraphBuilds))
	rrSpan.End()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	finishSelection(inst, opts, res, sp)
	res.Stats.TotalTime = time.Since(start)
	return res, nil
}

// rrFunc draws one RR set of target ti with rng r, appending its members
// to arena; st receives the accounting of any graph built for it, and sc
// is the calling worker's scratch.
type rrFunc func(ti int, r *rand.Rand, st *Stats, sc *rrScratch, arena []im.CandidateID) ([]im.CandidateID, error)

// rrTarget does target ti's shared per-target work, recording any graph it
// builds into st, and returns the rrFunc that draws ti's RR sets.
type rrTarget func(ti int, st *Stats) (rrFunc, error)

// parallelRRPhase distributes θ independent RR constructions over
// Options.Parallelism workers. Determinism: the target index and a
// dedicated PCG seed are pre-drawn for every RR slot from the master rng,
// so the resulting RR multiset does not depend on scheduling or worker
// count; per-worker stats are merged afterwards, and the collection is
// assembled from the per-worker member arenas in slot order.
//
// A worker takes one work item at a time, calls target once for it, and
// draws the item's slots with the returned rrFunc. With byTarget, an item
// is every slot of one target (targets in order of first draw), so
// per-target work such as MagicCM's subgraph build runs once per distinct
// target and each worker holds at most one target's state at a time;
// otherwise an item is a single slot. Workers re-check ctx before every
// slot and the phase returns ctx's error on cancellation.
func parallelRRPhase(ctx context.Context, inst *instance, opts Options, res *Result, rng *rand.Rand,
	byTarget bool, target rrTarget) error {

	rrStart := time.Now()
	theta := inst.theta(opts)
	slots := make([]rrSlot, theta)
	for i := range slots {
		slots[i] = rrSlot{
			ti:    drawTarget(rng, len(inst.targets)),
			seedA: rng.Uint64(),
			seedB: rng.Uint64(),
		}
	}
	items := workItems(slots, len(inst.targets), byTarget)
	segs := make([]rrSeg, theta)
	ro := newRRObs(opts.Obs)
	workers := opts.Parallelism
	if workers < 1 {
		workers = 1
	}
	arenas := make([][]im.CandidateID, workers)
	grows := make([]int64, workers)
	errs := make([]error, workers)
	stats := make([]Stats, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := newRRScratch()
			rec := journal.NewBatchRecorder(opts.Journal, w)
			defer rec.Flush()
			var arena []im.CandidateID
			defer func() {
				arenas[w] = arena
				grows[w] = sc.walker.Grows()
			}()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(items) || ctx.Err() != nil {
					return
				}
				ti := slots[items[j][0]].ti
				draw, err := target(ti, &stats[w])
				if err != nil {
					errs[w] = err
					return
				}
				for _, i := range items[j] {
					if ctx.Err() != nil {
						return
					}
					r := rand.New(rand.NewPCG(slots[i].seedA, slots[i].seedB))
					lo := len(arena)
					out, err := draw(ti, r, &stats[w], sc, arena)
					if err != nil {
						errs[w] = err
						return
					}
					arena = out
					segs[i] = rrSeg{worker: int32(w), lo: int64(lo), hi: int64(len(arena))}
					ro.observe(len(arena) - lo)
					rec.Observe(len(arena) - lo)
				}
			}
		}(w)
	}
	wg.Wait()
	for w := range stats {
		mergeStats(&res.Stats, &stats[w])
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
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

// rrSlot is one pre-drawn RR set: its target index and the PCG seeds of
// its walk.
type rrSlot struct {
	ti    int
	seedA uint64
	seedB uint64
}

// workItems partitions the slot indices into work items: with byTarget one
// item per distinct target, in order of the target's first draw, holding
// its slots in ascending order; otherwise one item per slot.
func workItems(slots []rrSlot, numTargets int, byTarget bool) [][]int {
	idx := make([]int, len(slots))
	item := make([]int, numTargets) // 1 + item index of each drawn target
	var items [][]int
	for i, s := range slots {
		idx[i] = i
		if j := item[s.ti] - 1; byTarget && j >= 0 {
			items[j] = append(items[j], i)
			continue
		}
		// Capacity 1, so a later append copies the item out of idx.
		items = append(items, idx[i:i+1:i+1])
		item[s.ti] = len(items)
	}
	return items
}

// mergeStats folds a worker's build accounting into dst.
func mergeStats(dst, src *Stats) {
	dst.GraphBuilds += src.GraphBuilds
	dst.TotalNodes += src.TotalNodes
	dst.TotalEdges += src.TotalEdges
	if src.MaxNodes > dst.MaxNodes {
		dst.MaxNodes = src.MaxNodes
	}
	if src.MaxEdges > dst.MaxEdges {
		dst.MaxEdges = src.MaxEdges
	}
	if src.PeakResidentSize > dst.PeakResidentSize {
		dst.PeakResidentSize = src.PeakResidentSize
	}
}

// buildMagicGraph evaluates the transformed program over a scratch database
// (sharing the original edb relations) and returns the projected WD
// subgraph. With sampled=true a fresh HashGate (seeded from rng) vetoes
// instantiations, so the returned graph is one random execution. ctx
// cancels the evaluation
// between fixpoint rounds; reg, when non-nil, receives per-subgraph
// wdgraph.* metrics (the gate construction needs the engine, so this cannot
// delegate to wdgraph.BuildWith). jr, when non-nil, receives graph.build
// and per-round engine.round events — only the grouped variant's one
// full union-graph build passes it (per-RR subgraph builds number in the
// thousands and are summarized by rr.batch events instead). pl, when
// non-nil, is the solve's shared plan cache: the transformed program is
// recompiled here for every subgraph build, and the cache turns each
// recompilation after the first into pure plan lookups per adorned rule
// family. pf, when non-nil, receives per-rule fixpoint accounting (keyed
// by source rule text, so the thousands of per-target engines of one solve
// merge into one adorned-rule-family ledger).
func buildMagicGraph(in Input, tr *magic.Transformed, rng *rand.Rand, sampled bool,
	ctx context.Context, reg *obs.Registry, jr *journal.Journal, par int, pl *planner.Planner, pf *prof.Profile) (*wdgraph.Graph, error) {
	start := time.Now()
	scratch := in.DB.CloneSchema()
	for _, pred := range in.Program.EDBs() {
		if rel, ok := in.DB.Lookup(pred); ok {
			scratch.Attach(rel)
		}
	}
	var eng *engine.Engine
	var err error
	if pl != nil {
		eng, err = engine.NewPlanned(tr.Program, scratch, pl)
	} else {
		eng, err = engine.New(tr.Program, scratch)
	}
	if err != nil {
		return nil, err
	}
	b := wdgraph.NewBuilder(tr.Projection())
	var gate engine.FireGate
	if sampled {
		gate = magic.NewHashGate(tr, eng, rng.Uint64())
	}
	if _, err := eng.Run(engine.Options{Listener: b.Listener(), Gate: gate, Context: ctx, Obs: reg, Parallelism: par, Journal: jr, Prof: pf}); err != nil {
		return nil, err
	}
	g := b.Graph()
	if reg != nil {
		reg.Counter(obs.GraphBuilds).Inc()
		reg.Counter(obs.GraphNodes).Add(int64(g.NumNodes()))
		reg.Counter(obs.GraphEdges).Add(int64(g.NumEdges()))
		reg.Histogram(obs.GraphBuildNs).ObserveSince(start)
	}
	jr.GraphBuild(g.NumNodes(), g.NumEdges(), time.Since(start))
	return g, nil
}

// rrScratch is the per-worker reusable state of the per-tuple Magic
// variants: one persistent walker re-targeted at each RR subgraph (marks
// reused across graphs via epochs) and a key buffer for alloc-free
// candidate lookups. Not safe for concurrent use.
type rrScratch struct {
	walker *wdgraph.Walker
	keyBuf []byte
	// world is DNFCM's per-worker possible-world buffer (unused by the
	// Magic variants).
	world []bool
}

func newRRScratch() *rrScratch { return &rrScratch{walker: wdgraph.NewWalker(nil)} }

// factKey builds the candOf lookup key (pred, NUL, big-endian tuple bytes —
// the same encoding as FactHandle.key) in the reusable buffer. The returned
// slice aliases the scratch and is valid until the next call; looking it up
// as inst.candOf[string(key)] compiles without materializing the string.
func (sc *rrScratch) factKey(pred string, t db.Tuple) []byte {
	buf := append(sc.keyBuf[:0], pred...)
	buf = append(buf, 0)
	for _, s := range t {
		buf = append(buf, byte(s>>24), byte(s>>16), byte(s>>8), byte(s))
	}
	sc.keyBuf = buf
	return buf
}

// collectRR extracts the RR set of target from g, appending the T1
// candidates from which target is reachable to members. For the unsampled
// variant the reverse walk draws each edge with its weight; for the sampled
// variant the graph itself is already one random execution, so the walk is
// deterministic.
func collectRR(g *wdgraph.Graph, inst *instance, target FactHandle, rng *rand.Rand, sampledGraph bool, sc *rrScratch, members []im.CandidateID) []im.CandidateID {
	root, ok := g.FactID(target.Pred, target.Tuple)
	if !ok {
		// Target not derived: empty RR set. This cannot happen for the
		// unsampled variant when the target is genuinely in P(D); for the
		// sampled variant it corresponds to an execution in which the
		// target was not derived.
		return members
	}
	sc.walker.Reset(g)
	sc.walker.ReverseReachable(root, rng, sampledGraph, func(v wdgraph.NodeID) {
		n := g.Node(v)
		if n.Kind != wdgraph.FactNode || !n.EDB {
			return
		}
		key := sc.factKey(n.Pred, n.Tuple)
		if c, ok := inst.candOf[string(key)]; ok {
			members = append(members, c)
		}
	})
	return members
}
