package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"contribmax/internal/analysis"
	"contribmax/internal/ast"
	"contribmax/internal/db"
	"contribmax/internal/engine"
	"contribmax/internal/im"
	"contribmax/internal/magic"
	"contribmax/internal/planner"
	"contribmax/internal/provenance"
	"contribmax/internal/wdgraph"
)

// The traced replays re-run a solve through the public calls of each
// layer, in the order and with the random draws the solver uses, so that
// their seeds and gains equal the solver's byte for byte. Each call gets a
// span named "<module>.<call>"; spans named without a module (the phase
// groupings and the replay's own bookkeeping) count as unattributed.

// layerModules are the modules whose spans count as layer time.
var layerModules = []string{"parser", "db", "analysis", "magic", "planner", "engine", "wdgraph", "im", "provenance", "cm", "solvecache", "server"}

func isLayer(name string) bool {
	for _, m := range layerModules {
		if strings.HasPrefix(name, m+".") {
			return true
		}
	}
	return false
}

// fact identifies a ground fact by predicate and interned tuple.
type fact struct {
	pred  string
	tuple db.Tuple
}

func (f fact) key() string { return f.pred + "\x00" + f.tuple.Key() }

// instance is the replay's resolution of a solve input, mirroring the
// solver's: T1 is every edb fact in relation and insertion order, T2 the
// targets deduplicated in input order.
type instance struct {
	prog       *ast.Program
	db         *db.Database
	candidates []fact
	candOf     map[string]int32
	targets    []fact
	targetAtom []ast.Atom
}

func resolve(prog *ast.Program, d *db.Database, t2 []ast.Atom) (*instance, error) {
	inst := &instance{prog: prog, db: d, candOf: map[string]int32{}}
	for _, r := range prog.Rules {
		for _, a := range append([]ast.Atom{r.Head}, r.Body...) {
			for _, t := range a.Terms {
				if t.IsConst() {
					d.Symbols().Intern(t.Name)
				}
			}
		}
	}
	edb := map[string]bool{}
	for _, p := range prog.EDBs() {
		edb[p] = true
	}
	for _, name := range d.RelationNames() {
		if !edb[name] {
			continue
		}
		rel, _ := d.Lookup(name)
		for i := 0; i < rel.Len(); i++ {
			f := fact{pred: name, tuple: rel.Tuple(db.TupleID(i))}
			if _, dup := inst.candOf[f.key()]; !dup {
				inst.candOf[f.key()] = int32(len(inst.candidates))
				inst.candidates = append(inst.candidates, f)
			}
		}
	}
	seen := map[string]bool{}
	for _, a := range t2 {
		tup, err := d.InternAtom(a)
		if err != nil {
			return nil, err
		}
		f := fact{pred: a.Predicate, tuple: tup}
		if seen[f.key()] {
			continue
		}
		seen[f.key()] = true
		inst.targets = append(inst.targets, f)
		inst.targetAtom = append(inst.targetAtom, a)
	}
	return inst, nil
}

func (inst *instance) atom(f fact) string {
	syms := inst.db.Symbols()
	terms := make([]ast.Term, len(f.tuple))
	for i, s := range f.tuple {
		terms[i] = ast.C(syms.Name(s))
	}
	return ast.Atom{Predicate: f.pred, Terms: terms}.String()
}

// scratchDB is the solver's evaluation database: a fresh schema sharing
// the symbol table and the program's edb relations.
func scratchDB(prog *ast.Program, d *db.Database) *db.Database {
	scratch := d.CloneSchema()
	for _, pred := range prog.EDBs() {
		if rel, ok := d.Lookup(pred); ok {
			scratch.Attach(rel)
		}
	}
	return scratch
}

// replayOut is what one traced replay returns besides its spans.
type replayOut struct {
	root   int
	seeds  []string
	gains  []int
	counts map[string]float64 // per-layer counts of this replay
}

// frontEnd replays parse, load, analysis and the solver's input
// resolution under root.
func frontEnd(t *tracer, root int, in *inputs) (*instance, error) {
	var prog *ast.Program
	var facts, targets []ast.Atom
	if err := t.timed("parser.parse", root, 0, func() (err error) {
		prog, facts, targets, err = parseAll(in)
		return err
	}); err != nil {
		return nil, err
	}
	var d *db.Database
	if err := t.timed("db.load", root, 0, func() (err error) {
		d, err = loadFacts(facts)
		return err
	}); err != nil {
		return nil, err
	}
	if err := t.timed("analysis.analyze", root, 0, func() error {
		return analysis.FirstError(analysis.Analyze(prog, analysisOptions(d, targets)))
	}); err != nil {
		return nil, err
	}
	var inst *instance
	err := t.timed("prepare", root, 0, func() (err error) {
		inst, err = resolve(prog, d, targets)
		return err
	})
	return inst, err
}

// buildStats accumulates fixpoint and graph counts over builds.
type buildStats struct {
	builds, nodes, rounds int64
	inst, newFacts        int64
	graphBytes            int64
}

func (b *buildStats) add(o buildStats) {
	b.builds += o.builds
	b.nodes += o.nodes
	b.rounds += o.rounds
	b.inst += o.inst
	b.newFacts += o.newFacts
	b.graphBytes += o.graphBytes
}

// build replays one WD-graph construction of prog over a scratch database:
// the builder (with EDB preload for full graphs), engine compilation
// through the shared planner, the fixpoint with the builder's listener
// timed separately, and the builder's finalize.
func build(t *tracer, parent, lane int, prog *ast.Program, d *db.Database, proj *wdgraph.Projection,
	preload bool, pl *planner.Planner, par int) (*wdgraph.Graph, buildStats, error) {

	var scratch *db.Database
	t.timed("db.scratch", parent, lane, func() error {
		scratch = scratchDB(prog, d)
		return nil
	})
	var b *wdgraph.Builder
	t.timed("wdgraph.builder", parent, lane, func() error {
		if proj == nil {
			proj = wdgraph.IdentityProjection(prog)
		}
		if !preload {
			b = wdgraph.NewBuilder(proj)
			return nil
		}
		hint := 0
		for _, pred := range prog.EDBs() {
			if rel, ok := scratch.Lookup(pred); ok {
				hint += rel.Len()
			}
		}
		b = wdgraph.NewBuilderSized(proj, hint, 0)
		b.PreloadEDB(prog, scratch)
		return nil
	})
	var eng *engine.Engine
	if err := t.timed("planner.compile", parent, lane, func() (err error) {
		eng, err = engine.NewPlanned(prog, scratch, pl)
		return err
	}); err != nil {
		return nil, buildStats{}, err
	}
	lis := b.Listener()
	var lisNs time.Duration
	var lisCalls int64
	// The engine delivers every derivation from the calling goroutine, so
	// the listener's counters need no synchronization.
	timedLis := func(dv engine.Derivation) {
		t0 := time.Now()
		lis(dv)
		lisNs += time.Since(t0)
		lisCalls++
	}
	fix := t.begin("engine.fixpoint", parent, lane)
	st, err := eng.Run(engine.Options{Listener: timedLis, Parallelism: par})
	t.end(fix)
	t.aggregate("wdgraph.listener", fix, 0, lisNs, lisCalls)
	if err != nil {
		return nil, buildStats{}, err
	}
	var g *wdgraph.Graph
	t.timed("wdgraph.finalize", parent, lane, func() error {
		g = b.Graph()
		return nil
	})
	return g, buildStats{builds: 1, nodes: int64(g.NumNodes()), rounds: int64(st.Rounds),
		inst: st.Instantiations, newFacts: st.NewFacts, graphBytes: g.MemoryBytes()}, nil
}

// slot is one pre-drawn RR set: target index and walk stream seed, drawn
// from the master stream in the solver's order.
type slot struct {
	ti           int
	seedA, seedB uint64
}

func drawSlots(rng *rand.Rand, theta, nTargets int) []slot {
	slots := make([]slot, theta)
	for i := range slots {
		slots[i] = slot{ti: rng.IntN(nTargets), seedA: rng.Uint64(), seedB: rng.Uint64()}
	}
	return slots
}

// rrPhase runs fn for every slot on `lanes` workers under a parallel span,
// whose id it passes to fn and returns, then assembles the RR collection
// in slot order (im.add).
func rrPhase(t *tracer, parent, lanes int, nCand int, slots []slot,
	fn func(phase, lane int, s slot, arena []im.CandidateID) ([]im.CandidateID, error)) (*im.RRCollection, int, error) {

	phase := t.begin("rrgen", parent, 0)
	t.setLanes(phase, lanes)
	type seg struct {
		lane   int
		lo, hi int
	}
	segs := make([]seg, len(slots))
	arenas := make([][]im.CandidateID, lanes)
	errs := make([]error, lanes)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < lanes; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var arena []im.CandidateID
			for {
				i := int(next.Add(1)) - 1
				if i >= len(slots) {
					break
				}
				lo := len(arena)
				out, err := fn(phase, w, slots[i], arena)
				if err != nil {
					errs[w] = err
					break
				}
				arena = out
				segs[i] = seg{lane: w, lo: lo, hi: len(arena)}
			}
			arenas[w] = arena
		}(w)
	}
	wg.Wait()
	t.end(phase)
	for _, err := range errs {
		if err != nil {
			return nil, phase, err
		}
	}
	var coll *im.RRCollection
	t.timed("im.add", parent, 0, func() error {
		total := 0
		for _, s := range segs {
			total += s.hi - s.lo
		}
		coll = im.NewRRCollection(nCand)
		coll.Reserve(len(segs), int64(total))
		for _, s := range segs {
			coll.Add(arenas[s.lane][s.lo:s.hi])
		}
		return nil
	})
	return coll, phase, nil
}

// selectSeeds finalizes the collection's index and runs greedy selection.
func selectSeeds(t *tracer, parent int, coll *im.RRCollection, k int) im.GreedyResult {
	t.timed("im.finalize", parent, 0, func() error { coll.Finalize(); return nil })
	var gr im.GreedyResult
	t.timed("im.select", parent, 0, func() error { gr = im.Greedy(coll, k); return nil })
	return gr
}

func (o *replayOut) setSelection(inst *instance, coll *im.RRCollection, gr im.GreedyResult) {
	for _, s := range gr.Seeds {
		o.seeds = append(o.seeds, inst.atom(inst.candidates[s]))
	}
	o.gains = gr.Gains
	o.counts["im.rr_sets"] = float64(coll.Len())
	o.counts["im.arena_mb"] = float64(coll.ArenaBytes()) / (1 << 20)
	if coll.Len() > 0 {
		o.counts["im.covered_frac"] = float64(gr.Covered) / float64(coll.Len())
	}
	o.counts["wdgraph.walk_members"] = float64(coll.TotalMembers())
}

func (o *replayOut) setBuilds(bs buildStats) {
	o.counts["wdgraph.builds"] = float64(bs.builds)
	o.counts["engine.rounds"] = float64(bs.rounds)
	o.counts["engine.instantiations"] = float64(bs.inst)
	if bs.inst > 0 {
		o.counts["engine.new_per_inst"] = float64(bs.newFacts) / float64(bs.inst)
	}
	if bs.builds > 0 {
		o.counts["wdgraph.nodes_per_build"] = float64(bs.nodes) / float64(bs.builds)
		o.counts["wdgraph.graph_mb"] = float64(bs.graphBytes) / float64(bs.builds) / (1 << 20)
	}
}

func (o *replayOut) setPlanner(pl *planner.Planner) {
	st := pl.Stats()
	o.counts["planner.plans_built"] = float64(st.Built)
	o.counts["planner.cache_hits"] = float64(st.Hits)
}

// replayNaive replays NaiveCM: the full preloaded WD graph, θ reverse
// walks from pre-seeded slots on two lanes, assembly, greedy selection.
func replayNaive(t *tracer, in *inputs, spec batchSpec, seed uint64) (*replayOut, error) {
	out := &replayOut{counts: map[string]float64{}}
	out.root = t.begin("solve", -1, 0)
	defer t.end(out.root)
	inst, err := frontEnd(t, out.root, in)
	if err != nil {
		return nil, err
	}
	opts := spec.options(seed, in.nTargets, parallelism)
	pl := planner.New(nil)
	g, bs, err := build(t, out.root, 0, inst.prog, inst.db, nil, true, pl, parallelism)
	if err != nil {
		return nil, err
	}
	out.setBuilds(bs)
	out.setPlanner(pl)

	var candOfNode []int32
	var targetIDs []wdgraph.NodeID
	var targetOK []bool
	var slots []slot
	t.timed("index", out.root, 0, func() error {
		candOfNode = make([]int32, g.NumNodes())
		for i := range candOfNode {
			candOfNode[i] = -1
		}
		for ci, c := range inst.candidates {
			if id, ok := g.FactID(c.pred, c.tuple); ok {
				candOfNode[id] = int32(ci)
			}
		}
		targetIDs = make([]wdgraph.NodeID, len(inst.targets))
		targetOK = make([]bool, len(inst.targets))
		for i, f := range inst.targets {
			targetIDs[i], targetOK[i] = g.FactID(f.pred, f.tuple)
		}
		theta := opts.Theta.Theta(len(inst.candidates), len(inst.targets), spec.k)
		slots = drawSlots(opts.Rand, theta, len(inst.targets))
		return nil
	})

	walkers := make([]*wdgraph.Walker, parallelism)
	walkNs := make([]time.Duration, parallelism)
	walks := make([]int64, parallelism)
	coll, phase, err := rrPhase(t, out.root, parallelism, len(inst.candidates), slots,
		func(_, lane int, s slot, arena []im.CandidateID) ([]im.CandidateID, error) {
			if walkers[lane] == nil {
				walkers[lane] = wdgraph.NewWalker(g)
			}
			if !targetOK[s.ti] {
				return arena, nil
			}
			t0 := time.Now()
			walkers[lane].ReverseReachable(targetIDs[s.ti], rand.New(rand.NewPCG(s.seedA, s.seedB)), false, func(v wdgraph.NodeID) {
				if c := candOfNode[v]; c >= 0 {
					arena = append(arena, im.CandidateID(c))
				}
			})
			walkNs[lane] += time.Since(t0)
			walks[lane]++
			return arena, nil
		})
	if err != nil {
		return nil, err
	}
	for lane := range walkNs {
		t.aggregate("wdgraph.walk", phase, lane, walkNs[lane], walks[lane])
	}
	gr := selectSeeds(t, out.root, coll, spec.k)
	out.setSelection(inst, coll, gr)
	return out, nil
}

// replayMagic replays MagicCM: per pre-seeded slot, the target's
// Magic-Sets transform (once per target), a scratch database, engine
// compilation through the shared planner, the fixpoint, the subgraph's
// finalize and one reverse walk; then assembly and greedy selection.
func replayMagic(t *tracer, in *inputs, spec batchSpec, seed uint64) (*replayOut, error) {
	out := &replayOut{counts: map[string]float64{}}
	out.root = t.begin("solve", -1, 0)
	defer t.end(out.root)
	inst, err := frontEnd(t, out.root, in)
	if err != nil {
		return nil, err
	}
	opts := spec.options(seed, in.nTargets, parallelism)
	var slots []slot
	t.timed("index", out.root, 0, func() error {
		theta := opts.Theta.Theta(len(inst.candidates), len(inst.targets), spec.k)
		slots = drawSlots(opts.Rand, theta, len(inst.targets))
		return nil
	})
	pl := planner.New(nil)
	var trMu sync.Mutex
	transforms := make([]*magic.Transformed, len(inst.targets))
	laneStats := make([]buildStats, parallelism)
	walkers := make([]*wdgraph.Walker, parallelism)
	keyBufs := make([][]byte, parallelism)

	coll, _, err := rrPhase(t, out.root, parallelism, len(inst.candidates), slots,
		func(phase, lane int, s slot, arena []im.CandidateID) ([]im.CandidateID, error) {
			sp := t.begin("slot", phase, lane)
			defer t.end(sp)
			trMu.Lock()
			tr := transforms[s.ti]
			var err error
			if tr == nil {
				err = t.timed("magic.transform", sp, lane, func() (err error) {
					tr, err = magic.TransformWith(inst.prog, []ast.Atom{inst.targetAtom[s.ti]}, analysis.LeftToRight)
					return err
				})
				transforms[s.ti] = tr
			}
			trMu.Unlock()
			if err != nil {
				return nil, err
			}
			g, bs, err := build(t, sp, lane, tr.Program, inst.db, tr.Projection(), false, pl, 0)
			if err != nil {
				return nil, err
			}
			laneStats[lane].add(bs)
			target := inst.targets[s.ti]
			root, ok := g.FactID(target.pred, target.tuple)
			if !ok {
				return arena, nil
			}
			t.timed("wdgraph.walk", sp, lane, func() error {
				if walkers[lane] == nil {
					walkers[lane] = wdgraph.NewWalker(nil)
				}
				w := walkers[lane]
				w.Reset(g)
				w.ReverseReachable(root, rand.New(rand.NewPCG(s.seedA, s.seedB)), false, func(v wdgraph.NodeID) {
					n := g.Node(v)
					if n.Kind != wdgraph.FactNode || !n.EDB {
						return
					}
					buf := append(keyBufs[lane][:0], n.Pred...)
					buf = append(buf, 0)
					buf = append(buf, n.Tuple.Key()...)
					keyBufs[lane] = buf
					if c, ok := inst.candOf[string(buf)]; ok {
						arena = append(arena, im.CandidateID(c))
					}
				})
				return nil
			})
			return arena, nil
		})
	if err != nil {
		return nil, err
	}
	var bs buildStats
	for _, s := range laneStats {
		bs.add(s)
	}
	out.setBuilds(bs)
	out.setPlanner(pl)
	distinct := 0
	for _, tr := range transforms {
		if tr != nil {
			distinct++
		}
	}
	out.counts["magic.transforms"] = float64(distinct)
	if distinct > 0 {
		out.counts["cm.builds_per_target"] = float64(bs.builds) / float64(distinct)
	}
	gr := selectSeeds(t, out.root, coll, spec.k)
	out.setSelection(inst, coll, gr)
	return out, nil
}

// replayExact replays ExactCM up to selection: the hierarchy gate, the
// full preloaded WD graph and one reachability lineage per derivable
// target. The lifted greedy selection is internal to cm, so the caller
// appends the reference solve's measured select time as a span.
func replayExact(t *tracer, in *inputs, spec batchSpec) (*replayOut, error) {
	out := &replayOut{counts: map[string]float64{}}
	out.root = t.begin("solve", -1, 0)
	defer t.end(out.root)
	inst, err := frontEnd(t, out.root, in)
	if err != nil {
		return nil, err
	}
	if err := t.timed("analysis.hierarchy", out.root, 0, func() error {
		var roots []string
		seen := map[string]bool{}
		for _, f := range inst.targets {
			if !seen[f.pred] {
				seen[f.pred] = true
				roots = append(roots, f.pred)
			}
		}
		for _, h := range analysis.AnalyzeHierarchy(inst.prog, analysis.NewDepGraph(inst.prog), roots, nil) {
			if !h.Hierarchical {
				return fmt.Errorf("exact: cone of %s is not hierarchical: %s", h.Root, h.Reason)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	pl := planner.New(nil)
	g, bs, err := build(t, out.root, 0, inst.prog, inst.db, nil, true, pl, parallelism)
	if err != nil {
		return nil, err
	}
	out.setBuilds(bs)
	out.setPlanner(pl)
	var targets, clauses int
	err = t.timed("provenance.lineage", out.root, 0, func() error {
		for _, f := range inst.targets {
			id, ok := g.FactID(f.pred, f.tuple)
			if !ok {
				continue
			}
			lin, err := provenance.ReachabilityLineage(g, id, provenance.DNFBudget{})
			if err != nil {
				return err
			}
			targets++
			clauses += lin.NumClauses
		}
		return nil
	})
	out.counts["provenance.targets"] = float64(targets)
	out.counts["provenance.clauses"] = float64(clauses)
	return out, err
}
