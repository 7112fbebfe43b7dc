package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"contribmax/internal/analysis"
	"contribmax/internal/ast"
	"contribmax/internal/cm"
	"contribmax/internal/db"
	"contribmax/internal/im"
	"contribmax/internal/parser"
)

// batchSpec sizes one batch workload.
type batchSpec struct {
	algo string // naive | magic | exact
	// gen generates instance i of the run's instance set.
	gen func(i uint64) (*inputs, error)
	// instances is the size of the instance set one operation solves.
	instances int
	k         int
	// thetaPerTarget, when positive, sets θ to that multiple of |T2|;
	// zero keeps the solver default (30% of |T2|).
	thetaPerTarget int
	// oracleSamples is the Monte-Carlo sample count of the contribution
	// oracle (RR workloads only).
	oracleSamples int
}

// parallelism is the solver concurrency of every batch solve: the host's
// two cores.
const parallelism = 2

func batchSpecFor(r *run) batchSpec {
	small := r.smoke
	switch r.workload {
	case "fullgraph":
		n := 250
		if small {
			n = 40
		}
		return batchSpec{algo: "naive", k: 10, oracleSamples: 100, instances: 1,
			gen: func(uint64) (*inputs, error) { return genExplain(r.seed, n, 0, 0) }}
	case "pertarget":
		n, roots, perRoot := 160, 8, 40
		if small {
			n, roots, perRoot = 30, 2, 10
		}
		return batchSpec{algo: "magic", k: 5, thetaPerTarget: 5, oracleSamples: 1000, instances: 1,
			gen: func(uint64) (*inputs, error) { return genExplain(r.seed, n, roots, perRoot) }}
	default: // exact
		// Six instances per operation: the cost and the contribution of
		// one PowerLaw instance vary by a fifth from seed to seed, their
		// sums over six by much less.
		n, instances := 120, 6
		if small {
			n, instances = 40, 2
		}
		return batchSpec{algo: "exact", k: 10, instances: instances,
			gen: func(i uint64) (*inputs, error) { return genPowerLaw(r.seed*64+i, n) }}
	}
}

// loaded is a parsed and loaded instance.
type loaded struct {
	prog    *ast.Program
	db      *db.Database
	targets []ast.Atom
}

func parseAll(in *inputs) (*ast.Program, []ast.Atom, []ast.Atom, error) {
	prog, err := parser.ParseProgram(in.program)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("program: %w", err)
	}
	facts, err := parser.ParseFacts(in.facts)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("facts: %w", err)
	}
	targets, err := parser.ParseFacts(in.targets)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("targets: %w", err)
	}
	return prog, facts, targets, nil
}

func loadFacts(facts []ast.Atom) (*db.Database, error) {
	d := db.NewDatabase()
	for _, f := range facts {
		if _, _, _, err := d.InsertAtom(f); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// analysisOptions mirrors the analyzer configuration a solve derives from
// its input: the database schema as EDB, the target predicates as roots.
func analysisOptions(d *db.Database, targets []ast.Atom) analysis.Options {
	edb := map[string]int{}
	for _, name := range d.RelationNames() {
		if rel, ok := d.Lookup(name); ok {
			edb[name] = rel.Arity()
		}
	}
	var roots []string
	seen := map[string]bool{}
	for _, a := range targets {
		if !seen[a.Predicate] {
			seen[a.Predicate] = true
			roots = append(roots, a.Predicate)
		}
	}
	return analysis.Options{EDB: edb, Roots: roots}
}

// parseLoad parses an instance's text and loads its facts.
func parseLoad(in *inputs) (*loaded, error) {
	prog, facts, targets, err := parseAll(in)
	if err != nil {
		return nil, err
	}
	d, err := loadFacts(facts)
	if err != nil {
		return nil, err
	}
	return &loaded{prog: prog, db: d, targets: targets}, nil
}

// load parses, loads and analyzes an instance: the set-up of a solve.
func load(in *inputs) (*loaded, error) {
	l, err := parseLoad(in)
	if err != nil {
		return nil, err
	}
	if err := analysis.FirstError(analysis.Analyze(l.prog, analysisOptions(l.db, l.targets))); err != nil {
		return nil, err
	}
	return l, nil
}

func (s batchSpec) options(seed uint64, nTargets, par int) cm.Options {
	opts := cm.Options{Rand: solveRand(seed), Parallelism: par}
	if s.thetaPerTarget > 0 {
		opts.Theta = im.ThetaSpec{Explicit: s.thetaPerTarget * nTargets}
	}
	return opts
}

// solve runs one solve from text to seeds: parse, load, then the solver
// (which analyzes the program itself). cmWall is the solver call's share.
func (s batchSpec) solve(in *inputs, seed uint64, par int) (res *cm.Result, l *loaded, cmWall time.Duration, err error) {
	if l, err = parseLoad(in); err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	res, err = s.run(l, s.options(seed, len(l.targets), par))
	return res, l, time.Since(t0), err
}

func (s batchSpec) run(l *loaded, opts cm.Options) (*cm.Result, error) {
	input := cm.Input{Program: l.prog, DB: l.db, T2: l.targets, K: s.k}
	switch s.algo {
	case "naive":
		return cm.NaiveCM(input, opts)
	case "magic":
		return cm.MagicCM(input, opts)
	default:
		return cm.ExactCM(input, opts)
	}
}

// checkSeeds verifies a solve returned k distinct seeds, each a fact of an
// extensional relation of the database (T1 is every edb fact).
func (r *run) checkSeeds(l *loaded, seeds []ast.Atom, k int) bool {
	ok := r.check(len(seeds) == k, "%s: %d seeds, want k=%d", r.workload, len(seeds), k)
	edb := map[string]bool{}
	for _, p := range l.prog.EDBs() {
		edb[p] = true
	}
	seen := map[string]bool{}
	for _, s := range seeds {
		key := s.String()
		ok = r.check(!seen[key], "%s: duplicate seed %s", r.workload, key) && ok
		seen[key] = true
		ok = r.check(edb[s.Predicate], "%s: seed %s is not an edb fact", r.workload, key) && ok
		rel, found := l.db.Lookup(s.Predicate)
		if found {
			t, err := l.db.InternAtom(s)
			if err == nil {
				_, found = rel.Contains(t)
			} else {
				found = false
			}
		}
		ok = r.check(found, "%s: seed %s is not in the database", r.workload, key) && ok
	}
	return ok
}

func atomStrings(atoms []ast.Atom) []string {
	out := make([]string, len(atoms))
	for i, a := range atoms {
		out[i] = a.String()
	}
	return out
}

// setupRepeats is how often a run repeats its set-up; setup_s is the
// median.
const setupRepeats = 21

// runBatch runs fullgraph, pertarget or exact.
func runBatch(r *run) error {
	spec := batchSpecFor(r)
	ins := make([]*inputs, spec.instances)
	facts, targets := 0, 0
	for i := range ins {
		in, err := spec.gen(uint64(i))
		if err != nil {
			return fmt.Errorf("generate inputs: %w", err)
		}
		ins[i] = in
		facts += in.nFacts
		targets += in.nTargets
	}
	r.info["instances"] = spec.instances
	r.info["facts"] = facts
	r.info["targets"] = targets
	r.info["algorithm"] = spec.algo
	r.info["k"] = spec.k
	r.info["parallelism"] = parallelism

	// Set-up: parse, load and analyze the instances, repeated; the timed
	// solves below pay the same steps again, as a one-shot solve does.
	// Each repeat starts from a collected heap, so the garbage of input
	// generation is not collected inside it.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		for _, in := range ins {
			if _, err := load(in); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups), len(setups))

	if r.trace {
		return traceBatch(r, spec, ins[0])
	}

	// Timed operations, back to back, until the measuring time is used up.
	// One operation solves every instance of the set once; its time is the
	// sum of the solves, so the median does not fall between the costs of
	// different instances. A collection before each solve keeps the
	// previous solve's garbage from landing in the next one's time. A host
	// probe before each solve gives the solve's time at the reference host
	// speed.
	rss := startRSS()
	var walls, normWalls, probes []float64
	first := make([]*cm.Result, len(ins))
	firstL := make([]*loaded, len(ins))
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	for ops := 0; ops < 3 || time.Now().Before(deadline); ops++ {
		op, normOp, ok := 0.0, 0.0, true
		for j, in := range ins {
			runtime.GC()
			p := probeMs()
			t0 := time.Now()
			res, l, _, err := spec.solve(in, r.seed, parallelism)
			d := time.Since(t0).Seconds()
			op += d
			normOp += normalize(d, p)
			probes = append(probes, p)
			r.attempted++
			if err != nil {
				r.fail(err)
				ok = false
				break
			}
			if first[j] == nil {
				first[j], firstL[j] = res, l
				r.checkSeeds(l, res.Seeds, spec.k)
			} else {
				r.check(slices.Equal(atomStrings(res.Seeds), atomStrings(first[j].Seeds)),
					"%s: repeated solve returned different seeds", r.workload)
			}
		}
		if ok {
			walls = append(walls, op)
			normWalls = append(normWalls, normOp)
		}
	}
	r.set("process.peak_rss_mb", rss.stop(), len(walls))
	if len(walls) == 0 {
		return fmt.Errorf("every operation failed")
	}
	r.setLatency(walls, normWalls, probes)

	// The contribution is summed over the instances.
	t0 := time.Now()
	sum := 0.0
	for j := range ins {
		if first[j] == nil {
			return fmt.Errorf("every solve of instance %d failed", j)
		}
		c, err := r.oracle(spec, firstL[j], first[j])
		if err != nil {
			r.fail(fmt.Errorf("oracle: %w", err))
			return nil
		}
		sum += c
	}
	r.info["oracle_s"] = time.Since(t0).Seconds()
	r.set("contribution", sum, len(ins))
	return nil
}

// setLatency sets the latency and throughput metrics of a batch run from
// its operation times in seconds, measured and at the reference host
// speed, and the host probes taken beside them.
func (r *run) setLatency(walls, normWalls, probes []float64) {
	n := len(walls)
	r.set("harness.latency_p50_ms", 1000*median(walls), n)
	r.set("harness.latency_p90_ms", 1000*quantile(walls, 0.9), n)
	r.set("harness.throughput_per_s", float64(n)/sum(walls), n)
	r.set("harness.probe_ms", median(probes), len(probes))
	r.set("norm_latency_p50_ms", 1000*median(normWalls), n)
	r.set("norm_throughput_per_s", float64(n)/sum(normWalls), n)
}

// oracle scores a result's seeds independently of the solver: a fixed
// Monte-Carlo estimator over the full WD graph for the RR workloads, the
// exact contribution for exact (which must also equal the solver's own
// estimate).
func (r *run) oracle(spec batchSpec, l *loaded, res *cm.Result) (float64, error) {
	input := cm.Input{Program: l.prog, DB: l.db, T2: l.targets, K: spec.k}
	if spec.algo == "exact" {
		r.attempted++
		r.check(res.Stats.ExactFallback == "", "exact: fell back to sampling: %s", res.Stats.ExactFallback)
		c, err := cm.ExactContribution(input, res.Seeds, cm.Options{})
		if err != nil {
			return 0, err
		}
		r.check(math.Abs(c-res.EstContribution) <= 1e-9,
			"exact: estimate %.12g differs from ExactContribution %.12g", res.EstContribution, c)
		return c, nil
	}
	est, err := cm.NewEstimator(input)
	if err != nil {
		return 0, err
	}
	r.attempted++
	return est.Contribution(res.Seeds, spec.oracleSamples, solveRand(0x0AC1E))
}

// traceBatch is the traced run of a batch workload: untraced reference
// solves (seeds, Stats and the untraced wall time), a Parallelism 1 solve
// that must match them, then traced replays whose seeds and gains must
// match too, and the per-layer metrics from the replays' spans.
func traceBatch(r *run, spec batchSpec, in *inputs) error {
	half := time.Duration(r.seconds * float64(time.Second) / 2)

	var refWalls, normWalls, probes, allocs []float64
	var ref *cm.Result
	var cmWall time.Duration
	rss := startRSS()
	deadline := time.Now().Add(half)
	for len(refWalls) < 1 || time.Now().Before(deadline) {
		runtime.GC()
		p := probeMs()
		a0 := allocMB()
		t0 := time.Now()
		res, l, cw, err := spec.solve(in, r.seed, parallelism)
		wall := time.Since(t0).Seconds()
		r.attempted++
		if err != nil {
			return fmt.Errorf("reference solve: %w", err)
		}
		refWalls = append(refWalls, wall)
		normWalls = append(normWalls, normalize(wall, p))
		probes = append(probes, p)
		allocs = append(allocs, allocMB()-a0)
		if ref == nil {
			ref, cmWall = res, cw
			r.checkSeeds(l, res.Seeds, spec.k)
		}
	}

	r.set("process.peak_rss_mb", rss.stop(), len(refWalls))
	r.setLatency(refWalls, normWalls, probes)

	r.attempted++
	p1, _, _, err := spec.solve(in, r.seed, 1)
	if err != nil {
		return fmt.Errorf("parallelism 1 solve: %w", err)
	}
	r.check(slices.Equal(atomStrings(p1.Seeds), atomStrings(ref.Seeds)) && slices.Equal(p1.SeedGains, ref.SeedGains),
		"%s: Parallelism 1 seeds %v differ from Parallelism 2 seeds %v", r.workload, atomStrings(p1.Seeds), atomStrings(ref.Seeds))
	if spec.algo == "exact" {
		r.check(ref.Stats.ExactFallback == "", "exact: fell back to sampling: %s", ref.Stats.ExactFallback)
	}

	st := ref.Stats
	r.set("cm.prepare_s", (cmWall - st.TotalTime).Seconds(), 1)
	r.set("cm.build_s", st.BuildTime.Seconds(), 1)
	r.set("cm.rrgen_s", st.RRGenTime.Seconds(), 1)
	r.set("cm.select_s", st.SelectTime.Seconds(), 1)
	r.set("cm.lineage_s", st.LineageTime.Seconds(), 1)
	r.set("cm.per_rr_ms", float64(st.PerRRTime())/float64(time.Millisecond), 1)
	r.set("cm.peak_resident", float64(st.PeakResidentSize), 1)
	r.set("cm.alloc_mb", median(allocs), len(allocs))

	tr := newTracer()
	var walls, unattributed []float64
	busy := map[string][]float64{}
	shares := map[string][]float64{}
	var last *replayOut
	deadline = time.Now().Add(half)
	for len(walls) < 1 || time.Now().Before(deadline) {
		runtime.GC()
		r.attempted++
		var out *replayOut
		var err error
		switch spec.algo {
		case "naive":
			out, err = replayNaive(tr, in, spec, r.seed)
		case "magic":
			out, err = replayMagic(tr, in, spec, r.seed)
		default:
			out, err = replayExact(tr, in, spec)
			if err == nil {
				tr.aggregate("cm.select", out.root, 0, st.SelectTime, 1)
				tr.extend(out.root, st.SelectTime)
			}
		}
		if err != nil {
			return fmt.Errorf("traced replay: %w", err)
		}
		last = out
		if spec.algo == "exact" {
			r.check(int(out.counts["provenance.targets"]) == st.ExactTargets && int(out.counts["provenance.clauses"]) == st.LineageClauses,
				"exact: replay lineages (%v targets, %v clauses) differ from the solver's (%d, %d)",
				out.counts["provenance.targets"], out.counts["provenance.clauses"], st.ExactTargets, st.LineageClauses)
		} else {
			r.check(slices.Equal(out.seeds, atomStrings(ref.Seeds)) && slices.Equal(out.gains, ref.SeedGains),
				"%s: traced replay seeds %v gains %v differ from the solver's %v %v",
				r.workload, out.seeds, out.gains, atomStrings(ref.Seeds), ref.SeedGains)
		}
		a := tr.attribute(out.root, isLayer)
		r.check(a.reconciles(), "%s: layer self times and the unattributed time do not add up to the wall time %.9fs", r.workload, a.wall)
		for name, d := range a.share {
			busy[name] = append(busy[name], a.busy[name])
			shares[name] = append(shares[name], d/a.wall)
		}
		walls = append(walls, a.wall)
		unattributed = append(unattributed, a.unattributed/a.wall)
	}
	if err := tr.writeTo(spanPath(r)); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	for span, metric := range spanMetrics {
		if xs, ok := busy[span]; ok {
			r.set(metric, median(xs), len(xs))
		}
	}
	r.info["layer_share"] = medianShares(shares)
	for name, v := range last.counts {
		r.set(name, v, 1)
	}
	r.set("trace.spans", float64(len(tr.spans)/len(walls)), len(walls))
	r.set("trace.unattributed_frac", median(unattributed), len(unattributed))
	r.set("trace.overhead_frac", median(walls)/median(refWalls)-1, len(walls))
	return nil
}

// spanMetrics maps layer span names to the per-layer time metrics they
// feed (each a median over the traced replays of the layer's busy time).
var spanMetrics = map[string]string{
	"parser.parse":       "parser.parse_s",
	"db.load":            "db.load_s",
	"db.scratch":         "db.scratch_s",
	"analysis.analyze":   "analysis.analyze_s",
	"magic.transform":    "magic.transform_s",
	"planner.compile":    "planner.compile_s",
	"engine.fixpoint":    "engine.fixpoint_s",
	"wdgraph.listener":   "wdgraph.listener_s",
	"wdgraph.finalize":   "wdgraph.finalize_s",
	"wdgraph.walk":       "wdgraph.walk_s",
	"im.add":             "im.add_s",
	"im.finalize":        "im.finalize_s",
	"im.select":          "im.select_s",
	"provenance.lineage": "provenance.lineage_s",
}

// medianShares reduces each layer's wall shares over the replays to their
// median, rounded to three digits for the report.
func medianShares(shares map[string][]float64) map[string]float64 {
	out := map[string]float64{}
	for name, xs := range shares {
		out[name] = math.Round(1000*median(xs)) / 1000
	}
	return out
}
