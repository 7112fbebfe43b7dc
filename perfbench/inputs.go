package main

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"contribmax/internal/ast"
	"contribmax/internal/db"
	"contribmax/internal/engine"
	"contribmax/internal/parser"
	"contribmax/internal/workload"
)

// inputs is what a solve receives: program, fact and target text. The
// benchmark generates them from the workload seed before any timing; the
// program under test sees only the text.
type inputs struct {
	program string
	facts   string
	targets string
	// nFacts and nTargets size the instance for the report.
	nFacts   int
	nTargets int
}

// genRand is the input-generation stream of a workload seed; solveRand is
// the solver stream. Both depend only on the seed.
func genRand(seed uint64, salt uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9E3779B97F4A7C15^salt))
}

func solveRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed^0xC0FFEE, 0xD15EA5E))
}

// factsText renders every relation of d in the fact-file syntax.
func factsText(d *db.Database) (string, int, error) {
	var sb strings.Builder
	n := 0
	for _, name := range d.RelationNames() {
		facts := d.Facts(name)
		n += len(facts)
		if err := parser.WriteFacts(&sb, facts); err != nil {
			return "", 0, err
		}
	}
	return sb.String(), n, nil
}

// derived evaluates prog over d (on a scratch copy) and returns the
// derived facts matching each pattern, in pattern then relation order.
func derived(prog *ast.Program, d *db.Database, patterns []ast.Atom) ([]ast.Atom, error) {
	scratch := d.CloneSchema()
	for _, pred := range prog.EDBs() {
		if rel, ok := d.Lookup(pred); ok {
			scratch.Attach(rel)
		}
	}
	eng, err := engine.New(prog, scratch)
	if err != nil {
		return nil, err
	}
	if _, err := eng.Run(engine.Options{}); err != nil {
		return nil, err
	}
	var out []ast.Atom
	for _, p := range patterns {
		m, err := scratch.Match(p)
		if err != nil {
			return nil, err
		}
		out = append(out, m...)
	}
	return out, nil
}

// makeInputs renders a generated workload plus its target atoms as text.
func makeInputs(w workload.Workload, targets []ast.Atom) (*inputs, error) {
	facts, nFacts, err := factsText(w.DB)
	if err != nil {
		return nil, err
	}
	var tb strings.Builder
	if err := parser.WriteFacts(&tb, targets); err != nil {
		return nil, err
	}
	return &inputs{
		program:  w.Program.String(),
		facts:    facts,
		targets:  tb.String(),
		nFacts:   nFacts,
		nTargets: len(targets),
	}, nil
}

// explainRoots picks n distinct roots p<i> with rng among the people
// whose related(p<i>, Y) facts number at least half of nPeople, so every
// bound-root pattern has many targets.
func explainRoots(w workload.Workload, nPeople, n int, rng *rand.Rand) ([]string, error) {
	all, err := derived(w.Program, w.DB, []ast.Atom{ast.NewAtom("related", ast.V("X"), ast.V("Y"))})
	if err != nil {
		return nil, err
	}
	reach := map[string]int{}
	for _, a := range all {
		reach[a.Terms[0].Name]++
	}
	var eligible []string
	for i := 0; i < nPeople; i++ {
		if p := fmt.Sprintf("p%d", i); 2*reach[p] >= nPeople {
			eligible = append(eligible, p)
		}
	}
	if len(eligible) < n {
		return nil, fmt.Errorf("only %d of %d people reach half the others, want %d roots", len(eligible), nPeople, n)
	}
	rng.Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })
	return eligible[:n], nil
}

// rootPatterns returns related(root, Y) for each root.
func rootPatterns(roots []string) []ast.Atom {
	out := make([]ast.Atom, len(roots))
	for i, r := range roots {
		out[i] = ast.NewAtom("related", ast.C(r), ast.V("Y"))
	}
	return out
}

// genExplain generates an Explain instance of nPeople people. With nRoots
// 0 its targets are every derived related fact; otherwise they are
// perRoot related(p<i>, Y) facts drawn for each of nRoots roots, so |T2| is
// the same for every seed.
func genExplain(seed uint64, nPeople, nRoots, perRoot int) (*inputs, error) {
	rng := genRand(seed, 1)
	w, err := workload.ByName("Explain", nPeople, rng)
	if err != nil {
		return nil, err
	}
	if nRoots == 0 {
		targets, err := derived(w.Program, w.DB, []ast.Atom{ast.NewAtom("related", ast.V("X"), ast.V("Y"))})
		if err != nil {
			return nil, err
		}
		return makeInputs(w, targets)
	}
	roots, err := explainRoots(w, nPeople, nRoots, rng)
	if err != nil {
		return nil, err
	}
	var targets []ast.Atom
	for _, root := range roots {
		facts, err := derived(w.Program, w.DB, rootPatterns([]string{root}))
		if err != nil {
			return nil, err
		}
		rng.Shuffle(len(facts), func(i, j int) { facts[i], facts[j] = facts[j], facts[i] })
		targets = append(targets, facts[:perRoot]...)
	}
	return makeInputs(w, targets)
}

// genPowerLaw generates a PowerLaw instance whose targets are every
// derived reaches fact. The skew is 0.5 instead of the generator's default
// 1.0: at 1.0 a handful of hubs set the cost, and the solve time and the
// contribution of the same sizing vary by half across seeds.
func genPowerLaw(seed uint64, nPeople int) (*inputs, error) {
	p := workload.DefaultPowerLawParams(nPeople)
	p.Alpha = 0.5
	w := workload.PowerLaw(p, genRand(seed, 2))
	targets, err := derived(w.Program, w.DB, []ast.Atom{ast.NewAtom("reaches", ast.V("X"), ast.V("T"))})
	if err != nil {
		return nil, err
	}
	return makeInputs(w, targets)
}
