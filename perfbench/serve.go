package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"contribmax/internal/analysis"
	"contribmax/internal/ast"
	"contribmax/internal/cm"
	"contribmax/internal/db"
	"contribmax/internal/engine"
	"contribmax/internal/obs"
	"contribmax/internal/parser"
	"contribmax/internal/server"
	"contribmax/internal/workload"
)

// serveSpec sizes the serve workload.
type serveSpec struct {
	tenants int // Explain fact sets, one per tenant
	people  int // people per tenant
	roots   int // target roots per tenant (repeats make cache hits)
	// rate is the nominal open-loop request rate, req/s: about a fifth
	// of capacity, so a slow stretch of the host does not tip the open
	// loop into queueing.
	rate float64
	// cacheBytes is the solve-cache budget, below the working set so the
	// cache evicts.
	cacheBytes int64
}

func serveSpecFor(r *run) serveSpec {
	if r.smoke {
		return serveSpec{tenants: 2, people: 20, roots: 2, rate: 20, cacheBytes: 256 << 10}
	}
	return serveSpec{tenants: 6, people: 60, roots: 4, rate: 7, cacheBytes: 4 << 20}
}

// serveSlices is how many open-loop and capacity slices a run alternates.
const serveSlices = 8

// connections is the client's connection bound: the host's two cores.
const connections = 2

// poolSlots is the server's solve-pool size. It is below the client's
// connection count, so in the capacity phase one request always waits for
// the slot, and in the open loop a request that arrives while another is
// solving waits too. The default queue bound (twice the slots) is above
// the one request that can wait, so nothing is shed.
const poolSlots = 1

// tenant is one fact set with its target roots.
type tenant struct {
	facts   string
	roots   []string
	program string
}

// request is one scheduled operation of the mix.
type request struct {
	at     time.Duration // scheduled send time from the phase start
	kind   string        // the mix's request kind (roundKinds)
	tenant int
	path   string // /api/solve or /api/solve/batch
	body   []byte
	k      int
	batch  int // items in a batch request, 0 for a single solve
	// payload identifies the (tenant, targets) front end for the replay.
	targets []string
}

// outcome is one request's client-side measurement.
type outcome struct {
	req      *request
	sent     time.Time
	latency  time.Duration // from the scheduled send time
	lag      time.Duration // how late the generator sent it
	http     time.Duration // from the actual send
	totalMs  float64
	seeds    []string
	rrHits   int64
	rrMisses int64
	err      error
}

// mix generates requests over the tenants in rounds of a fixed
// composition, shuffled per round: single solves with Magic^S (the
// server's default), MagicCM at θ ≈ |T2|, Magic^G and NaiveCM, plus k-sweep
// batches. Tenant and root are drawn per request. Every request carries a
// fresh solver seed except one per round, which repeats a Magic^S request
// of the previous round and so can hit the RR cache; each batch's first
// item misses and the others hit. Fixing which requests can hit keeps the
// latency distribution's shape the same from seed to seed.
type mix struct {
	rng     *rand.Rand
	tenants []tenant
	k       int
	batchN  int
	seq     uint64
	queue   []string
	// last is the previous round's first Magic^S request, repeated once
	// in the next round.
	last, pending *request
}

// roundKinds is one round of the mix: 11 fresh Magic^S solves, one
// repeat, 3 batches, 2 MagicCM, 2 NaiveCM and 1 Magic^G solve. The
// proportions are assumed, not taken from observed traffic. Fresh
// Magic^S solves make up 55% of the mix and the cheaper kinds 20%, so the
// median latency falls inside the Magic^S mode rather than in a gap
// between modes, where it would jump with small shifts in the mix.
var roundKinds = strings.Fields("magics magics magics magics magics magics magics magics magics magics magics repeat batch batch batch magic magic naive naive magicg")

func (m *mix) next() *request {
	if len(m.queue) == 0 {
		m.queue = append(m.queue, roundKinds...)
		m.rng.Shuffle(len(m.queue), func(i, j int) { m.queue[i], m.queue[j] = m.queue[j], m.queue[i] })
		m.last, m.pending = m.pending, nil
	}
	kind := m.queue[0]
	m.queue = m.queue[1:]
	if kind == "repeat" {
		if m.last != nil {
			again := *m.last
			again.kind = kind
			return &again
		}
		kind = "magics"
	}
	ti := m.rng.IntN(len(m.tenants))
	t := m.tenants[ti]
	root := t.roots[m.rng.IntN(len(t.roots))]
	targets := []string{fmt.Sprintf("related(%s, Y)", root)}
	m.seq++
	req := &request{kind: kind, tenant: ti, path: "/api/solve", k: m.k, targets: targets}
	base := server.SolveRequest{Program: t.program, Facts: t.facts, Targets: targets, K: m.k, Seed: m.seq, Algorithm: kind, RR: 100}
	switch kind {
	case "magic":
		base.RR = 60
	case "batch":
		items := make([]server.SolveRequest, m.batchN)
		for i := range items {
			items[i] = server.SolveRequest{Targets: targets, K: i + 1, Algorithm: "magic", RR: 100, Seed: m.seq}
		}
		req.path, req.batch = "/api/solve/batch", m.batchN
		req.body, _ = json.Marshal(server.BatchSolveRequest{Program: t.program, Facts: t.facts, Solves: items})
		return req
	}
	req.body, _ = json.Marshal(base)
	if kind == "magics" && m.pending == nil {
		m.pending = req
	}
	return req
}

// serveHarness is one running server on a loopback listener plus the
// client that drives it.
type serveHarness struct {
	srv    *http.Server
	done   chan struct{}
	base   string
	client *http.Client
	tr     *http.Transport
	// scrape reads /metrics over a connection of its own, so polling
	// neither waits for nor takes one of the load's connections.
	scrape *http.Client
	str    *http.Transport
}

func startServer(spec serveSpec, reg *obs.Registry) (*serveHarness, error) {
	h := server.NewWith(server.Config{
		Obs:                 reg,
		CacheBytes:          spec.cacheBytes,
		MaxConcurrentSolves: poolSlots,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxConnsPerHost: connections, MaxIdleConnsPerHost: connections}
	str := &http.Transport{MaxConnsPerHost: 1}
	sh := &serveHarness{
		srv:    &http.Server{Handler: h},
		done:   make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: tr},
		tr:     tr,
		scrape: &http.Client{Transport: str},
		str:    str,
	}
	go func() {
		defer close(sh.done)
		sh.srv.Serve(ln)
	}()
	return sh, nil
}

// stop shuts the server down and waits for it to exit.
func (sh *serveHarness) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sh.srv.Shutdown(ctx)
	sh.tr.CloseIdleConnections()
	sh.str.CloseIdleConnections()
	<-sh.done
}

// post sends one request and decodes its outcome.
func (sh *serveHarness) post(req *request) outcome {
	o := outcome{req: req, sent: time.Now()}
	resp, err := sh.client.Post(sh.base+req.path, "application/json", bytes.NewReader(req.body))
	if err != nil {
		o.err = err
		o.http = time.Since(o.sent)
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.http = time.Since(o.sent)
	if err != nil {
		o.err = err
		return o
	}
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("%s: HTTP %d: %s", req.path, resp.StatusCode, bytes.TrimSpace(body))
		return o
	}
	if req.batch > 0 {
		var br server.BatchSolveResponse
		if err := json.Unmarshal(body, &br); err != nil {
			o.err = err
			return o
		}
		o.totalMs, o.rrHits, o.rrMisses = br.TotalMillis, br.CacheRRHits, br.CacheRRMisses
		for i, item := range br.Results {
			if item.Response == nil {
				o.err = fmt.Errorf("batch item %d: %s", i, item.Error)
				return o
			}
			if len(item.Response.Seeds) != i+1 {
				o.err = fmt.Errorf("batch item %d: %d seeds, want k=%d", i, len(item.Response.Seeds), i+1)
				return o
			}
		}
		return o
	}
	var sr server.SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		o.err = err
		return o
	}
	o.totalMs, o.seeds = sr.TotalMillis, sr.Seeds
	return o
}

// checkOutcome applies the response checks: 2xx, k seeds, and len−1
// RR-cache hits for every k-sweep batch.
func (r *run) checkOutcome(o outcome) bool {
	r.attempted++
	if o.err != nil {
		r.fail(o.err)
		return false
	}
	if o.req.batch > 0 {
		return r.check(o.rrHits == int64(o.req.batch-1) && o.rrMisses == 1,
			"serve: k-sweep batch of %d reported %d RR-cache hits and %d misses, want %d and 1",
			o.req.batch, o.rrHits, o.rrMisses, o.req.batch-1)
	}
	return r.check(len(o.seeds) == o.req.k, "serve: %d seeds, want k=%d", len(o.seeds), o.req.k)
}

// openLoop sends reqs on their schedule from at most `connections`
// connections; each request is timed from its scheduled send time, so a
// stall delays (and is charged to) the requests behind it.
func (sh *serveHarness) openLoop(reqs []*request) []outcome {
	start := time.Now()
	out := make([]outcome, len(reqs))
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(reqs) {
					return
				}
				due := start.Add(reqs[i].at)
				time.Sleep(time.Until(due))
				o := sh.post(reqs[i])
				o.latency = time.Since(due)
				o.lag = max(0, o.sent.Sub(due))
				out[i] = o
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop keeps `connections` requests in flight back to back for d and
// returns the outcomes in completion order and the time until the last
// one completed.
func (sh *serveHarness) closedLoop(m *mix, d time.Duration) ([]outcome, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var mu sync.Mutex
	var out []outcome
	var wg sync.WaitGroup
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				req := m.next()
				mu.Unlock()
				o := sh.post(req)
				o.latency = o.http
				mu.Lock()
				out = append(out, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// schedule spaces requests from the mix evenly at rate over d. Even
// spacing, rather than Poisson arrivals, keeps the tail from depending on
// how arrivals happen to bunch up in one run.
func schedule(m *mix, rate float64, d time.Duration) []*request {
	var out []*request
	step := time.Duration(float64(time.Second) / rate)
	for at := step / 2; at < d; at += step {
		req := m.next()
		req.at = at
		out = append(out, req)
	}
	return out
}

// genTenants generates the tenants' fact sets and target roots.
func genTenants(seed uint64, spec serveSpec) ([]tenant, error) {
	prog := workload.ExplainProgram().String()
	out := make([]tenant, spec.tenants)
	for i := range out {
		rng := genRand(seed, uint64(100+i))
		w, err := workload.ByName("Explain", spec.people, rng)
		if err != nil {
			return nil, err
		}
		facts, _, err := factsText(w.DB)
		if err != nil {
			return nil, err
		}
		roots, err := explainRoots(w, spec.people, spec.roots, rng)
		if err != nil {
			return nil, err
		}
		out[i] = tenant{facts: facts, roots: roots, program: prog}
	}
	return out, nil
}

// warmup is a small fixed request that exercises the whole HTTP and solve
// path without touching the tenants' cache entries.
func warmup(sh *serveHarness) error {
	w := workload.Trade()
	facts, _, err := factsText(w.DB)
	if err != nil {
		return err
	}
	body, _ := json.Marshal(server.SolveRequest{Program: w.Program.String(), Facts: facts, Targets: []string{"dealsWith(X, Y)"}, K: 2, RR: 50, Algorithm: "magic"})
	o := sh.post(&request{path: "/api/solve", body: body, k: 2})
	return o.err
}

// runServe runs the serve workload.
func runServe(r *run) error {
	spec := serveSpecFor(r)
	tenants, err := genTenants(r.seed, spec)
	if err != nil {
		return fmt.Errorf("generate tenants: %w", err)
	}
	r.info["tenants"] = spec.tenants
	r.info["people_per_tenant"] = spec.people
	r.info["nominal_rate"] = spec.rate
	r.info["cache_bytes"] = spec.cacheBytes
	r.info["connections"] = connections
	m := &mix{rng: genRand(r.seed, 7), tenants: tenants, k: 5, batchN: 4}

	// Set-up: start the server on a loopback listener and answer one
	// warm-up request, repeated, each from a collected heap; the last
	// server stays up.
	var sh *serveHarness
	var setups []float64
	for i := 0; i < 5; i++ {
		if sh != nil {
			sh.stop()
		}
		runtime.GC()
		t0 := time.Now()
		sh, err = startServer(spec, obs.NewRegistry())
		if err != nil {
			return fmt.Errorf("start server: %w", err)
		}
		if err := warmup(sh); err != nil {
			sh.stop()
			return fmt.Errorf("warm-up request: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer sh.stop()
	r.set("setup_s", median(setups), len(setups))

	// Nominal phase: the open loop at the nominal rate. Capacity phase:
	// the completion rate with both connections kept busy on the same
	// mix, so one request always waits for the pool slot. The run
	// alternates the two in slices, so both sample the host over the whole
	// run rather than one stretch of it. A traced run polls /metrics for
	// the pool's queue depth throughout.
	slice := time.Duration(r.seconds * float64(time.Second) / serveSlices)
	var poll *poller
	if r.trace {
		poll = startPoller(sh)
	}
	// A host probe, taken from a collected heap with the server idle
	// before each slice as the batch workloads take one before each solve,
	// gives the run's times at the reference host speed. One probe is
	// noisy and back-to-back probes find their buffer in cache, so the
	// run's median probe scales the run's figures.
	rss := startRSS()
	var outs, capOuts []outcome
	var capD float64
	var probes []float64
	for i := 0; i < serveSlices; i++ {
		runtime.GC()
		probes = append(probes, probeMs())
		outs = append(outs, sh.openLoop(schedule(m, spec.rate, slice*6/10))...)
		co, d := sh.closedLoop(m, slice*4/10)
		capOuts = append(capOuts, co...)
		capD += d.Seconds()
	}
	probe := median(probes)
	queueMax := poll.stop()
	r.set("process.peak_rss_mb", rss.stop(), len(outs)+len(capOuts))

	var lat []float64
	byKind := map[string][]float64{}
	for _, o := range outs {
		if r.checkOutcome(o) {
			ms := float64(o.latency) / float64(time.Millisecond)
			lat = append(lat, ms)
			byKind[o.req.kind] = append(byKind[o.req.kind], ms)
		}
	}
	p50ByKind := map[string]float64{}
	for kind, xs := range byKind {
		p50ByKind[kind] = math.Round(10*median(xs)) / 10
	}
	r.info["latency_p50_ms_by_kind"] = p50ByKind
	if len(lat) == 0 {
		return fmt.Errorf("no request succeeded")
	}
	r.set("harness.latency_p50_ms", median(lat), len(lat))
	r.set("harness.latency_p90_ms", quantile(lat, 0.9), len(lat))
	r.set("harness.probe_ms", probe, len(probes))
	r.set("norm_latency_p50_ms", normalize(median(lat), probe), len(lat))
	ok := 0
	for _, o := range capOuts {
		if r.checkOutcome(o) {
			ok++
		}
	}
	r.set("harness.throughput_per_s", float64(ok)/capD, ok)
	r.set("norm_throughput_per_s", float64(ok)/normalize(capD, probe), ok)

	if r.trace {
		return traceServe(r, sh, tenants, outs, capOuts, queueMax)
	}

	c, err := serveOracle(r, sh, tenants, m.k)
	if err != nil {
		r.fail(fmt.Errorf("oracle: %w", err))
		return nil
	}
	r.set("contribution", c, 1)
	return nil
}

// serveOracle sends one fixed probe request per tenant (MagicCM on the
// tenant's first root) and sums the probes' contributions, each scored by
// the Monte-Carlo estimator.
func serveOracle(r *run, sh *serveHarness, tenants []tenant, k int) (float64, error) {
	total := 0.0
	for _, t := range tenants {
		c, err := probeContribution(r, sh, t, k)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

func probeContribution(r *run, sh *serveHarness, t tenant, k int) (float64, error) {
	targets := []string{fmt.Sprintf("related(%s, Y)", t.roots[0])}
	body, _ := json.Marshal(server.SolveRequest{Program: t.program, Facts: t.facts, Targets: targets, K: k, Algorithm: "magic", RR: 500, Seed: 7})
	o := sh.post(&request{path: "/api/solve", body: body, k: k, targets: targets})
	if !r.checkOutcome(o) {
		return 0, fmt.Errorf("probe request failed")
	}
	prog, err := parser.ParseProgram(t.program)
	if err != nil {
		return 0, err
	}
	facts, err := parser.ParseFacts(t.facts)
	if err != nil {
		return 0, err
	}
	d, err := loadFacts(facts)
	if err != nil {
		return 0, err
	}
	pat, err := parser.ParseAtom(targets[0])
	if err != nil {
		return 0, err
	}
	t2, err := derived(prog, d, []ast.Atom{pat})
	if err != nil {
		return 0, err
	}
	seeds := make([]ast.Atom, len(o.seeds))
	for i, s := range o.seeds {
		if seeds[i], err = parser.ParseAtom(s); err != nil {
			return 0, err
		}
	}
	est, err := cm.NewEstimator(cm.Input{Program: prog, DB: d, T2: t2, K: k})
	if err != nil {
		return 0, err
	}
	return est.Contribution(seeds, 2000, solveRand(0x0AC1E))
}

// frontEndReplay replays the server's per-request front end on one
// payload: parse, load, analysis and target expansion (a fixpoint).
func frontEndReplay(t *tracer, root int, tn tenant, targets []string) error {
	var prog *ast.Program
	var facts []ast.Atom
	if err := t.timed("parser.parse", root, 0, func() (err error) {
		if prog, err = parser.ParseProgramLoose(tn.program); err != nil {
			return err
		}
		facts, err = parser.ParseFacts(tn.facts)
		return err
	}); err != nil {
		return err
	}
	var d *db.Database
	if err := t.timed("db.load", root, 0, func() (err error) {
		d, err = loadFacts(facts)
		return err
	}); err != nil {
		return err
	}
	var pats []ast.Atom
	for _, s := range targets {
		a, err := parser.ParseAtom(s)
		if err != nil {
			return err
		}
		pats = append(pats, a)
	}
	if err := t.timed("analysis.analyze", root, 0, func() error {
		return analysis.FirstError(analysis.Analyze(prog, analysisOptions(d, pats)))
	}); err != nil {
		return err
	}
	scratch := scratchDB(prog, d)
	var eng *engine.Engine
	if err := t.timed("planner.compile", root, 0, func() (err error) {
		eng, err = engine.New(prog, scratch)
		return err
	}); err != nil {
		return err
	}
	if err := t.timed("engine.fixpoint", root, 0, func() error {
		_, err := eng.Run(engine.Options{})
		return err
	}); err != nil {
		return err
	}
	return t.timed("db.match", root, 0, func() error {
		for _, p := range pats {
			if _, err := scratch.Match(p); err != nil {
				return err
			}
		}
		return nil
	})
}

// metricsSnapshot scrapes /metrics (flat JSON: counters and gauges as
// numbers).
func (sh *serveHarness) metricsSnapshot() (map[string]any, error) {
	resp, err := sh.scrape.Get(sh.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	return m, nil
}

func num(m map[string]any, name string) float64 {
	v, _ := m[name].(float64)
	return v
}

// poller samples the pool's queue-depth gauge until stopped.
type poller struct {
	stopc chan struct{}
	done  chan struct{}
	max   float64
}

func startPoller(sh *serveHarness) *poller {
	p := &poller{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stopc:
				return
			case <-tick.C:
				if m, err := sh.metricsSnapshot(); err == nil {
					p.max = max(p.max, num(m, obs.ServerQueueDepth))
				}
			}
		}
	}()
	return p
}

// stop ends the polling, waits for it, and returns the largest depth seen
// (0 for a nil poller).
func (p *poller) stop() float64 {
	if p == nil {
		return 0
	}
	close(p.stopc)
	<-p.done
	return p.max
}

// traceServe is the traced run of serve: client-side spans per request,
// server overhead over the reported solve time, the cache and pool
// counters from /metrics, and traced replays of the per-request front end
// (parse, load, analysis, target expansion) on the requests' payloads.
func traceServe(r *run, sh *serveHarness, tenants []tenant, outs, capOuts []outcome, queueMax float64) error {
	tr := newTracer()
	var overhead, solveMs, lag []float64
	for _, o := range outs {
		lag = append(lag, float64(o.lag)/float64(time.Millisecond))
		if o.err != nil {
			continue
		}
		root := tr.begin("request", -1, 0)
		tr.spans[root].Start = int64(o.sent.Sub(tr.t0))
		tr.spans[root].End = tr.spans[root].Start + int64(o.http)
		tr.aggregate("server.solve", root, 0, time.Duration(o.totalMs*float64(time.Millisecond)), 1)
		overhead = append(overhead, float64(o.http)/float64(time.Millisecond)-o.totalMs)
		solveMs = append(solveMs, o.totalMs)
	}
	r.set("server.overhead_ms", median(overhead), len(overhead))
	// In the capacity phase the overhead also holds the wait for the pool
	// slot; the nominal overhead is taken off to leave the wait.
	var capOverhead []float64
	for _, o := range capOuts {
		if o.err == nil {
			capOverhead = append(capOverhead, float64(o.http)/float64(time.Millisecond)-o.totalMs)
		}
	}
	r.set("server.queue_wait_ms", median(capOverhead)-median(overhead), len(capOverhead))
	r.set("server.solve_ms", median(solveMs), len(solveMs))
	r.set("loadgen.lag_ms", quantile(lag, 0.9), len(lag))
	r.set("server.queue_depth_max", queueMax, 1)

	m, err := sh.metricsSnapshot()
	r.attempted++
	if err != nil {
		r.fail(fmt.Errorf("scrape /metrics: %w", err))
	} else {
		frac := func(hits, misses string) float64 {
			h, mi := num(m, hits), num(m, misses)
			if h+mi == 0 {
				return 0
			}
			return h / (h + mi)
		}
		r.set("solvecache.graph_hit_frac", frac(obs.CacheGraphHits, obs.CacheGraphMisses), 1)
		r.set("solvecache.rr_hit_frac", frac(obs.CacheRRHits, obs.CacheRRMisses), 1)
		r.set("solvecache.evictions", num(m, obs.CacheEvictions), 1)
		r.set("solvecache.resident_mb", num(m, obs.CacheBytes)/(1<<20), 1)
		r.set("server.shed", num(m, obs.ServerShed), 1)
	}

	// Front-end replays, untraced then traced, on each request's payload.
	var plain, traced, unattributed []float64
	busy := map[string][]float64{}
	shares := map[string][]float64{}
	for _, o := range outs {
		req := o.req
		if req.targets == nil {
			continue
		}
		tn := tenants[req.tenant]
		r.attempted++
		t0 := time.Now()
		if err := frontEndReplay(nil, -1, tn, req.targets); err != nil {
			r.fail(fmt.Errorf("front-end replay: %w", err))
			continue
		}
		plain = append(plain, time.Since(t0).Seconds())
		root := tr.begin("frontend", -1, 0)
		err := frontEndReplay(tr, root, tn, req.targets)
		tr.end(root)
		if err != nil {
			r.fail(fmt.Errorf("traced front-end replay: %w", err))
			continue
		}
		a := tr.attribute(root, isLayer)
		r.check(a.reconciles(), "serve: replay self times and the unattributed time do not add up to the wall time %.9fs", a.wall)
		for name, d := range a.share {
			busy[name] = append(busy[name], a.busy[name])
			shares[name] = append(shares[name], d/a.wall)
		}
		traced = append(traced, a.wall)
		unattributed = append(unattributed, a.unattributed/a.wall)
	}
	for span, metric := range spanMetrics {
		if xs, ok := busy[span]; ok {
			r.set(metric, median(xs), len(xs))
		}
	}
	r.info["layer_share"] = medianShares(shares)
	if len(traced) > 0 {
		r.set("trace.overhead_frac", median(traced)/median(plain)-1, len(traced))
		r.set("trace.unattributed_frac", median(unattributed), len(unattributed))
	}
	r.set("trace.spans", float64(len(tr.spans)), 1)
	if err := tr.writeTo(spanPath(r)); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
