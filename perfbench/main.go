// Command perfbench is the repository benchmark: four workloads that load
// the layers of a contribution-maximization solve differently, each run in
// one process with at most two threads or connections of load.
//
//	perfbench --workload fullgraph|pertarget|exact|serve --seed N --seconds S --trace 0|1
//	perfbench --smoke
//
// A timed run (--trace 0) measures end-to-end metrics with no tracing. A
// traced run (--trace 1) replays the solve layer by layer through the
// packages' public calls, records one span per call, and reports per-layer
// metrics. Both check every output; a failed check counts in `failed` and
// makes the process exit 1. The last line of standard output is the
// machine-readable result; the lines before it are the full report (host
// block, every named metric with its unit and sample count).
//
// --smoke runs every workload at a small size with every output check,
// timed and traced, and exits non-zero if any check fails.
//
// See WORKLOADS.md for why each workload exists and which layers it loads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement with its unit and the number of samples
// behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// e2eUnits lists the end-to-end metrics every workload reports in a timed
// run, with their units.
var e2eUnits = map[string]string{
	"setup_s":               "s",
	"norm_latency_p50_ms":   "ms",
	"norm_throughput_per_s": "1/s",
	"contribution":          "facts",
}

// layerUnits lists the per-layer metrics every workload reports in a
// traced run. A layer the workload bypasses reports 0.
var layerUnits = map[string]string{
	"parser.parse_s":            "s",
	"db.load_s":                 "s",
	"db.scratch_s":              "s",
	"analysis.analyze_s":        "s",
	"magic.transform_s":         "s",
	"magic.transforms":          "count",
	"planner.compile_s":         "s",
	"planner.plans_built":       "count",
	"planner.cache_hits":        "count",
	"engine.fixpoint_s":         "s",
	"engine.instantiations":     "count",
	"engine.rounds":             "count",
	"engine.new_per_inst":       "ratio",
	"wdgraph.builds":            "count",
	"wdgraph.nodes_per_build":   "count",
	"wdgraph.listener_s":        "s",
	"wdgraph.finalize_s":        "s",
	"wdgraph.graph_mb":          "MB",
	"wdgraph.walk_s":            "s",
	"wdgraph.walk_members":      "count",
	"im.rr_sets":                "count",
	"im.add_s":                  "s",
	"im.finalize_s":             "s",
	"im.select_s":               "s",
	"im.arena_mb":               "MB",
	"im.covered_frac":           "fraction",
	"provenance.lineage_s":      "s",
	"provenance.clauses":        "count",
	"provenance.targets":        "count",
	"cm.prepare_s":              "s",
	"cm.build_s":                "s",
	"cm.rrgen_s":                "s",
	"cm.select_s":               "s",
	"cm.lineage_s":              "s",
	"cm.per_rr_ms":              "ms",
	"cm.builds_per_target":      "ratio",
	"cm.peak_resident":          "count",
	"cm.alloc_mb":               "MB",
	"solvecache.graph_hit_frac": "fraction",
	"solvecache.rr_hit_frac":    "fraction",
	"solvecache.evictions":      "count",
	"solvecache.resident_mb":    "MB",
	"server.overhead_ms":        "ms",
	"server.solve_ms":           "ms",
	"server.queue_wait_ms":      "ms",
	"server.queue_depth_max":    "count",
	"server.shed":               "count",
	"loadgen.lag_ms":            "ms",
	"trace.overhead_frac":       "fraction",
	"trace.unattributed_frac":   "fraction",
	"trace.spans":               "count",
	"fail_frac":                 "fraction",
	"process.peak_rss_mb":       "MB",
	"harness.latency_p50_ms":    "ms",
	"harness.latency_p90_ms":    "ms",
	"harness.throughput_per_s":  "1/s",
	"harness.probe_ms":          "ms",
}

// run carries one workload run's configuration and collects its results.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool

	attempted int
	failed    int
	failures  []string
	metrics   map[string]metric
	// info holds provenance facts printed in the report (sizes, counts).
	info map[string]any
}

// check records one output check; a failed check counts as a failed
// operation and fails the run.
func (r *run) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.failed++
		msg := fmt.Sprintf(format, args...)
		r.failures = append(r.failures, msg)
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", msg)
	}
	return ok
}

// fail records an operation that returned an error.
func (r *run) fail(err error) {
	r.check(false, "%v", err)
}

func (r *run) set(name string, v float64, n int) {
	unit, ok := e2eUnits[name]
	if !ok {
		unit, ok = layerUnits[name]
	}
	if !ok {
		panic("perfbench: unregistered metric " + name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit, N: n}
}

func main() {
	workloadName := flag.String("workload", "", "workload: fullgraph, pertarget, exact or serve")
	seed := flag.Uint64("seed", 1, "workload seed: generates the inputs and the solvers' random streams")
	seconds := flag.Float64("seconds", 10, "measuring time of the run")
	trace := flag.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	smoke := flag.Bool("smoke", false, "run every workload at a small size with every output check")
	flag.Parse()

	if *smoke {
		os.Exit(runSmoke(*seed))
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	r := newRun(*workloadName, *seed, *seconds, *trace == 1, false)
	if err := r.execute(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	r.print(os.Stdout)
	if r.failed > 0 {
		os.Exit(1)
	}
}

func newRun(workload string, seed uint64, seconds float64, trace, smoke bool) *run {
	return &run{
		workload: workload, seed: seed, seconds: seconds, trace: trace, smoke: smoke,
		metrics: map[string]metric{}, info: map[string]any{},
	}
}

// execute runs the workload and fills the metrics.
func (r *run) execute() error {
	start := time.Now()
	var err error
	switch r.workload {
	case "fullgraph", "pertarget", "exact":
		err = runBatch(r)
	case "serve":
		err = runServe(r)
	default:
		return fmt.Errorf("unknown workload %q (want fullgraph, pertarget, exact or serve)", r.workload)
	}
	if err != nil {
		return err
	}
	if r.attempted < 1 {
		return fmt.Errorf("workload %s attempted no operation", r.workload)
	}
	if r.trace {
		r.set("fail_frac", float64(r.failed)/float64(r.attempted), r.attempted)
	}
	r.info["run_wall_s"] = time.Since(start).Seconds()
	return nil
}

// runSmoke runs all four workloads at smoke size, timed and traced.
func runSmoke(seed uint64) int {
	code := 0
	for _, w := range []string{"fullgraph", "pertarget", "exact", "serve"} {
		for _, traced := range []bool{false, true} {
			r := newRun(w, seed, 1, traced, true)
			if err := r.execute(); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: smoke %s trace=%v: %v\n", w, traced, err)
				code = 1
				continue
			}
			r.print(os.Stdout)
			if r.failed > 0 {
				code = 1
			}
		}
	}
	if code == 0 {
		fmt.Println("perfbench: smoke passed")
	}
	return code
}

// print writes the full report followed by the one-line result.
func (r *run) print(w *os.File) {
	host := hostBlock(r)
	hb, _ := json.Marshal(host)
	fmt.Fprintf(w, "host %s\n", hb)
	ib, _ := json.Marshal(r.info)
	fmt.Fprintf(w, "info %s\n", ib)
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.metrics[name]
		fmt.Fprintf(w, "metric %-28s %14.6g %-8s n=%d\n", name, m.Value, m.Unit, m.N)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "failure %s\n", f)
	}

	want := e2eUnits
	if r.trace {
		want = layerUnits
	}
	out := map[string]map[string]any{}
	for name, unit := range want {
		m, ok := r.metrics[name]
		if !ok {
			// A layer the workload bypasses did no work.
			m = metric{Unit: unit}
		}
		out[name] = map[string]any{"value": finite(m.Value), "unit": m.Unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	fmt.Fprintln(w, string(line))
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

// rssMB reads the process's current resident set size (VmRSS).
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmRSS:") {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmRSS:")), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// rssSampler tracks the peak resident set of the timed phase: it returns
// the heap garbage of input generation to the OS, then samples VmRSS every
// 20ms until stopped. Input generation and the oracle stay out of the
// figure.
type rssSampler struct {
	stopc chan struct{}
	done  chan struct{}
	peak  float64
}

func startRSS() *rssSampler {
	debug.FreeOSMemory()
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{}), peak: rssMB()}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-tick.C:
				s.peak = max(s.peak, rssMB())
			}
		}
	}()
	return s
}

// stop ends sampling, waits for the sampler, and returns the peak in MB.
func (s *rssSampler) stop() float64 {
	close(s.stopc)
	<-s.done
	return max(s.peak, rssMB())
}

// allocMB returns the cumulative heap bytes allocated so far, in MB.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}
