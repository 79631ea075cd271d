// Command waybench is the end-to-end and per-layer benchmark of waycache.
// It runs one named workload in this process and prints, as the last line
// of its standard output, one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// workload also runs a traced phase and the metrics are the per-layer
// ones, derived from spans that are written to .bench_build/spans/. The
// line before it is a JSON object of provenance, sample counts and check
// results. See README.md for the workloads and the metric map.
//
//	go run . -workload sim-walker -seed 1 -seconds 30 -trace 0
//
// A failed output check sets "correct" to false and is described on
// standard error; the exit status is non-zero only when no result could
// be produced.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
	"unsafe"

	"waycache/internal/program"
	"waycache/internal/trace"
	"waycache/internal/workload"
)

// setupReps is how many times each workload sets up: about three seconds
// of set-ups on sim-walker, where one takes some 40 ms and a median over a
// short stretch still follows the host's passing slow spells, and five
// corpus warm-ups on fleet-warm. setup_s is their median, and the last
// set-up is the one measured.
var setupReps = map[string]int{"sim-walker": 75, "fleet-warm": 5}

// buildDir is the benchmark's scratch root inside the checkout.
const buildDir = ".bench_build"

// phase is what one timed phase of a workload measured.
type phase struct {
	wall              time.Duration
	configs, insts    int64
	attempted, failed int64
	ops               []time.Duration // unit-operation latencies
	queries           []time.Duration // fleet-warm query latencies

	// Throughput per measurement window (one sweep on sim-walker, one second
	// on fleet-warm); the reported rates are their medians, so a passing
	// disturbance on the host moves them less than a whole-phase mean.
	configRates, instRates []float64

	simulations, memoHits int64
	logBytes              int64

	// fleet-warm: coordinator reports.
	pieces, attempts, steals, speculations int64

	rt     runtimeStats
	counts modelCounts
}

// bench is one workload.
type bench interface {
	setup(t *tracer) error
	measure(d time.Duration, t *tracer) (*phase, error)
	check()
	layers(m map[string]float64, ix spanIndex, ph *phase)
	close()
}

// checkList collects the output checks a run made and notes on every
// failure, checks and failed operations alike. It is safe for concurrent
// use.
type checkList struct {
	mu     sync.Mutex
	ran    int64
	failed int64
	notes  []string
}

// expect records one check.
func (c *checkList) expect(name string, ok bool, msg string) {
	c.mu.Lock()
	c.ran++
	c.mu.Unlock()
	if !ok {
		c.mu.Lock()
		c.failed++
		c.mu.Unlock()
		c.note(name, msg)
	}
}

// note records why something failed; the first 20 distinct notes are
// kept.
func (c *checkList) note(name, msg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := name + ": " + msg; len(c.notes) < 20 && !slices.Contains(c.notes, n) {
		c.notes = append(c.notes, n)
	}
}

// walker returns a live walker over the named suite benchmark. Seed 0
// walks it exactly as core does (the profile's own walk seed); any other
// seed keeps the profile's program and re-seeds its walk, which changes
// every branch outcome and data address of the dynamic stream. Keeping
// the program fixed keeps the simulated work per instruction close across
// seeds, so seeds vary the inputs without swamping the host measurement.
func walker(name string, seed uint64) (*program.Walker, error) {
	p, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	if seed == 0 {
		return p.NewWalker(), nil
	}
	return program.NewWalker(p.MustBuild(), splitmix(p.Seed^splitmix(seed))), nil
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// arenaMB is the decoded-trace footprint of an arena.
func arenaMB(a *trace.Arena) float64 {
	return float64(a.Resident()) * float64(unsafe.Sizeof(trace.Inst{})) / (1 << 20)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: sim-walker or fleet-warm")
	seed := flag.Uint64("seed", 0, "input seed (0: the suite profiles as cmd/sweep runs them)")
	seconds := flag.Float64("seconds", 10, "length of each timed phase")
	traced := flag.Int("trace", 0, "1: add a traced phase and report the per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "waybench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, d time.Duration, traced bool, stdout io.Writer) error {
	work := filepath.Join(buildDir, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	checks := &checkList{}
	var b bench
	switch name {
	case "sim-walker":
		b = newSimBench(seed, work, checks)
	case "fleet-warm":
		b = newFleetBench(seed, work, checks)
	default:
		return fmt.Errorf("unknown workload %q (want sim-walker or fleet-warm)", name)
	}
	defer b.close()

	var t *tracer
	if traced {
		t = newTracer()
	}
	var setups []float64
	for i := 0; i < setupReps[name]; i++ {
		// Each set-up starts from nothing and a collected heap; clearing
		// the last one's state is not timed.
		b.close()
		if err := os.RemoveAll(filepath.Join(work, "setup")); err != nil {
			return err
		}
		runtime.GC()
		t0 := time.Now()
		if err := b.setup(t); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// A traced run splits its time between the untraced phase, which
	// gives the runtime figures and the tracing overhead's baseline, and
	// the traced phase.
	if traced {
		d /= 2
	}
	ph, err := b.measure(d, nil)
	if err != nil {
		return err
	}
	var tph *phase
	if traced {
		if tph, err = b.measure(d, t); err != nil {
			return err
		}
	}
	b.check()

	attempted := ph.attempted + checks.ran
	failed := ph.failed + checks.failed
	if tph != nil {
		attempted += tph.attempted
		failed += tph.failed
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}

	opP50, _ := quantile(ph.ops, 0.50)
	opP90, beyond90 := quantile(ph.ops, 0.90)
	opP99, beyond99 := quantile(ph.ops, 0.99)
	qP50, _ := quantile(ph.queries, 0.50)
	qP99, qBeyond99 := quantile(ph.queries, 0.99)
	detail := map[string]any{
		"workload":   name,
		"provenance": provenance(seed),
		"samples": map[string]any{
			"setup": len(setups), "ops": len(ph.ops), "ops_beyond_p90": beyond90, "ops_beyond_p99": beyond99,
			"rate_windows": len(ph.configRates), "queries": len(ph.queries), "queries_beyond_p99": qBeyond99,
		},
		"op_p90_ms":    ms(opP90),
		"op_p99_ms":    ms(opP99),
		"query_p50_ms": ms(qP50),
		"query_p99_ms": ms(qP99),
		"error_rate":   ratio(float64(failed), float64(attempted)),
		"checks":       map[string]any{"ran": checks.ran, "failed": checks.failed, "notes": checks.notes},
	}

	if !traced {
		for k, v := range map[string]metric{
			"setup_s":         {median(setups), "s"},
			"configs_per_s":   {median(ph.configRates), "1/s"},
			"sim_insts_per_s": {median(ph.instRates), "1/s"},
			"op_p50_ms":       {ms(opP50), "ms"},
			"peak_heap_mb":    {ph.rt.PeakLiveMB, "MB"},
		} {
			res.Metrics[k] = v
		}
	} else {
		path := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := t.write(path); err != nil {
			return err
		}
		detail["spans"] = path
		m := layerMetrics(b, t, ph, tph, failed, attempted, len(setups))
		for k, v := range m {
			res.Metrics[k] = metric{v, layerUnits[k]}
		}
	}

	enc := json.NewEncoder(stdout)
	if err := enc.Encode(detail); err != nil {
		return err
	}
	if err := enc.Encode(res); err != nil {
		return err
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "waybench: %d of %d operations failed: %s\n", failed, attempted, strings.Join(checks.notes, "; "))
	}
	return nil
}

// layerMetrics derives every per-layer metric from the traced phase's
// spans, the untraced phase's runtime figures and the model counts.
// Layers a workload does not exercise report 0.
func layerMetrics(b bench, t *tracer, ph, tph *phase, failed, attempted int64, setups int) map[string]float64 {
	ix := indexSpans(t.snapshot())
	m := map[string]float64{}
	for k := range layerUnits {
		m[k] = 0
	}
	insts := float64(ix.attrSum("pipeline.Run", "insts"))
	configTime := float64(ix.total("sweep.config"))
	src := float64(ix.total("trace.source"))
	dc := float64(ix.total("access.dcache"))
	self := float64(ix.total("pipeline.Run")) - src - dc
	m["trace.source.ns_per_inst"] = ratio(src, insts)
	m["tracestore.put_ms"] = float64(ix.total("tracestore.put")) / 1e6 / float64(setups)
	m["pipeline.self_ns_per_inst"] = ratio(self, insts)
	m["pipeline.share"] = ratio(self, configTime)
	m["access.ns_per_op"] = ratio(dc, float64(ix.count("access.dcache")))
	m["access.share"] = ratio(dc, configTime)
	m["access.loads"] = float64(ix.attrSum("access.dcache", "loads"))
	m["access.stores"] = float64(ix.attrSum("access.dcache", "stores"))
	if n := ix.count("core.build"); n > 0 {
		m["core.build_us_per_config"] = float64(ix.total("core.build")) / float64(n) / 1e3
	}
	p50us := func(name string) float64 {
		v, _ := quantile(ix.durations(name), 0.5)
		return float64(v) / 1e3
	}
	m["resultdb.get_us_p50"] = p50us("resultdb.get")
	m["resultdb.gets"] = float64(len(ix["resultdb.get"]))
	q50, _ := quantile(tph.queries, 0.5)
	q99, _ := quantile(tph.queries, 0.99)
	m["query.p50_ms"], m["query.p99_ms"] = ms(q50), ms(q99)
	// The untraced phase's tail, which host noise moves too much to gate.
	op90, _ := quantile(ph.ops, 0.90)
	op99, _ := quantile(ph.ops, 0.99)
	m["op.p90_ms"], m["op.p99_ms"] = ms(op90), ms(op99)
	m["runtime.alloc_kb_per_config"] = ratio(ph.rt.AllocMB*1024, float64(ph.configs))
	m["runtime.gc_pause_ms"] = ph.rt.GCPauseMS
	m["tracing.overhead_ratio"] = ratio(tph.wall.Seconds()/float64(max(tph.attempted, 1)), ph.wall.Seconds()/float64(max(ph.attempted, 1)))
	m["error_rate"] = ratio(float64(failed), float64(attempted))
	b.layers(m, ix, tph)
	tph.counts.metrics(m)
	return m
}

// layerUnits names every per-layer metric and its unit.
var layerUnits = map[string]string{
	"program.walker.ns_per_inst":   "ns",
	"program.walker.share":         "ratio",
	"program.build_us_per_config":  "us",
	"trace.arena.decode_ms":        "ms",
	"trace.arena.resident_mb":      "MB",
	"trace.source.ns_per_inst":     "ns",
	"tracestore.put_ms":            "ms",
	"pipeline.self_ns_per_inst":    "ns",
	"pipeline.share":               "ratio",
	"access.ns_per_op":             "ns",
	"access.share":                 "ratio",
	"access.loads":                 "count",
	"access.stores":                "count",
	"core.build_us_per_config":     "us",
	"resultdb.put_us_p50":          "us",
	"resultdb.puts":                "count",
	"resultdb.get_us_p50":          "us",
	"resultdb.gets":                "count",
	"resultdb.log_mb":              "MB",
	"sweep.simulations":            "count",
	"sweep.memo_hits":              "count",
	"sweep.hit_ratio":              "ratio",
	"server.submit_ms_p50":         "ms",
	"server.events_ms_p50":         "ms",
	"server.export_ms_p50":         "ms",
	"server.export_kb_per_config":  "KB",
	"server.query_ms_p50":          "ms",
	"server.requests":              "count",
	"server.non2xx":                "count",
	"coord.requests_per_run":       "count",
	"coord.request_ms_p50":         "ms",
	"coord.self_ms_per_run":        "ms",
	"coord.attempts_per_piece":     "count",
	"coord.steals":                 "count",
	"coord.speculations":           "count",
	"op.p90_ms":                    "ms",
	"op.p99_ms":                    "ms",
	"query.p50_ms":                 "ms",
	"query.p99_ms":                 "ms",
	"runtime.alloc_kb_per_config":  "KB",
	"runtime.gc_pause_ms":          "ms",
	"tracing.overhead_ratio":       "ratio",
	"error_rate":                   "ratio",
	"pipeline.cycles":              "count",
	"pipeline.committed":           "count",
	"pipeline.ipc":                 "ratio",
	"pipeline.issued":              "count",
	"pipeline.fetch_groups":        "count",
	"branch.mispred_rate":          "ratio",
	"branch.iway_accuracy":         "ratio",
	"access.first_probe_hit_ratio": "ratio",
	"access.second_probes":         "count",
	"access.mispred_way":           "count",
	"access.mispred_dm":            "count",
	"cache.dl1.miss_rate":          "ratio",
	"cache.il1.miss_rate":          "ratio",
	"cache.l2.miss_rate":           "ratio",
	"cache.writebacks":             "count",
	"predict.table_accesses":       "count",
}

// provenance describes the host and the code a result came from.
func provenance(seed uint64) map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"seed":       seed,
	}
}

// commit names the code under test: the VCS revision stamped into the
// binary when it was built from a repository ("+modified" with uncommitted
// changes), and otherwise a SHA-256 over the checkout's Go sources and
// module files.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+modified"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (path == buildDir || path == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
