package main

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"waycache/internal/core"
	"waycache/internal/sweep"
	"waycache/internal/trace"
	"waycache/internal/tracestore"
	"waycache/internal/workload"
)

// simInsts is the instruction count of every config of the sim grid.
const simInsts = 50_000

// pinnedSimSHA is the SHA-256 of the sweep JSON sim-walker must
// produce at seed 0: the bytes `sweep -benchmarks all -dpolicies all
// -dways 4 -insts 50000` writes.
const pinnedSimSHA = "ef59208e7c4beec2a1df9c3759494874c29c6cdd15905df321d96fd8dea01d02"

// simGrid is the 88-config grid of sim-walker: the suite x all 8
// d-cache policies at 16 KB 4-way, as cmd/sweep expands
// `-benchmarks all -dpolicies all -dways 4`.
func simGrid() sweep.Grid {
	return sweep.Grid{
		Benchmarks: workload.Names(),
		DPolicies:  sweep.AllDPolicies(),
		DWays:      []int{4},
		Insts:      simInsts,
	}
}

// captures is a set of suite captures ingested into a trace store: one
// per benchmark, each holding n instructions.
type captures struct {
	store *tracestore.Store
	refs  map[string]string // benchmark -> trace://<hash>
	paths map[string]string // hash -> store object path
}

// capture records the first n instructions of every suite benchmark's
// walk at seed into dir/captures and ingests them into a trace store at
// dir/traces. Spans: "program.capture" and "tracestore.put" per benchmark.
func capture(seed uint64, n int64, dir string, t *tracer) (*captures, error) {
	capDir := filepath.Join(dir, "captures")
	if err := os.MkdirAll(capDir, 0o755); err != nil {
		return nil, err
	}
	ts, err := tracestore.Open(filepath.Join(dir, "traces"))
	if err != nil {
		return nil, err
	}
	c := &captures{store: ts, refs: map[string]string{}, paths: map[string]string{}}
	for _, name := range workload.Names() {
		w, err := walker(name, seed)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(capDir, name+".wct")
		s := t.begin("program.capture", 0, 0)
		err = trace.CaptureFile(path, trace.Header{Benchmark: name, Seed: seed, Insts: n}, w)
		s.end()
		if err != nil {
			return nil, err
		}
		s = t.begin("tracestore.put", 0, 0)
		hash, _, err := ts.PutFile(path)
		s.end()
		if err != nil {
			return nil, err
		}
		obj, err := ts.Path(hash)
		if err != nil {
			return nil, err
		}
		c.refs[name] = trace.FormatRef(hash)
		c.paths[hash] = obj
	}
	return c, nil
}

// simBench is the sim-walker workload: cold sweeps of the 88-config grid
// through the sweep engine's pool with one worker and an in-memory store,
// fed by live walkers.
type simBench struct {
	seed uint64
	work string

	cfgs []core.Config
	caps *captures

	firstSHA string // sweep JSON of the first timed sweep
	counts   *modelCounts
	checks   *checkList

	// The replay check's arena and the time it took to decode into it.
	arena  *trace.Arena
	decode time.Duration
}

func newSimBench(seed uint64, work string, checks *checkList) *simBench {
	return &simBench{seed: seed, work: work, checks: checks}
}

// setup captures every profile's stream at the seed into a fresh trace
// store, which the replay check sweeps from.
func (b *simBench) setup(t *tracer) error {
	caps, err := capture(b.seed, simInsts, filepath.Join(b.work, "setup"), t)
	if err != nil {
		return err
	}
	b.caps = caps
	b.cfgs = simGrid().Configs()
	return nil
}

// source fills in what a config streams from: seed 0 walks the suite by
// benchmark name exactly as cmd/sweep does; any other seed hands core a
// lazySource over the re-seeded walk.
func (b *simBench) source(cfg core.Config) core.Config {
	if b.seed != 0 {
		cfg.Source = &lazySource{name: cfg.Benchmark, seed: b.seed}
	}
	return cfg
}

// lazySource is a re-seeded live walk that builds its program on first
// use, so the build falls inside the config's simulation as it does when
// core walks a benchmark by name. It is a window source over the same
// generate-ahead buffer core would put in front of the walker.
type lazySource struct {
	name string
	seed uint64
	ws   trace.WindowSource
}

func (l *lazySource) open() trace.WindowSource {
	if l.ws == nil {
		w, _ := walker(l.name, l.seed) // grid benchmarks are suite names
		l.ws = trace.Windowed(w, sourceWindow)
	}
	return l.ws
}

func (l *lazySource) Next(out *trace.Inst) bool { return l.open().Next(out) }
func (l *lazySource) Window() []trace.Inst      { return l.open().Window() }
func (l *lazySource) Advance(n int)             { l.open().Advance(n) }

// sweepRun is one cold sweep of the grid: results, errors and per-config
// latencies in grid order, the wall time, and (traced) how many configs
// simulated or hit memo.
type sweepRun struct {
	results    []*core.Result
	errs       []error
	lat        []time.Duration
	wall       time.Duration
	sims, hits int64
}

// failures counts the configs that failed.
func (r *sweepRun) failures() int {
	n := 0
	for _, e := range r.errs {
		if e != nil {
			n++
		}
	}
	return n
}

// sweepOnce runs the grid once, cold: untraced through the sweep engine's
// worker pool as cmd/sweep does, traced through the assembled, wrapped
// layers. A config that fails leaves an error in the run.
func (b *simBench) sweepOnce(t *tracer) *sweepRun {
	if t != nil {
		return b.tracedSweep(t)
	}
	n := len(b.cfgs)
	cfgs := make([]core.Config, n)
	for i, cfg := range b.cfgs {
		cfgs[i] = b.source(cfg)
	}
	// With one worker the pool hands configs out in index order and takes
	// the next one as soon as it has reported the last, so a config's
	// latency is the time between completions.
	var start time.Time
	doneAt := make([]time.Duration, n)
	eng := sweep.New(sweep.Options{
		Workers: 1, Store: sweep.NewStore(),
		OnResult: func(i int, _ *core.Result) { doneAt[i] = time.Since(start) },
	})
	start = time.Now()
	results, runErr := eng.RunConfigs(context.Background(), cfgs)
	run := &sweepRun{results: results, errs: make([]error, n), lat: make([]time.Duration, n), wall: time.Since(start)}
	var last time.Duration
	for i, res := range results {
		if res == nil {
			run.errs[i] = cmp.Or(runErr, errors.New("not run"))
			continue
		}
		run.lat[i] = doneAt[i] - last
		last = doneAt[i]
	}
	return run
}

// tracedSweep runs the grid once, cold, through the assembled layers with
// the memo lookup and store the sweep engine would make, one config after
// another.
func (b *simBench) tracedSweep(t *tracer) *sweepRun {
	n := len(b.cfgs)
	run := &sweepRun{results: make([]*core.Result, n), errs: make([]error, n), lat: make([]time.Duration, n)}
	tb := &tracedBackend{b: sweep.NewMemory(), t: t, name: "sweep.memory"}
	t0 := time.Now()
	for i, cfg := range b.cfgs {
		c0 := time.Now()
		var sim bool
		run.results[i], sim, run.errs[i] = b.tracedResult(cfg, t, tb)
		if sim {
			run.sims++
		} else {
			run.hits++
		}
		run.lat[i] = time.Since(c0)
	}
	run.wall = time.Since(t0)
	return run
}

// tracedResult is one config of a traced sweep: the memo lookup and store
// the sweep.Store would make, around a simulation through the assembled
// layers. Spans: "sweep.config" per config, "program.build" for the live
// walker, and the backend and simulate spans under it.
func (b *simBench) tracedResult(cfg core.Config, t *tracer, tb *tracedBackend) (*core.Result, bool, error) {
	op := t.newID()
	s := t.begin("sweep.config", 0, op)
	defer s.end()
	tb.op, tb.parent = op, s.id()
	key, keyed := cfg.Key()
	if b.seed != 0 {
		keyed = false // a re-seeded walker is a custom source: never memoized
	}
	if keyed {
		if res, found, err := tb.Get(key); err != nil || found {
			return res, false, err
		}
	}
	pb := t.begin("program.build", s.id(), op)
	st, err := walkerStream(cfg.Benchmark, b.seed)
	pb.end()
	if err != nil {
		return nil, true, err
	}
	res, err := simulate(cfg, st, t, s.id(), op)
	if err == nil && keyed {
		err = tb.Put(key, res)
	}
	return res, true, err
}

// measure sweeps the grid cold, again and again, for d.
func (b *simBench) measure(d time.Duration, t *tracer) (*phase, error) {
	ph := &phase{}
	probe := startProbe()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		run := b.sweepOnce(t)
		ph.wall += run.wall
		ph.attempted += int64(len(b.cfgs))
		var done []*core.Result
		for j, res := range run.results {
			if run.errs[j] != nil {
				ph.failed++
				b.checks.note("config", run.errs[j].Error())
				continue
			}
			done = append(done, res)
			ph.ops = append(ph.ops, run.lat[j])
		}
		counts := countsOf(done)
		ph.configs += int64(len(done))
		ph.insts += counts.Committed
		ph.configRates = append(ph.configRates, float64(len(done))/run.wall.Seconds())
		ph.instRates = append(ph.instRates, float64(counts.Committed)/run.wall.Seconds())
		ph.simulations += run.sims
		ph.memoHits += run.hits
		if len(done) < len(run.results) {
			continue // no sweep output to check
		}
		sha, err := sweepSHA(run.results)
		if err != nil {
			return nil, err
		}
		if b.firstSHA == "" {
			b.firstSHA, b.counts = sha, &counts
		}
		// Every sweep, traced or not, must reproduce the first sweep's
		// bytes and model counts exactly.
		b.checks.expect("repeat", sha == b.firstSHA && counts == *b.counts,
			fmt.Sprintf("sweep %d differs from the first sweep (sha %s vs %s)", i, sha[:12], b.firstSHA[:12]))
	}
	ph.rt = probe.finish()
	if b.counts != nil {
		ph.counts = *b.counts
	}
	return ph, nil
}

// sweepSHA is the SHA-256 of a complete sweep's JSON bytes.
func sweepSHA(results []*core.Result) (string, error) {
	var buf bytes.Buffer
	if err := sweep.NewSweep(results).WriteJSON(&buf); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// check runs the output checks that are not part of the timed sweeps: at
// seed 0 the sweep bytes must match the pinned hash, and at every seed a
// replay of the set-up's captures, out of the trace store and through a
// fresh arena into the assembled layers, must produce the identical bytes.
//
// The replay does not go through core.Run: core rejects some correct
// replays (see README.md, "Known failure"), so the assembly checks that
// the replay consumed the whole run by the pipeline's committed count.
func (b *simBench) check() {
	if b.firstSHA == "" {
		return
	}
	if b.seed == 0 {
		b.checks.expect("pinned-sha", b.firstSHA == pinnedSimSHA,
			fmt.Sprintf("seed-0 sweep sha %s, pinned %s", b.firstSHA, pinnedSimSHA))
	}
	b.arena = trace.NewArena(0)
	for hash, path := range b.caps.paths {
		t0 := time.Now()
		_, err := b.arena.LoadRef(path, hash)
		b.decode += time.Since(t0)
		if err != nil {
			b.checks.expect("cross-path", false, err.Error())
			return
		}
	}
	results := make([]*core.Result, len(b.cfgs))
	for i, cfg := range b.cfgs {
		hash, _ := trace.ParseRef(b.caps.refs[cfg.Benchmark])
		st, err := replayStream(b.arena, b.caps.paths[hash], hash, cfg)
		if err == nil {
			results[i], err = simulate(cfg, st, nil, 0, 0)
		}
		if err != nil {
			b.checks.expect("cross-path", false, err.Error())
			return
		}
	}
	sha, err := sweepSHA(results)
	b.checks.expect("cross-path", err == nil && sha == b.firstSHA,
		"walker-fed and replay-fed sweeps of the same seed differ")
}

// layers adds the workload-specific per-layer metrics.
func (b *simBench) layers(m map[string]float64, ix spanIndex, ph *phase) {
	m["sweep.simulations"] = float64(ph.simulations)
	m["sweep.memo_hits"] = float64(ph.memoHits)
	m["sweep.hit_ratio"] = ratio(float64(ph.memoHits), float64(ph.memoHits+ph.simulations))
	// The source of a live run is the walker behind its buffer.
	src, insts := float64(ix.total("trace.source")), float64(ix.attrSum("pipeline.Run", "insts"))
	m["program.walker.ns_per_inst"] = ratio(src, insts)
	m["program.walker.share"] = ratio(src, float64(ix.total("sweep.config")))
	m["program.build_us_per_config"] = ratio(float64(ix.total("program.build"))/1e3, float64(len(ix["program.build"])))
	if b.arena != nil {
		m["trace.arena.resident_mb"] = arenaMB(b.arena)
		m["trace.arena.decode_ms"] = ms(b.decode)
	}
}

func (b *simBench) close() {}

// parallel calls fn(w, i) for every i in [0, n) from the given number of
// worker goroutines, in index order as workers free up; w is the calling
// worker's number.
func parallel(n, workers int, fn func(w, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}
