package main

import (
	"bytes"
	"testing"
	"time"

	"waycache/internal/core"
	"waycache/internal/sweep"
	"waycache/internal/trace"
)

// encode renders a result in core's canonical bytes. A re-seeded walker
// run carries its custom source in the config, which has no encoding;
// the source is cleared first, so two runs compare on everything else.
func encode(t *testing.T, r *core.Result) []byte {
	t.Helper()
	rr := *r
	rr.Config.Source = nil
	data, err := core.EncodeResult(&rr)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestAssemblyMatchesCoreRun holds the benchmark's assembly of the sim
// layers byte-identical to core.Run, bare and with the source and d-cache
// wrappers of the traced run, for every config of the sim grid (live
// walkers at two seeds, and trace:// replays) and of the fleet corpus.
func TestAssemblyMatchesCoreRun(t *testing.T) {
	const insts = 3_000
	check := func(name string, cfg core.Config, want *core.Result, st func() stream) {
		t.Helper()
		for _, tr := range []*tracer{nil, newTracer()} {
			got, err := simulate(cfg, st(), tr, 0, 0)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.Equal(encode(t, got), encode(t, want)) {
				t.Fatalf("%s (traced %v): assembled result differs from core.Run", name, tr != nil)
			}
		}
	}
	walkerOf := func(name string, seed uint64) func() stream {
		return func() stream {
			st, err := walkerStream(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
	}

	for _, seed := range []uint64{0, 3} {
		g := simGrid()
		g.Insts = insts
		for _, cfg := range g.Configs() {
			run := cfg
			if seed != 0 {
				w, err := walker(cfg.Benchmark, seed)
				if err != nil {
					t.Fatal(err)
				}
				run.Source = w
			}
			want, err := core.Run(run)
			if err != nil {
				t.Fatal(err)
			}
			check(cfg.Benchmark+"/"+cfg.DPolicy.String(), cfg, want, walkerOf(cfg.Benchmark, seed))
		}

		dir := t.TempDir()
		caps, err := capture(seed, insts, dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		g.TraceRefs = caps.refs
		for _, cfg := range g.Configs() {
			cfg.TraceStore = caps.store
			want, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			hash, _ := trace.ParseRef(cfg.Trace)
			check("replay "+cfg.Benchmark+"/"+cfg.DPolicy.String(), cfg, want, func() stream {
				st, err := replayStream(trace.NewArena(0), caps.paths[hash], hash, cfg.Canonical())
				if err != nil {
					t.Fatal(err)
				}
				return st
			})
		}
	}

	for _, cfg := range corpusGrid().Configs() {
		want, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		check("corpus "+cfg.Benchmark, cfg, want, walkerOf(cfg.Benchmark, 0))
	}
}

// TestReplayCheckAcceptsFullRuns replays a capture whose run ends without
// the pipeline asking its source for another window (go at seed 22, the
// sim grid's instruction count), so the replay's own consumed count is
// still 0 when the run ends. The replay check must accept the run and
// match the live walk byte for byte.
func TestReplayCheckAcceptsFullRuns(t *testing.T) {
	const seed = 22
	dir := t.TempDir()
	caps, err := capture(seed, simInsts, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := simGrid().Configs()[0]
	cfg.Benchmark = "go"
	run := cfg
	if run.Source, err = walker(cfg.Benchmark, seed); err != nil {
		t.Fatal(err)
	}
	want, err := core.Run(run)
	if err != nil {
		t.Fatal(err)
	}
	hash, _ := trace.ParseRef(caps.refs[cfg.Benchmark])
	st, err := replayStream(trace.NewArena(0), caps.paths[hash], hash, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := simulate(cfg, st, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, got), encode(t, want)) {
		t.Fatal("replayed result differs from the live walk")
	}
}

// TestBackendWrapperChangesNothing runs one grid through a store over the
// bare backends and over the traced wrapper, and requires identical sweep
// bytes, scans and spans for every call.
func TestBackendWrapperChangesNothing(t *testing.T) {
	g := simGrid()
	g.Insts = 2_000
	g.Benchmarks = g.Benchmarks[:3]
	sweepOver := func(b sweep.Backend) ([]byte, int) {
		eng := sweep.New(sweep.Options{Workers: 2, Store: sweep.NewStoreOn(b)})
		sw, err := eng.Run(t.Context(), g)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		sw.WriteJSON(&buf)
		n := 0
		eng.Store().Scan(func(string, *core.Result) error { n++; return nil })
		return buf.Bytes(), n
	}
	want, wantN := sweepOver(sweep.NewMemory())
	tr := newTracer()
	got, gotN := sweepOver(&tracedBackend{b: sweep.NewMemory(), t: tr, name: "sweep.memory"})
	if !bytes.Equal(got, want) || gotN != wantN {
		t.Fatalf("sweep over the traced backend differs (%d vs %d results scanned)", gotN, wantN)
	}
	ix := indexSpans(tr.snapshot())
	if n := len(g.Configs()); len(ix["sweep.memory.get"]) != n || len(ix["sweep.memory.put"]) != n {
		t.Fatalf("want %d get and put spans, got %d and %d", n, len(ix["sweep.memory.get"]), len(ix["sweep.memory.put"]))
	}
}

// TestSimPhasesAgree runs one untraced and one traced sweep of sim-walker
// and then its checks: every sweep must reproduce the first one's bytes
// and model counts, so the traced layers change no output, and the replay
// of the captures must too.
func TestSimPhasesAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the 88-config grid three times")
	}
	checks := &checkList{}
	b := newSimBench(5, t.TempDir(), checks)
	if err := b.setup(nil); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	for _, ph := range []*tracer{nil, tr} {
		if _, err := b.measure(0, ph); err != nil {
			t.Fatal(err)
		}
	}
	b.check()
	if checks.failed != 0 || checks.ran == 0 {
		t.Fatalf("%d of %d checks failed: %v", checks.failed, checks.ran, checks.notes)
	}
	if len(tr.snapshot()) == 0 {
		t.Fatal("traced sweep recorded no spans")
	}
}

// TestFleetWrappersChangeNothing runs the fleet untraced and then with
// the traced transport, middleware and backend: every merge and every
// query answer of both phases must match the corpus, and each server span
// must join the client request that caused it.
func TestFleetWrappersChangeNothing(t *testing.T) {
	checks := &checkList{}
	b := newFleetBench(7, t.TempDir(), checks)
	defer b.close()
	if err := b.setup(nil); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	for _, ph := range []*tracer{nil, tr} {
		p, err := b.measure(500*time.Millisecond, ph)
		if err != nil {
			t.Fatal(err)
		}
		if p.attempted == 0 || p.failed != 0 {
			t.Fatalf("phase attempted %d, failed %d", p.attempted, p.failed)
		}
	}
	if checks.failed != 0 {
		t.Fatal(checks.notes)
	}
	spans := tr.snapshot()
	requests := map[int64]bool{}
	for _, s := range spans {
		if s.Name == "coord.request" {
			requests[s.ID] = true
		}
	}
	served := 0
	for _, s := range spans {
		if s.Name == "server.submit" || s.Name == "server.export" || s.Name == "server.query" {
			served++
			if !requests[s.Parent] {
				t.Fatalf("%s span %d has no client request parent", s.Name, s.ID)
			}
		}
	}
	if served == 0 {
		t.Fatal("no server spans recorded")
	}
}
