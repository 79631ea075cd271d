package main

import (
	"fmt"

	"waycache/internal/access"
	"waycache/internal/branch"
	"waycache/internal/cache"
	"waycache/internal/core"
	"waycache/internal/energy"
	"waycache/internal/pipeline"
	"waycache/internal/trace"
	"waycache/internal/wattch"
)

// sourceWindow matches core's generate-ahead buffer in front of a live
// walker, so assembled runs feed the pipeline the same windows.
const sourceWindow = 512

// stream is the instruction stream of one assembled run: the window
// source, the benchmark name the result carries, and an optional check
// run with the pipeline's committed count once it has drained the source
// (a replay that ran dry).
type stream struct {
	src    trace.WindowSource
	name   string
	finish func(committed int64) error
}

// walkerStream returns a live walker over the named benchmark at seed,
// buffered as core.Run buffers it.
func walkerStream(name string, seed uint64) (stream, error) {
	w, err := walker(name, seed)
	if err != nil {
		return stream{}, err
	}
	return stream{src: trace.Windowed(w, sourceWindow), name: name}, nil
}

// replayStream returns an arena replay of the capture stored at path with
// content hash hash, validated against the run as core validates a
// trace:// reference, except that it tells a replay that ran dry by the
// instructions the pipeline committed. The pipeline reports what it
// consumed only when it asks for the next window, so after a run that
// never asked again the replay's own count is stale; core reads that count
// and so rejects such runs (README.md, "Known failure").
func replayStream(arena *trace.Arena, path, hash string, cfg core.Config) (stream, error) {
	src, err := arena.LoadRef(path, hash)
	if err != nil {
		return stream{}, err
	}
	h := src.Header()
	if h.Insts > 0 && h.Insts < cfg.Insts {
		return stream{}, fmt.Errorf("trace %s holds %d instructions, run needs %d", trace.ShortHash(hash), h.Insts, cfg.Insts)
	}
	name := cfg.Benchmark
	if name == "" {
		name = h.Benchmark
	}
	finish := func(committed int64) error {
		if committed < cfg.Insts {
			if err := src.Err(); err != nil {
				return err
			}
			return fmt.Errorf("trace ended after %d of %d instructions", committed, cfg.Insts)
		}
		return nil
	}
	return stream{src: src, name: name, finish: finish}, nil
}

// costsFor is the energy model core applies to one cache geometry.
func costsFor(cfg core.Config, size, ways, block int) (energy.Costs, error) {
	if cfg.UsePaperCosts {
		return energy.PaperCosts(), nil
	}
	return energy.DefaultCacti().CostsFor(energy.Geometry{SizeBytes: size, Ways: ways, BlockBytes: block})
}

// simulate runs one configuration the way core.Run does, but assembled
// here from each layer's public constructor, so that with a tracer it can
// time the trace source and the d-cache controller from outside. With a
// nil tracer it adds nothing. Spans: "core.build" (the constructors),
// "pipeline.Run", and under it the rollups "trace.source" and
// "access.dcache"; all parented on parent and tagged with op.
func simulate(cfg core.Config, st stream, t *tracer, parent, op int64) (*core.Result, error) {
	cfg = cfg.Canonical()
	build := t.begin("core.build", parent, op)
	dcosts, err := costsFor(cfg, cfg.DSize, cfg.DWays, cfg.DBlock)
	if err != nil {
		return nil, err
	}
	icosts, err := costsFor(cfg, cfg.ISize, cfg.IWays, cfg.IBlock)
	if err != nil {
		return nil, err
	}
	dcfg := access.DConfig{
		Policy:      cfg.DPolicy,
		Cache:       cache.Config{Name: "L1d", SizeBytes: cfg.DSize, Ways: cfg.DWays, BlockBytes: cfg.DBlock},
		BaseLatency: cfg.DLatency,
		Costs:       dcosts,
		TableSize:   cfg.TableSize,
		VictimSize:  cfg.VictimSize,
	}
	icfg := access.IConfig{
		Policy:      cfg.IPolicy,
		Cache:       cache.Config{Name: "L1i", SizeBytes: cfg.ISize, Ways: cfg.IWays, BlockBytes: cfg.IBlock},
		BaseLatency: 1,
		Costs:       icosts,
	}
	hier := cache.DefaultHierarchy(32)
	var dc access.DController
	if cfg.SelectiveWays > 0 {
		dc = access.NewSelectiveWays(dcfg, cfg.SelectiveWays, hier)
	} else {
		dc = access.NewDCache(dcfg, hier)
	}
	ic := access.NewICache(icfg, hier)
	fe := branch.NewFrontEnd()
	if cfg.TableSize > 0 {
		fe.SAWP = branch.NewSAWP(cfg.TableSize)
	}
	var (
		src    trace.WindowSource = st.src
		tsrc   *timedSource
		tdc    *timedDCache
		pipeDC = dc
	)
	if t != nil {
		tsrc = &timedSource{src: st.src}
		src = tsrc
		tdc = &timedDCache{dc: dc}
		pipeDC = tdc
	}
	pipe := pipeline.New(cfg.Core, trace.NewLimit(src, cfg.Insts), pipeDC, ic, fe)
	build.end()

	run := t.begin("pipeline.Run", parent, op)
	ps := pipe.Run()
	if run != nil {
		run.attr("insts", ps.Committed)
		run.end()
		t.add(span{Name: "trace.source", ID: t.newID(), Parent: run.id(), Op: op,
			Start: run.s.Start, End: run.s.End, Busy: int64(tsrc.busy), Count: tsrc.calls,
			Attrs: map[string]int64{"insts": ps.Committed}})
		t.add(span{Name: "access.dcache", ID: t.newID(), Parent: run.id(), Op: op,
			Start: run.s.Start, End: run.s.End, Busy: int64(tdc.busy), Count: tdc.loads + tdc.stores,
			Attrs: map[string]int64{"loads": tdc.loads, "stores": tdc.stores}})
	}
	if st.finish != nil {
		if err := st.finish(ps.Committed); err != nil {
			return nil, fmt.Errorf("replaying %s: %w", st.name, err)
		}
	}
	res := &core.Result{
		Benchmark: st.name,
		Config:    cfg,
		Pipeline:  ps,
		DStats:    dc.Stats(),
		IStats:    ic.Stats(),
		DAcct:     *dc.Account(),
		IAcct:     *ic.Acct,
		DL1:       dc.CacheStats(),
		IL1:       ic.L1.Stats(),
		Hier:      hier.Stats(),
	}
	res.Power = wattch.Compute(ps, dc.Account(), ic.Acct, hier.Stats(), wattch.DefaultUnits())
	return res, nil
}
