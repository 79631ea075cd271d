package sweep

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"

	"waycache/internal/core"
	"waycache/internal/trace"
	"waycache/internal/tracestore"
	"waycache/internal/workload"
)

// traceResolver resolves configs onto captured traces, from two sources:
// a trace directory mapping benchmark names to <dir>/<benchmark>.wct
// files, and a content-addressed store serving trace://<hash> references
// carried by the configs themselves. Only locating the file differs
// between the sources; probing, checking and falling back are shared.
// Resolution is conservative: a trace is used only when it provably
// covers the requested run (right benchmark, enough instructions — and,
// for directory captures, which claim to mirror the walker, the
// workload's current seed); anything else falls back to the walker,
// which is always correct, just slower. Fallbacks are never silent:
// every benchmark that reverted to the walker is recorded with its
// reason (see fallbacks), so a run that quietly re-simulated can be
// surfaced to the caller. A config with no walker to fall back to (an
// imported external workload) is left in place instead, so the run
// fails with the resolver's reason rather than silently computing
// something else.
type traceResolver struct {
	dir   string
	store *tracestore.Store

	mu        sync.Mutex            //wclint:lockrank 38
	probes    map[string]traceProbe // benchmark or trace:// ref -> cached probe
	fallbacks map[string]string     // benchmark (or short hash) -> why the walker ran instead
}

// traceProbe is the cached verdict on one capture file: where it is and
// what its header declares, or why it cannot be read at all.
type traceProbe struct {
	name   string // how reasons name the capture: "capture" or "trace <short hash>"
	path   string
	mirror bool // a directory capture, standing in for the walker itself
	h      trace.Header
	reason string // non-empty: the capture is missing or unreadable
}

func newTraceResolver(dir string, store *tracestore.Store) *traceResolver {
	if dir == "" && store == nil {
		return nil
	}
	return &traceResolver{
		dir:       dir,
		store:     store,
		probes:    make(map[string]traceProbe),
		fallbacks: make(map[string]string),
	}
}

// resolve returns cfg pointed at a captured trace when one covers the
// run: a directory capture's path in Trace, or a trace:// reference kept
// with the store attached. Otherwise it returns the fallback config. A
// nil resolver resolves nothing — except that trace:// references still
// need a store, so they fail in core with a clear error rather than
// silently walking.
func (r *traceResolver) resolve(cfg core.Config) core.Config {
	if cfg.Source != nil || r == nil {
		return cfg
	}
	hash, isRef := trace.ParseRef(cfg.Trace)
	key := cfg.Trace
	if !isRef {
		if r.dir == "" || cfg.Trace != "" || cfg.Benchmark == "" {
			return cfg
		}
		key = cfg.Benchmark
	}
	p := r.probe(key, hash)
	why := p.unusable(cfg)
	if why == "" {
		if isRef {
			cfg.TraceStore = r.store
		} else {
			cfg.Trace = p.path
		}
		return cfg
	}

	fbKey := cfg.Benchmark
	if fbKey == "" {
		fbKey = trace.ShortHash(hash)
	}
	r.noteFallback(fbKey, why)
	if _, err := workload.ByName(cfg.Benchmark); err == nil {
		// The benchmark has a synthetic walker: run it.
		cfg.Trace = ""
		cfg.TraceStore = nil
		return cfg
	}
	// No walker exists for this workload. Keep the config (and the store,
	// which may still be nil) so the run fails with the real resolution
	// error instead of computing something else.
	cfg.TraceStore = r.store
	return cfg
}

// probe opens the capture behind key — the benchmark of a directory
// capture, or the trace:// reference of hash — once per engine and caches
// its header; concurrent workers share the cached verdict.
func (r *traceResolver) probe(key, hash string) traceProbe {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.probes[key]; ok {
		return p
	}
	p := r.locate(key, hash)
	if p.reason == "" {
		if f, err := trace.Open(p.path); err != nil {
			p.reason = fmt.Sprintf("%s: fetch failed: %v", p.name, err)
		} else {
			p.h = f.Header()
			f.Close()
		}
	}
	r.probes[key] = p
	return p
}

// locate finds the file behind key: <dir>/<benchmark>.wct for a directory
// capture, or the store object of hash. A reference's reasons split the
// failure classes a distributed operator must tell apart: no store
// configured, hash not in the store (fetch/push it), and — from probe —
// object present but unreadable (corrupt fetch or disk fault).
func (r *traceResolver) locate(key, hash string) traceProbe {
	if hash == "" {
		return traceProbe{name: "capture", path: filepath.Join(r.dir, key+trace.FileExt), mirror: true}
	}
	p := traceProbe{name: "trace " + trace.ShortHash(hash)}
	if r.store == nil {
		p.reason = p.name + ": no trace store configured (-tracestore)"
		return p
	}
	path, err := r.store.Path(hash)
	switch {
	case errors.Is(err, tracestore.ErrNotFound):
		p.reason = p.name + ": not in the trace store"
	case err != nil:
		p.reason = fmt.Sprintf("%s: %v", p.name, err)
	}
	p.path = path
	return p
}

// unusable returns why the probed capture cannot drive cfg's run, or ""
// when it covers it. A capture that mirrors the walker must also name
// the benchmark exactly, carry the workload's current seed — a trace
// recorded before a profile's seed (and thus its stream) changed no
// longer mirrors the walker — and declare its instruction count: core
// could replay an undeclared count, but coverage could not be known up
// front, and a mid-sweep fallback would not be possible.
func (p traceProbe) unusable(cfg core.Config) string {
	if p.reason != "" {
		return p.reason
	}
	h := p.h
	if h.Benchmark != cfg.Benchmark && (p.mirror || cfg.Benchmark != "" && h.Benchmark != "") {
		return fmt.Sprintf("%s is of benchmark %q, not %q", p.name, h.Benchmark, cfg.Benchmark)
	}
	if p.mirror {
		prof, err := workload.ByName(cfg.Benchmark)
		switch {
		case err != nil:
			return err.Error()
		case h.Seed != prof.Seed:
			return fmt.Sprintf("%s seed %d is stale (workload seed is now %d)", p.name, h.Seed, prof.Seed)
		case h.Insts <= 0:
			return p.name + " declares no instruction count"
		}
	}
	if need := cfg.Canonical().Insts; h.Insts > 0 && h.Insts < need {
		return fmt.Sprintf("%s holds %d instructions, run needs %d", p.name, h.Insts, need)
	}
	return ""
}

// noteFallback records that bench ran from the walker and why. Per-config
// reasons (a too-short capture under a larger Insts) overwrite earlier
// ones; one reason per benchmark is what a summary needs.
func (r *traceResolver) noteFallback(bench, reason string) {
	r.mu.Lock()
	r.fallbacks[bench] = reason
	r.mu.Unlock()
}

// fallbackReport returns a copy of every benchmark that reverted to the
// walker, with its reason. Nil resolver (no trace dir or store) reports
// nothing.
func (r *traceResolver) fallbackReport() map[string]string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.fallbacks) == 0 {
		return nil
	}
	out := make(map[string]string, len(r.fallbacks))
	for b, why := range r.fallbacks {
		out[b] = why
	}
	return out
}

// FormatFallbacks renders a fallback report (see Engine.TraceFallbacks)
// as one "benchmark: reason" line per entry, sorted by benchmark, for CLI
// and log summaries.
func FormatFallbacks(fb map[string]string) []string {
	if len(fb) == 0 {
		return nil
	}
	benches := make([]string, 0, len(fb))
	for b := range fb {
		benches = append(benches, b)
	}
	sort.Strings(benches)
	lines := make([]string, len(benches))
	for i, b := range benches {
		lines[i] = fmt.Sprintf("%s: %s", b, fb[b])
	}
	return lines
}
