package main

import (
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"waycache/internal/access"
	"waycache/internal/core"
)

// quantile returns the q-quantile (0..1) of xs by the nearest-rank method,
// and how many samples lie strictly above it.
func quantile(xs []time.Duration, q float64) (v time.Duration, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	i = min(max(i, 0), len(s)-1)
	v = s[i]
	for _, x := range s[i+1:] {
		if x > v {
			beyond++
		}
	}
	return v, beyond
}

// ms renders a duration in milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (the mean of the middle two for an even
// count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeProbe watches the Go runtime over a timed phase: the live heap
// after each GC (sampled every 20ms), bytes allocated, and GC pause time.
type runtimeProbe struct {
	stop chan struct{}
	done sync.WaitGroup

	mu   sync.Mutex
	peak uint64 // largest live heap seen

	allocs0 uint64
	pause0  uint64
}

func readRuntime() (live, allocs uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func pauseTotal() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.PauseTotalNs
}

// startProbe collects garbage left by earlier phases and starts watching.
func startProbe() *runtimeProbe {
	runtime.GC()
	p := &runtimeProbe{stop: make(chan struct{})}
	_, p.allocs0 = readRuntime()
	p.pause0 = pauseTotal()
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				p.sample()
			}
		}
	}()
	return p
}

func (p *runtimeProbe) sample() uint64 {
	live, allocs := readRuntime()
	p.mu.Lock()
	p.peak = max(p.peak, live)
	p.mu.Unlock()
	return allocs
}

// runtimeStats is what a probe saw over its phase.
type runtimeStats struct {
	PeakLiveMB float64 // largest live heap after GC over the phase
	AllocMB    float64
	GCPauseMS  float64
}

// finish stops the probe and returns its totals.
func (p *runtimeProbe) finish() runtimeStats {
	close(p.stop)
	p.done.Wait()
	allocs := p.sample()
	return runtimeStats{
		PeakLiveMB: float64(p.peak) / (1 << 20),
		AllocMB:    float64(allocs-p.allocs0) / (1 << 20),
		GCPauseMS:  float64(pauseTotal()-p.pause0) / 1e6,
	}
}

// modelCounts sums the simulated model's counters over a set of results.
// They are exact integers of the simulation, not host measurements: a
// change that only makes the program faster leaves every one identical.
type modelCounts struct {
	Cycles, Committed, Issued, FetchGroups int64
	Branches, BranchMispred                int64
	IFetches, IWayGood                     int64
	Loads, FirstProbeHits, SecondProbes    int64
	MispredWay, MispredDM                  int64
	DL1Accesses, DL1Misses                 int64
	IL1Accesses, IL1Misses                 int64
	L2Accesses, L2Misses, Writebacks       int64
	TableAccesses                          int64
}

func (m *modelCounts) add(r *core.Result) {
	m.Cycles += r.Pipeline.Cycles
	m.Committed += r.Pipeline.Committed
	m.Issued += r.Pipeline.Issued
	m.FetchGroups += r.Pipeline.FetchGroups
	m.Branches += r.Pipeline.Branches
	m.BranchMispred += r.Pipeline.BranchMispred
	m.IFetches += r.IStats.Fetches
	m.IWayGood += r.IStats.ByClass[access.IClassTableCorrect] + r.IStats.ByClass[access.IClassBTBCorrect]
	m.Loads += r.DStats.Loads
	m.FirstProbeHits += r.DStats.ByClass[access.ClassDM] + r.DStats.ByClass[access.ClassParallel] +
		r.DStats.ByClass[access.ClassWayPred] + r.DStats.ByClass[access.ClassSeq]
	m.SecondProbes += r.DAcct.SecondProbes
	m.MispredWay += r.DStats.MispredWay
	m.MispredDM += r.DStats.MispredDM
	m.DL1Accesses += r.DL1.Accesses
	m.DL1Misses += r.DL1.Misses
	m.IL1Accesses += r.IL1.Accesses
	m.IL1Misses += r.IL1.Misses
	m.L2Accesses += r.Hier.L2Accesses
	m.L2Misses += r.Hier.L2Misses
	m.Writebacks += r.Hier.Writebacks
	m.TableAccesses += r.DAcct.TableAccesses + r.IAcct.TableAccesses
}

func countsOf(results []*core.Result) modelCounts {
	var m modelCounts
	for _, r := range results {
		if r != nil {
			m.add(r)
		}
	}
	return m
}

// metrics renders the counts as the per-layer model metrics.
func (m modelCounts) metrics(out map[string]float64) {
	f := func(n int64) float64 { return float64(n) }
	out["pipeline.cycles"] = f(m.Cycles)
	out["pipeline.committed"] = f(m.Committed)
	out["pipeline.ipc"] = ratio(f(m.Committed), f(m.Cycles))
	out["pipeline.issued"] = f(m.Issued)
	out["pipeline.fetch_groups"] = f(m.FetchGroups)
	out["branch.mispred_rate"] = ratio(f(m.BranchMispred), f(m.Branches))
	out["branch.iway_accuracy"] = ratio(f(m.IWayGood), f(m.IFetches))
	out["access.first_probe_hit_ratio"] = ratio(f(m.FirstProbeHits), f(m.Loads))
	out["access.second_probes"] = f(m.SecondProbes)
	out["access.mispred_way"] = f(m.MispredWay)
	out["access.mispred_dm"] = f(m.MispredDM)
	out["cache.dl1.miss_rate"] = ratio(f(m.DL1Misses), f(m.DL1Accesses))
	out["cache.il1.miss_rate"] = ratio(f(m.IL1Misses), f(m.IL1Accesses))
	out["cache.l2.miss_rate"] = ratio(f(m.L2Misses), f(m.L2Accesses))
	out["cache.writebacks"] = f(m.Writebacks)
	out["predict.table_accesses"] = f(m.TableAccesses)
}
