package main

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"waycache/internal/coord"
	"waycache/internal/core"
	"waycache/internal/resultdb"
	"waycache/internal/server"
	"waycache/internal/sweep"
	"waycache/internal/workload"
)

// fleetInsts is the instruction count of every corpus config.
const fleetInsts = 2_000

// Corpus axes: the suite x 8 d-policies x these ways x these sizes.
var (
	fleetWays  = []int{1, 2, 4, 8}
	fleetSizes = []int{8 << 10, 16 << 10, 32 << 10}
)

// fleetBench is the fleet-warm workload: two in-process waycached hosts,
// each over its own resultdb holding the whole 1056-config corpus, driven
// by a closed loop of one coordinator client (coord.Run over random
// sub-grids) and one query client. Every config is a memo hit.
type fleetBench struct {
	seed   uint64
	work   string
	checks *checkList
	setNo  int
	phases int

	dbs     [2]*resultdb.DB // each host's resultdb
	local   *sweep.Engine   // single-host reference over the corpus
	records []sweep.Record  // the corpus, sorted as the servers sort it
	counts  modelCounts
}

func newFleetBench(seed uint64, work string, checks *checkList) *fleetBench {
	return &fleetBench{seed: seed, work: work, checks: checks}
}

// corpusGrid is the suite, by benchmark name, as `sweepctl -benchmarks
// all` sweeps it: every host walks the profiles itself, so the corpus is
// the same at every seed.
func corpusGrid() sweep.Grid {
	return sweep.Grid{
		Benchmarks: workload.Names(),
		DPolicies:  sweep.AllDPolicies(),
		DWays:      fleetWays,
		DSizes:     fleetSizes,
		Insts:      fleetInsts,
	}
}

// setup simulates the corpus once into host A's resultdb and copies the
// canonical bytes into host B's. Spans: "fleet.warm", "resultdb.copy",
// and with a tracer the resultdb writes under them.
func (b *fleetBench) setup(t *tracer) error {
	b.setNo++
	dir := filepath.Join(b.work, "setup")
	for i := range b.dbs {
		db, err := resultdb.Open(filepath.Join(dir, fmt.Sprintf("resultdb%c", 'A'+i)))
		if err != nil {
			return err
		}
		b.dbs[i] = db
	}

	// A corpus config that fails to simulate stays out of the corpus;
	// sub-grids that draw it then fail on the hosts, and count there.
	s := t.begin("fleet.warm", 0, 0)
	var back sweep.Backend = b.dbs[0]
	if t != nil {
		back = &tracedBackend{b: b.dbs[0], t: t, name: "resultdb.warm", parent: s.id()}
	}
	mem := sweep.NewMemory()
	store := sweep.NewStoreOn(sweep.Tiered{Front: mem, Back: back})
	warm := sweep.New(sweep.Options{Workers: 2, Store: store})
	cfgs := corpusGrid().Configs()
	all := make([]*core.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	parallel(len(cfgs), 2, func(_, i int) { all[i], errs[i] = warm.Result(cfgs[i]) })
	s.end()
	var results []*core.Result
	var failed []error
	for i, err := range errs {
		if err != nil {
			failed = append(failed, err)
		} else {
			results = append(results, all[i])
		}
	}
	b.checks.expect("corpus", len(failed) == 0, fmt.Sprintf("%d of %d corpus configs failed, first: %v", len(failed), len(cfgs), errors.Join(failed[:min(len(failed), 1)]...)))
	s = t.begin("resultdb.copy", 0, 0)
	src, dst := b.dbs[0], b.dbs[1]
	for _, key := range src.Keys() {
		payload, _, err := src.GetEncoded(key)
		if err != nil {
			return err
		}
		if err := dst.PutEncoded(key, payload); err != nil {
			return err
		}
	}
	s.end()
	// Both resultdbs must hold every corpus result the warm-up computed;
	// the store swallows write errors into BackendErr.
	werr := store.BackendErr()
	b.checks.expect("resultdb-writes", werr == nil && src.Len() == len(results) && dst.Len() == len(results),
		fmt.Sprintf("resultdbs hold %d and %d of %d corpus results (write error: %v)", src.Len(), dst.Len(), len(results), werr))

	b.local = sweep.New(sweep.Options{Workers: 1, Store: sweep.NewStoreOn(mem)})
	b.records = sweep.NewSweep(results).Records
	sweep.SortRecords(b.records)
	// The model counts of the corpus must repeat exactly on every set-up.
	counts := countsOf(results)
	if b.setNo > 1 {
		b.checks.expect("model-counts", counts == b.counts, "corpus model counts differ between set-ups")
	}
	b.counts = counts
	return nil
}

func (b *fleetBench) close() {
	for i, db := range b.dbs {
		if db != nil {
			db.Close()
			b.dbs[i] = nil
		}
	}
}

// twoWays draws two distinct corpus ways, in ascending order.
func twoWays(rng *rand.Rand) []int {
	p := rng.Perm(len(fleetWays))
	ways := []int{fleetWays[p[0]], fleetWays[p[1]]}
	slices.Sort(ways)
	return ways
}

// gridRNG and queryRNG seed the two clients' draws; the post-phase
// check replays them to recover each operation's input.
func (b *fleetBench) gridRNG() *rand.Rand  { return rand.New(rand.NewPCG(b.seed, 0x666c656574)) }
func (b *fleetBench) queryRNG() *rand.Rand { return rand.New(rand.NewPCG(b.seed, 0x7175657279)) }

// subGrid draws one sub-grid of the corpus in the shape docs/DISTRIBUTED.md
// gives a sweepctl run (`-benchmarks all -dpolicies all -dways 2,4`): the
// whole suite x all 8 d-policies x two d-cache ways, 176 configs, at one
// d-cache size. The seed draws the two ways and the size.
func (b *fleetBench) subGrid(rng *rand.Rand) sweep.Grid {
	g := corpusGrid()
	g.DWays = twoWays(rng)
	g.DSizes = []int{fleetSizes[rng.IntN(len(fleetSizes))]}
	return g
}

// query is one corpus query, in one of the two shapes docs/HTTP_API.md
// shows: a listing of one benchmark under one d-policy at two d-cache
// ways (`results?benchmark=gcc&dpolicy=seldm%2Bwaypred&dways=2,4`), or a
// group-by summary of one metric over the whole corpus
// (`aggregate?by=dPolicy&metric=dCacheEnergy`), both as CSV.
type query struct {
	filter    sweep.Filter
	aggregate bool
	by        string
	metric    string
}

// Dimensions the corpus varies and the metrics docs/HTTP_API.md lists,
// for aggregate queries.
var (
	queryDims    = []string{"benchmark", "dPolicy", "dWays", "dSize"}
	queryMetrics = []string{"cycles", "ipc", "dMissRate", "iMissRate", "wayPredAccuracy", "iWayAccuracy",
		"dCacheEnergy", "iCacheEnergy", "procEnergy", "dCacheED", "procED"}
)

// randomQuery draws the i-th query: listings and aggregates alternate.
func (b *fleetBench) randomQuery(rng *rand.Rand, i int) query {
	var q query
	if i%2 == 1 {
		q.aggregate = true
		q.by, q.metric = queryDims[rng.IntN(len(queryDims))], queryMetrics[rng.IntN(len(queryMetrics))]
		return q
	}
	names, policies := workload.Names(), sweep.AllDPolicies()
	q.filter.Benchmarks = []string{names[rng.IntN(len(names))]}
	q.filter.DPolicies = []string{policies[rng.IntN(len(policies))].String()}
	q.filter.DWays = twoWays(rng)
	return q
}

// path renders the query as a request path.
func (q query) path() string {
	v := url.Values{}
	v.Set("format", "csv")
	if q.aggregate {
		v.Set("by", q.by)
		v.Set("metric", q.metric)
		return "/api/v1/aggregate?" + v.Encode()
	}
	ways := make([]string, len(q.filter.DWays))
	for i, w := range q.filter.DWays {
		ways[i] = strconv.Itoa(w)
	}
	v.Set("benchmark", strings.Join(q.filter.Benchmarks, ","))
	v.Set("dpolicy", strings.Join(q.filter.DPolicies, ","))
	v.Set("dways", strings.Join(ways, ","))
	return "/api/v1/results?" + v.Encode()
}

// expect renders the bytes a host must answer the query with.
func (b *fleetBench) expect(q query) ([]byte, error) {
	recs := q.filter.Apply(b.records)
	var buf bytes.Buffer
	if !q.aggregate {
		err := (&sweep.Sweep{Records: recs}).WriteCSV(&buf)
		return buf.Bytes(), err
	}
	stats, err := sweep.Aggregate(recs, q.by, q.metric)
	if err != nil {
		return nil, err
	}
	err = sweep.WriteGroupStatsCSV(&buf, q.by, stats)
	return buf.Bytes(), err
}

// answer is what the post-phase check needs of one client operation:
// whether it succeeded, the SHA-256 of its output, and (for a run) how
// many configs it merged and when. The inputs are not kept: the check
// redraws them from the same seeded generator.
type answer struct {
	ok      bool
	sum     [32]byte
	configs int
	done    time.Duration // completion, from the start of the phase
}

// sweepSum hashes a sweep's JSON bytes.
func sweepSum(sw *sweep.Sweep) [32]byte {
	var buf bytes.Buffer
	sw.WriteJSON(&buf)
	return sha256.Sum256(buf.Bytes())
}

// measure starts both hosts over the warm corpus and runs the two clients
// against them for d. With a tracer the hosts' handlers, resultdb
// backends and the clients' transports are wrapped.
func (b *fleetBench) measure(d time.Duration, t *tracer) (*phase, error) {
	ph := &phase{}
	b.phases++
	var (
		urls   []string
		stores []*sweep.Store
		srvs   []*server.Server
		hss    []*httptest.Server
	)
	for _, db := range b.dbs {
		var back sweep.Backend = db
		if t != nil {
			back = &tracedBackend{b: db, t: t, name: "resultdb"}
		}
		store := sweep.NewStoreOn(sweep.Tiered{Front: sweep.NewMemory(), Back: back})
		srv := server.New(server.Options{Store: store, Workers: 2})
		var handler http.Handler = srv
		if t != nil {
			handler = traceHandler(t, srv)
		}
		hs := httptest.NewServer(handler)
		urls, stores, srvs, hss = append(urls, hs.URL), append(stores, store), append(srvs, srv), append(hss, hs)
	}
	defer func() {
		for i := range hss {
			hss[i].Close()
			srvs[i].Close()
		}
	}()
	transport := &http.Transport{MaxIdleConnsPerHost: 16}
	defer transport.CloseIdleConnections()
	fleetRT, queryRT := http.RoundTripper(transport), http.RoundTripper(transport)
	var fleetTT, queryTT *tracedTransport
	if t != nil {
		fleetTT = &tracedTransport{base: transport, t: t}
		queryTT = &tracedTransport{base: transport, t: t}
		fleetRT, queryRT = fleetTT, queryTT
	}
	fleetClient := &http.Client{Transport: fleetRT}
	queryClient := &http.Client{Transport: queryRT}

	var (
		runs, queries []answer
		wg            sync.WaitGroup
	)
	probe := startProbe()
	start := time.Now()
	deadline := start.Add(d)
	ctx := context.Background()

	wg.Add(1)
	go func() { // fleet client
		defer wg.Done()
		rng := b.gridRNG()
		for i := 0; i == 0 || time.Now().Before(deadline); i++ {
			g := b.subGrid(rng)
			var op int64
			if t != nil {
				op = t.newID()
				fleetTT.op.Store(op)
			}
			s := t.begin("coord.run", 0, op)
			t0 := time.Now()
			res, err := coord.Run(ctx, g, coord.Options{Hosts: urls, Client: fleetClient,
				Name: fmt.Sprintf("waybench-%d-%d", b.phases, i)})
			lat := time.Since(t0)
			s.end()
			if err != nil {
				b.checks.note("coord.Run", err.Error())
				runs = append(runs, answer{})
				continue
			}
			ph.ops = append(ph.ops, lat)
			runs = append(runs, answer{ok: true, sum: sweepSum(res.Sweep), configs: len(res.Sweep.Records), done: time.Since(start)})
			for _, sh := range res.Shards {
				ph.pieces++
				ph.attempts += int64(sh.Attempts)
			}
			for _, h := range res.Hosts {
				ph.steals += int64(h.Steals)
				ph.speculations += int64(h.Speculations)
			}
		}
	}()
	wg.Add(1)
	go func() { // query client
		defer wg.Done()
		rng := b.queryRNG()
		for i := 0; i == 0 || time.Now().Before(deadline); i++ {
			q := b.randomQuery(rng, i)
			var op int64
			if t != nil {
				op = t.newID()
				queryTT.op.Store(op)
			}
			s := t.begin("query", 0, op)
			t0 := time.Now()
			body, err := get(queryClient, urls[i%len(urls)]+q.path())
			lat := time.Since(t0)
			s.end()
			if err != nil {
				b.checks.note("query", err.Error())
				queries = append(queries, answer{})
				continue
			}
			ph.queries = append(ph.queries, lat)
			queries = append(queries, answer{ok: true, sum: sha256.Sum256(body)})
		}
	}()
	wg.Wait()
	ph.wall = time.Since(start)
	ph.rt = probe.finish()

	// Checks, outside the timed phase: every merge against a local
	// single-host sweep of its sub-grid, every answer against the corpus,
	// and no simulation on either host.
	nw := max(int(ph.wall/time.Second), 1)
	window := ph.wall / time.Duration(nw)
	perWindow := make([]int, nw)
	rng := b.gridRNG()
	for _, r := range runs {
		g := b.subGrid(rng)
		ph.attempted++
		if !r.ok {
			ph.failed++
			continue
		}
		ph.configs += int64(r.configs)
		ph.insts += int64(r.configs) * fleetInsts
		if w := int(r.done / window); w < nw {
			perWindow[w] += r.configs
		}
		want, err := b.local.Run(ctx, g)
		if err != nil || sweepSum(want) != r.sum {
			ph.failed++
			b.checks.note("merge", fmt.Sprintf("merged sweep of %d configs differs from the local sweep", r.configs))
		}
	}
	for _, n := range perWindow {
		ph.configRates = append(ph.configRates, float64(n)/window.Seconds())
		ph.instRates = append(ph.instRates, float64(n*fleetInsts)/window.Seconds())
	}
	rng = b.queryRNG()
	for i, r := range queries {
		q := b.randomQuery(rng, i)
		ph.attempted++
		if !r.ok {
			ph.failed++
			continue
		}
		want, err := b.expect(q)
		if err != nil || sha256.Sum256(want) != r.sum {
			ph.failed++
			b.checks.note("query", "answer to "+q.path()+" differs from the corpus")
		}
	}
	for _, s := range stores {
		ph.simulations += s.Misses()
		ph.memoHits += s.Hits()
	}
	b.checks.expect("zero-simulations", ph.simulations == 0,
		fmt.Sprintf("%d simulations ran on the hosts during the timed phase", ph.simulations))
	ph.logBytes = dirBytes(filepath.Join(b.work, "setup", "resultdbA"))
	ph.counts = b.counts
	return ph, nil
}

// get fetches url and fails on transport errors and non-2xx statuses.
func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

func (b *fleetBench) check() {}

// layers adds the fleet's per-layer metrics: the server middleware and
// coordinator transport spans, and the run reports.
func (b *fleetBench) layers(m map[string]float64, ix spanIndex, ph *phase) {
	p50ms := func(name string) float64 {
		v, _ := quantile(ix.durations(name), 0.5)
		return ms(v)
	}
	m["server.submit_ms_p50"] = p50ms("server.submit")
	m["server.events_ms_p50"] = p50ms("server.events")
	m["server.export_ms_p50"] = p50ms("server.export")
	m["server.query_ms_p50"] = p50ms("server.query")
	m["server.export_kb_per_config"] = ratio(float64(ix.attrSum("server.export", "bytes"))/1024, float64(ph.configs))
	var requests, non2xx int64
	for name, spans := range ix {
		if !strings.HasPrefix(name, "server.") {
			continue
		}
		for _, s := range spans {
			requests++
			if s.Attrs["status"]/100 != 2 {
				non2xx++
			}
		}
	}
	m["server.requests"] = float64(requests)
	m["server.non2xx"] = float64(non2xx)

	runs := float64(len(ix["coord.run"]))
	runOps := map[int64]bool{}
	for _, s := range ix["coord.run"] {
		runOps[s.Op] = true
	}
	var fleetReqs int64
	covered := map[int64][][2]int64{}
	for _, s := range ix["coord.request"] {
		if runOps[s.Op] {
			fleetReqs++
			covered[s.Op] = append(covered[s.Op], [2]int64{s.Start, s.End})
		}
	}
	var self int64
	for _, s := range ix["coord.run"] {
		self += (s.End - s.Start) - union(covered[s.Op])
	}
	m["coord.requests_per_run"] = ratio(float64(fleetReqs), runs)
	m["coord.request_ms_p50"] = p50ms("coord.request")
	m["coord.self_ms_per_run"] = ratio(float64(self)/1e6, runs)
	m["coord.attempts_per_piece"] = ratio(float64(ph.attempts), float64(ph.pieces))
	m["coord.steals"] = float64(ph.steals)
	m["coord.speculations"] = float64(ph.speculations)
	m["sweep.simulations"] = float64(ph.simulations)
	m["sweep.memo_hits"] = float64(ph.memoHits)
	m["sweep.hit_ratio"] = ratio(float64(ph.memoHits), float64(ph.memoHits+ph.simulations))
	m["resultdb.log_mb"] = float64(ph.logBytes) / (1 << 20)
	// The corpus warm-ups are the only resultdb writes.
	put, _ := quantile(ix.durations("resultdb.warm.put"), 0.5)
	m["resultdb.put_us_p50"] = float64(put) / 1e3
	m["resultdb.puts"] = float64(len(ix["resultdb.warm.put"]))
}

// union returns the total length covered by a set of intervals.
func union(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}
