package coord

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"waycache/internal/access"
	"waycache/internal/resultdb"
	"waycache/internal/server"
	"waycache/internal/sweep"
	"waycache/internal/workload"
)

func testGrid() sweep.Grid {
	return sweep.Grid{
		Benchmarks: []string{"gcc", "swim"},
		DPolicies:  []access.DPolicy{access.DParallel, access.DSelDMWayPred},
		DWays:      []int{2, 4},
		Insts:      5_000,
	}
}

// newHost starts one waycached instance (its own store) and returns its
// base URL.
func newHost(t *testing.T) string {
	t.Helper()
	srv := server.New(server.Options{Workers: 2})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts.URL
}

// singleHostBytes runs the grid through one local engine — exactly what
// cmd/sweep does — and returns the JSON and CSV bytes.
func singleHostBytes(t *testing.T, g sweep.Grid) ([]byte, []byte) {
	t.Helper()
	eng := sweep.New(sweep.Options{Workers: 4})
	sw, err := eng.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	var j, c bytes.Buffer
	if err := sw.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteCSV(&c); err != nil {
		t.Fatal(err)
	}
	return j.Bytes(), c.Bytes()
}

func coordBytes(t *testing.T, res *Result) ([]byte, []byte) {
	t.Helper()
	var j, c bytes.Buffer
	if err := res.Sweep.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	if err := res.Sweep.WriteCSV(&c); err != nil {
		t.Fatal(err)
	}
	return j.Bytes(), c.Bytes()
}

// TestTwoHostRunByteIdenticalToSingleHost is the tentpole acceptance
// test: a grid split over two waycached instances merges into output
// byte-identical to a single-host run, and every remotely-computed result
// bulk-ingests into a local resultdb under its canonical key.
func TestTwoHostRunByteIdenticalToSingleHost(t *testing.T) {
	g := testGrid()
	hosts := []string{newHost(t), newHost(t)}
	db, err := resultdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	var progMu sync.Mutex
	var lastDone, lastTotal int
	res, err := Run(context.Background(), g, Options{
		Hosts:        hosts,
		PollInterval: 10 * time.Millisecond,
		Backend:      db,
		Progress: func(done, total int) {
			progMu.Lock()
			lastDone, lastTotal = done, total
			progMu.Unlock()
		},
		Name: "t-two-host",
	})
	if err != nil {
		t.Fatal(err)
	}

	wantJSON, wantCSV := singleHostBytes(t, g)
	gotJSON, gotCSV := coordBytes(t, res)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("merged JSON differs from single-host sweep JSON")
	}
	if !bytes.Equal(gotCSV, wantCSV) {
		t.Error("merged CSV differs from single-host sweep CSV")
	}

	cfgs := g.Configs()
	if res.Ingested != len(cfgs) || db.Len() != len(cfgs) {
		t.Errorf("ingested %d results into a store of %d, want %d", res.Ingested, db.Len(), len(cfgs))
	}
	for _, cfg := range cfgs {
		key, _ := cfg.Key()
		if _, found, err := db.Get(key); err != nil || !found {
			t.Errorf("ingested store missing key %q (found=%v err=%v)", key, found, err)
		}
	}

	if len(res.Shards) != 2 {
		t.Fatalf("got %d shard reports, want 2", len(res.Shards))
	}
	for i, sh := range res.Shards {
		if sh.Index != i || sh.Attempts != 1 || sh.Host == "" || sh.JobID == "" {
			t.Errorf("shard report %d = %+v", i, sh)
		}
		if lo, hi := sweep.SpanOf(len(cfgs), i, 2); sh.Configs != hi-lo {
			t.Errorf("shard %d ran %d configs, want %d", i, sh.Configs, hi-lo)
		}
	}
	progMu.Lock()
	defer progMu.Unlock()
	if lastDone != len(cfgs) || lastTotal != len(cfgs) {
		t.Errorf("final progress %d/%d, want %d/%d", lastDone, lastTotal, len(cfgs), len(cfgs))
	}
}

// TestMoreShardsThanHosts: an uneven split (8 configs into 3 shards over
// 2 hosts) must still merge byte-identically.
func TestMoreShardsThanHosts(t *testing.T) {
	g := testGrid()
	res, err := Run(context.Background(), g, Options{
		Hosts:        []string{newHost(t), newHost(t)},
		Shards:       3,
		PollInterval: 10 * time.Millisecond,
		Name:         "t-three-shards",
	})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := singleHostBytes(t, g)
	gotJSON, _ := coordBytes(t, res)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("3-shard merge differs from single-host sweep JSON")
	}
	sizes := []int{res.Shards[0].Configs, res.Shards[1].Configs, res.Shards[2].Configs}
	if sizes[0] != 3 || sizes[1] != 3 || sizes[2] != 2 {
		t.Errorf("shard sizes = %v, want [3 3 2]", sizes)
	}
}

// flakyHost proxies one waycached instance and fails hard (502 on every
// request) immediately after serving its first successful job
// submission — a host that accepts a shard and then dies mid-run.
type flakyHost struct {
	inner  http.Handler
	killed atomic.Bool
}

func (f *flakyHost) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.killed.Load() {
		http.Error(w, "host down", http.StatusBadGateway)
		return
	}
	if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/jobs") {
		f.inner.ServeHTTP(w, r)
		f.killed.Store(true)
		return
	}
	f.inner.ServeHTTP(w, r)
}

// TestHostDeathReassignsShard forces a mid-shard host failure: the flaky
// host accepts its shard submission and then answers nothing but 502, so
// the coordinator must retire it, reassign the shard to the surviving
// host, and still merge byte-identical output.
func TestHostDeathReassignsShard(t *testing.T) {
	g := testGrid()

	badSrv := server.New(server.Options{Workers: 2})
	flaky := &flakyHost{inner: badSrv}
	badTS := httptest.NewServer(flaky)
	t.Cleanup(func() { badTS.Close(); badSrv.Close() })
	goodURL := newHost(t)

	// Gate the good host's first request until the flaky host has taken a
	// shard, so exactly one shard deterministically lands on the dying
	// host no matter how the workers race.
	gate := make(chan struct{})
	target, err := url.Parse(goodURL)
	if err != nil {
		t.Fatal(err)
	}
	rp := httputil.NewSingleHostReverseProxy(target)
	proxyGood := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-gate
		rp.ServeHTTP(w, r)
	}))
	t.Cleanup(proxyGood.Close)
	go func() {
		// Open the gate once the flaky host is dead (its submission was
		// served), or after a generous timeout as a failsafe.
		deadline := time.Now().Add(30 * time.Second)
		for !flaky.killed.Load() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		close(gate)
	}()

	res, err := Run(context.Background(), g, Options{
		Hosts:        []string{badTS.URL, proxyGood.URL},
		PollInterval: 10 * time.Millisecond,
		MaxAttempts:  3,
		Name:         "t-host-death",
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	wantJSON, wantCSV := singleHostBytes(t, g)
	gotJSON, gotCSV := coordBytes(t, res)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("post-failure merge differs from single-host sweep JSON")
	}
	if !bytes.Equal(gotCSV, wantCSV) {
		t.Error("post-failure merge differs from single-host sweep CSV")
	}

	retried := 0
	for _, sh := range res.Shards {
		if sh.Host == badTS.URL {
			t.Errorf("shard %d reports the dead host as its source", sh.Index)
		}
		if sh.Attempts > 1 {
			retried++
		}
	}
	if retried != 1 {
		t.Errorf("%d shards were retried, want exactly 1 (the dead host's)", retried)
	}
}

// TestPollFallbackWhenStreamUnavailable: a host whose events endpoint is
// missing (an older waycached, a proxy that rejects streams) must still
// complete its shards through the status poll loop, byte-identically.
func TestPollFallbackWhenStreamUnavailable(t *testing.T) {
	g := testGrid()
	srv := server.New(server.Options{Workers: 2})
	noStream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			http.Error(w, "no such endpoint", http.StatusNotFound)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { noStream.Close(); srv.Close() })

	streamFailures := 0
	res, err := Run(context.Background(), g, Options{
		Hosts:        []string{noStream.URL},
		PollInterval: 10 * time.Millisecond,
		Name:         "t-poll-fallback",
		Logf: func(f string, args ...any) {
			if strings.Contains(f, "events stream") {
				streamFailures++
			}
			t.Logf(f, args...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := singleHostBytes(t, g)
	gotJSON, _ := coordBytes(t, res)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("poll-fallback merge differs from single-host sweep JSON")
	}
	if streamFailures == 0 {
		t.Error("run never logged a stream fallback — the 404ing events endpoint was not exercised")
	}
}

// TestAuthenticatedFleet: with hosts requiring bearer tokens, a run
// carrying Options.Token succeeds and one without it fails fast.
func TestAuthenticatedFleet(t *testing.T) {
	tokens, err := server.ParseAuthTokens("coordinator=fleet-secret")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Options{Workers: 2, AuthTokens: tokens})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })

	g := sweep.Grid{Benchmarks: []string{"gcc"}, Insts: 2_000}
	if _, err := Run(context.Background(), g, Options{
		Hosts:        []string{ts.URL},
		PollInterval: 10 * time.Millisecond,
		MaxAttempts:  1,
		Name:         "t-auth-missing",
	}); err == nil {
		t.Fatal("tokenless run against an authenticated host succeeded")
	}

	res, err := Run(context.Background(), g, Options{
		Hosts:        []string{ts.URL},
		PollInterval: 10 * time.Millisecond,
		Name:         "t-auth-ok",
		Token:        "fleet-secret",
	})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := singleHostBytes(t, g)
	gotJSON, _ := coordBytes(t, res)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("authenticated merge differs from single-host sweep JSON")
	}
}

// TestAllHostsDeadFailsRun: with no live host the run must error out, not
// hang.
func TestAllHostsDeadFailsRun(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusBadGateway)
	}))
	t.Cleanup(dead.Close)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_, err := Run(ctx, testGrid(), Options{
		Hosts:        []string{dead.URL},
		PollInterval: 10 * time.Millisecond,
		MaxAttempts:  2,
		Name:         "t-all-dead",
	})
	if err == nil {
		t.Fatal("run with only a dead host succeeded")
	}
}

// TestDeterministicJobFailureAborts: a grid that fails in simulation
// (impossible geometry) must abort the run with the remote error instead
// of burning reassignment attempts on other hosts.
func TestDeterministicJobFailureAborts(t *testing.T) {
	g := sweep.Grid{Benchmarks: []string{"gcc"}, DBlocks: []int{3}, Insts: 1_000}
	_, err := Run(context.Background(), g, Options{
		Hosts:        []string{newHost(t), newHost(t)},
		PollInterval: 10 * time.Millisecond,
		Name:         "t-failing-grid",
	})
	if err == nil {
		t.Fatal("failing grid reported success")
	}
	if !strings.Contains(err.Error(), "deterministically") {
		t.Errorf("error %q does not mark the failure deterministic", err)
	}
}

// TestNoHosts: an empty host list is a configuration error.
func TestNoHosts(t *testing.T) {
	if _, err := Run(context.Background(), testGrid(), Options{}); err == nil {
		t.Fatal("no-host run succeeded")
	}
}

// TestMergeSatisfiesMemoKeys: decoded export payloads must carry the
// canonical config, so records rebuilt at the coordinator equal records
// built host-side.
func TestMergeSatisfiesMemoKeys(t *testing.T) {
	g := sweep.Grid{Benchmarks: []string{"gcc"}, Insts: 2_000}
	backend := sweep.NewMemory()
	res, err := Run(context.Background(), g, Options{
		Hosts:        []string{newHost(t)},
		PollInterval: 10 * time.Millisecond,
		Backend:      backend,
		Name:         "t-memo-keys",
	})
	if err != nil {
		t.Fatal(err)
	}
	key, _ := g.Configs()[0].Key()
	stored, found, err := backend.Get(key)
	if err != nil || !found {
		t.Fatalf("backend missing %q: found=%v err=%v", key, found, err)
	}
	if rec := sweep.NewRecord(stored); rec != res.Sweep.Records[0] {
		t.Error("record rebuilt from ingested result differs from merged record")
	}
}

// TestEmptyBenchmarksMeansFullSuite: the coordinator must normalize an
// omitted benchmark list exactly as the hosts do (full suite), or its
// shard-size accounting would reject every export.
func TestEmptyBenchmarksMeansFullSuite(t *testing.T) {
	g := sweep.Grid{Insts: 2_000}
	res, err := Run(context.Background(), g, Options{
		Hosts:        []string{newHost(t)},
		PollInterval: 10 * time.Millisecond,
		Name:         "t-empty-bench",
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(workload.Names()); len(res.Sweep.Records) != want {
		t.Errorf("empty-benchmarks run merged %d records, want the full suite (%d)", len(res.Sweep.Records), want)
	}
}
