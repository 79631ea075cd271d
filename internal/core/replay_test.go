package core

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"waycache/internal/access"
	"waycache/internal/isa"
	"waycache/internal/trace"
	"waycache/internal/workload"
)

// captureBench records n instructions of the named benchmark to a trace
// file under dir and returns its path.
func captureBench(t *testing.T, dir, bench string, n int64) string {
	t.Helper()
	p, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, bench+trace.FileExt)
	if err := p.CaptureFile(path, n); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestWalkerCaptureRoundTrip checks losslessness against a real workload:
// the decoded stream equals the walker's, instruction for instruction.
func TestWalkerCaptureRoundTrip(t *testing.T) {
	const bench, n = "gcc", 20_000
	path := captureBench(t, t.TempDir(), bench, n)

	p, _ := workload.ByName(bench)
	want := p.NewWalker()
	f, err := trace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var got, exp trace.Inst
	for i := 0; i < n; i++ {
		if !f.Next(&got) {
			t.Fatalf("trace ended at %d (err %v)", i, f.Err())
		}
		if !want.Next(&exp) {
			t.Fatalf("walker ended at %d", i)
		}
		if got != exp {
			t.Fatalf("instruction %d differs:\n got %+v\nwant %+v", i, got, exp)
		}
	}
	if f.Next(&got) {
		t.Fatal("trace has records beyond the declared count")
	}
}

// TestReplayMatchesWalker is the tentpole equivalence property: simulating
// from a captured trace yields results identical to simulating the live
// walker — same timing, cache, energy and processor statistics.
func TestReplayMatchesWalker(t *testing.T) {
	const bench, insts = "gcc", 30_000
	path := captureBench(t, t.TempDir(), bench, insts)

	cfg := Config{
		Benchmark: bench, Insts: insts,
		DPolicy: access.DSelDMWayPred, IPolicy: access.IWayPred,
	}
	live, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	replayCfg := cfg
	replayCfg.Trace = path
	replay, err := Run(replayCfg)
	if err != nil {
		t.Fatal(err)
	}

	// The configs differ (Trace path) by construction; every simulated
	// quantity must not.
	live.Config, replay.Config = Config{}, Config{}
	if !reflect.DeepEqual(live, replay) {
		t.Fatalf("replayed results differ from walker results:\n live  %+v\n replay %+v", live, replay)
	}
}

func TestReplayWithoutBenchmarkUsesHeaderName(t *testing.T) {
	const bench, insts = "swim", 5_000
	path := captureBench(t, t.TempDir(), bench, insts)
	res, err := Run(Config{Trace: path, Insts: insts})
	if err != nil {
		t.Fatal(err)
	}
	if res.Benchmark != bench {
		t.Fatalf("Benchmark = %q, want header name %q", res.Benchmark, bench)
	}
}

func TestReplayRejectsTooShortTrace(t *testing.T) {
	path := captureBench(t, t.TempDir(), "gcc", 1_000)
	if _, err := Run(Config{Trace: path, Insts: 10_000}); err == nil {
		t.Fatal("Run accepted a trace shorter than the requested instruction count")
	}
}

func TestReplayRejectsBenchmarkMismatch(t *testing.T) {
	path := captureBench(t, t.TempDir(), "gcc", 1_000)
	if _, err := Run(Config{Benchmark: "swim", Trace: path, Insts: 1_000}); err == nil {
		t.Fatal("Run accepted a gcc trace for a swim config")
	}
}

func TestKeySeparatesTraceFromWalker(t *testing.T) {
	cfg := Config{Benchmark: "gcc", Insts: 1000}
	walkKey, ok := cfg.Key()
	if !ok {
		t.Fatal("walker config must be memoizable")
	}
	cfg.Trace = "/tmp/gcc.wct"
	traceKey, ok := cfg.Key()
	if !ok {
		t.Fatal("trace config must be memoizable")
	}
	if walkKey == traceKey {
		t.Fatal("trace and walker runs share a memo key")
	}
}

// TestReplayOneWindowTrace replays a trace the pipeline takes in a single
// window: the run ends before any refill, and must still report every
// instruction it consumed to the source, or the short-trace check rejects
// a complete replay.
func TestReplayOneWindowTrace(t *testing.T) {
	const n = 8
	path := filepath.Join(t.TempDir(), "alu"+trace.FileExt)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f, trace.Header{Benchmark: "alu", Insts: n})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		in := trace.Inst{PC: 0x1000 + 4*uint64(i), Kind: isa.KindIntALU, Dst: isa.Reg(1 + i)}
		if err := w.Write(&in); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := Run(Config{Trace: path, Insts: n})
	if err != nil {
		t.Fatalf("replaying a complete %d-instruction trace: %v", n, err)
	}
	if res.Pipeline.Committed != n {
		t.Errorf("committed %d instructions, want %d", res.Pipeline.Committed, n)
	}
}
