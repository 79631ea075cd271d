package sweep

import (
	"testing"

	"waycache/internal/access"
	"waycache/internal/core"
)

// syntheticConfigs returns n pairwise-distinct configs (Insts encodes the
// index), so slicing mistakes show up as value mismatches, not just
// length mismatches.
func syntheticConfigs(n int) []core.Config {
	cfgs := make([]core.Config, n)
	for i := range cfgs {
		cfgs[i] = core.Config{Benchmark: "gcc", Insts: int64(i + 1)}
	}
	return cfgs
}

// spanConcat concatenates cfgs[SpanOf(len(cfgs), i, n)] for i = 0..n-1,
// checking on the way that the spans tile [0, len(cfgs)) contiguously.
func spanConcat(t *testing.T, cfgs []core.Config, n int) []core.Config {
	t.Helper()
	var concat []core.Config
	next := 0
	for i := 0; i < n; i++ {
		lo, hi := SpanOf(len(cfgs), i, n)
		if lo != next || hi < lo || hi > len(cfgs) {
			t.Fatalf("total=%d n=%d i=%d: span [%d,%d) does not continue at %d", len(cfgs), n, i, lo, hi, next)
		}
		next = hi
		concat = append(concat, cfgs[lo:hi]...)
	}
	if next != len(cfgs) {
		t.Fatalf("total=%d n=%d: spans end at %d", len(cfgs), n, next)
	}
	return concat
}

// TestShardPartitionProperty is the contract the distributed coordinator's
// merge determinism rests on: for every total and every part count —
// including n that does not divide the total and n larger than the total —
// the spans SpanOf(total, i, n) for i = 0..n-1 tile [0, total), so
// concatenating their configs reproduces cfgs exactly, and span sizes are
// near-equal (leading spans take the remainder).
func TestShardPartitionProperty(t *testing.T) {
	for _, total := range []int{0, 1, 2, 3, 5, 7, 8, 16, 17, 31} {
		cfgs := syntheticConfigs(total)
		for n := 1; n <= total+5; n++ {
			prevSize := -1
			for i := 0; i < n; i++ {
				lo, hi := SpanOf(total, i, n)
				size := hi - lo
				// Leading spans absorb the remainder: sizes are
				// non-increasing and differ by at most one.
				if prevSize >= 0 {
					if size > prevSize {
						t.Fatalf("total=%d n=%d i=%d: span grew from %d to %d", total, n, i, prevSize, size)
					}
					if prevSize-size > 1 {
						t.Fatalf("total=%d n=%d i=%d: span sizes %d and %d differ by more than 1",
							total, n, i, prevSize, size)
					}
				}
				prevSize = size
			}
			concat := spanConcat(t, cfgs, n)
			for i := range concat {
				if concat[i] != cfgs[i] {
					t.Fatalf("total=%d n=%d: concat[%d] = %+v, want %+v", total, n, i, concat[i], cfgs[i])
				}
			}
		}
	}
}

// TestShardMoreShardsThanConfigs: with n > total the trailing spans must
// be empty, never out of range, and the non-empty ones singletons.
func TestShardMoreShardsThanConfigs(t *testing.T) {
	const total, n = 3, 7
	for i := 0; i < n; i++ {
		lo, hi := SpanOf(total, i, n)
		want := 0
		if i < total {
			want = 1
		}
		if hi-lo != want || hi > total {
			t.Errorf("SpanOf(%d, %d, %d) = [%d,%d), want %d configs within the grid", total, i, n, lo, hi, want)
		}
	}
}

func TestShardInvalidArgs(t *testing.T) {
	for _, tc := range []struct{ total, i, n int }{
		{4, 0, 0}, {4, 0, -1}, {4, -1, 2}, {4, 2, 2}, {4, 5, 2}, {-1, 0, 1},
	} {
		if lo, hi := SpanOf(tc.total, tc.i, tc.n); lo != 0 || hi != 0 {
			t.Errorf("SpanOf(%d, %d, %d) = [%d,%d), want empty", tc.total, tc.i, tc.n, lo, hi)
		}
	}
}

// TestShardGridExpansion runs the property on a real grid expansion, the
// thing the coordinator actually slices.
func TestShardGridExpansion(t *testing.T) {
	g := Grid{
		Benchmarks: []string{"gcc", "swim", "li"},
		DPolicies:  []access.DPolicy{access.DParallel, access.DSelDMWayPred},
		DWays:      []int{1, 2, 4},
		Insts:      1000,
	}
	cfgs := g.Configs()
	if len(cfgs) != g.Size() {
		t.Fatalf("Configs len %d != Size %d", len(cfgs), g.Size())
	}
	for _, n := range []int{1, 2, 3, 4, 5, 7, len(cfgs), len(cfgs) + 3} {
		concat := spanConcat(t, cfgs, n)
		for i := range concat {
			k1, _ := concat[i].Key()
			k2, _ := cfgs[i].Key()
			if k1 != k2 {
				t.Fatalf("n=%d: concat[%d] key %q != %q", n, i, k1, k2)
			}
		}
	}
}

func TestParseShard(t *testing.T) {
	i, n, err := ParseShard("2/5")
	if err != nil || i != 2 || n != 5 {
		t.Errorf("ParseShard(2/5) = %d,%d,%v", i, n, err)
	}
	for _, bad := range []string{
		"", "x", "1", "5/2", "2/2", "-1/2", "1/0", "1/-3",
		"0/2/3", "1/4junk", " 1/4", "+1/4", "01/4",
	} {
		if _, _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) did not error", bad)
		}
	}
}
