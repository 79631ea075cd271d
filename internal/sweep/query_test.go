package sweep

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"waycache/internal/access"
)

// rec builds a minimal record for query tests.
func rec(bench, dpol string, dways int, procED float64) Record {
	return Record{
		Benchmark: bench, DPolicy: dpol, IPolicy: "parallel",
		DSize: 16 << 10, DWays: dways, DBlock: 32,
		ISize: 16 << 10, IWays: 4, IBlock: 32,
		DLatency: 1, TableSize: 1024, VictimSize: 16, Insts: 1000,
		ProcED: procED,
	}
}

func queryRecords() []Record {
	return []Record{
		rec("swim", "parallel", 4, 40),
		rec("gcc", "seldm+waypred", 2, 10),
		rec("gcc", "parallel", 4, 30),
		rec("gcc", "parallel", 2, 20),
	}
}

func TestFilterMatch(t *testing.T) {
	recs := queryRecords()
	for _, tc := range []struct {
		name string
		f    Filter
		want int
	}{
		{"zero filter matches all", Filter{}, 4},
		{"benchmark", Filter{Benchmarks: []string{"gcc"}}, 3},
		{"policy", Filter{DPolicies: []string{"seldm+waypred"}}, 1},
		{"geometry", Filter{DWays: []int{2}}, 2},
		{"conjunction", Filter{Benchmarks: []string{"gcc"}, DPolicies: []string{"parallel"}, DWays: []int{4}}, 1},
		{"insts", Filter{Insts: 999}, 0},
		{"no match", Filter{Benchmarks: []string{"mcf"}}, 0},
	} {
		if got := len(tc.f.Apply(recs)); got != tc.want {
			t.Errorf("%s: matched %d records, want %d", tc.name, got, tc.want)
		}
	}
}

// TestFilterApplySizedToMatches: Match and Apply share one pointer-based
// matcher, and Apply allocates for the matches alone, not for every
// record it scans.
func TestFilterApplySizedToMatches(t *testing.T) {
	var recs []Record
	for _, bench := range []string{"gcc", "swim", "mcf"} {
		for _, dpol := range []string{"parallel", "seldm+waypred"} {
			for _, ways := range []int{1, 2, 4, 8} {
				recs = append(recs, rec(bench, dpol, ways, 1))
			}
		}
	}
	for _, f := range []Filter{
		{},
		{Benchmarks: []string{"swim"}, DPolicies: []string{"parallel"}, DWays: []int{2, 4}},
		{Benchmarks: []string{"art"}},
	} {
		var want []Record
		for i := range recs {
			if m := f.match(&recs[i]); m != f.Match(recs[i]) {
				t.Fatalf("%+v: match and Match disagree on %+v", f, recs[i])
			} else if m {
				want = append(want, recs[i])
			}
		}
		got := f.Apply(recs)
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Errorf("%+v: Apply = %d records, want %d", f, len(got), len(want))
		}
		if got == nil || cap(got) != len(want) {
			t.Errorf("%+v: Apply returned cap %d (nil %v) for %d matches", f, cap(got), got == nil, len(want))
		}
	}
}

func TestSortRecordsCanonical(t *testing.T) {
	recs := queryRecords()
	SortRecords(recs)
	var got []string
	for _, r := range recs {
		got = append(got, r.Benchmark+"/"+r.DPolicy+"/"+itoa(r.DWays))
	}
	want := []string{
		"gcc/parallel/2", "gcc/parallel/4", "gcc/seldm+waypred/2", "swim/parallel/4",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sorted order = %v, want %v", got, want)
	}
}

func itoa(v int) string {
	return string(rune('0' + v))
}

func TestAggregate(t *testing.T) {
	stats, err := Aggregate(queryRecords(), "benchmark", "procED")
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	want := []GroupStat{
		{Group: "gcc", Count: 3, Mean: 20, Min: 10, Max: 30},
		{Group: "swim", Count: 1, Mean: 40, Min: 40, Max: 40},
	}
	if !reflect.DeepEqual(stats, want) {
		t.Errorf("Aggregate = %+v, want %+v", stats, want)
	}

	if _, err := Aggregate(queryRecords(), "nope", "procED"); err == nil {
		t.Errorf("Aggregate accepted an unknown dimension")
	}
	if _, err := Aggregate(queryRecords(), "benchmark", "nope"); err == nil {
		t.Errorf("Aggregate accepted an unknown metric")
	}

	// Every advertised dimension and metric must resolve.
	for _, dim := range Dimensions() {
		if _, err := Aggregate(queryRecords(), dim, "cycles"); err != nil {
			t.Errorf("dimension %q: %v", dim, err)
		}
	}
	for _, m := range Metrics() {
		if _, err := Aggregate(queryRecords(), "benchmark", m); err != nil {
			t.Errorf("metric %q: %v", m, err)
		}
	}
}

func TestGroupStatWriters(t *testing.T) {
	stats, err := Aggregate(queryRecords(), "dPolicy", "procED")
	if err != nil {
		t.Fatal(err)
	}
	var jb bytes.Buffer
	if err := WriteGroupStatsJSON(&jb, stats); err != nil {
		t.Fatal(err)
	}
	var decoded []GroupStat
	if err := json.Unmarshal(jb.Bytes(), &decoded); err != nil {
		t.Fatalf("JSON output does not parse: %v", err)
	}
	if !reflect.DeepEqual(decoded, stats) {
		t.Errorf("JSON round trip differs")
	}

	var cb bytes.Buffer
	if err := WriteGroupStatsCSV(&cb, "dPolicy", stats); err != nil {
		t.Fatal(err)
	}
	wantHeader := "dPolicy,count,mean,min,max\n"
	if !bytes.HasPrefix(cb.Bytes(), []byte(wantHeader)) {
		t.Errorf("CSV header = %q, want prefix %q", cb.String(), wantHeader)
	}
}

func TestGridSizeSaturates(t *testing.T) {
	// A grid whose cartesian product would overflow must saturate at
	// SizeCap, not wrap: size limits (like the HTTP service's per-job
	// bound) compare against Size and would otherwise be bypassed.
	big := make([]int, 1024)
	g := Grid{DSizes: big, DWays: big, DBlocks: big, ISizes: big, IWays: big, IBlocks: big}
	if got := g.Size(); got != SizeCap {
		t.Errorf("overflowing grid Size() = %d, want SizeCap %d", got, SizeCap)
	}
	small := Grid{DWays: []int{1, 2, 4}}
	if got := small.Size(); got != 3 {
		t.Errorf("small grid Size() = %d, want 3", got)
	}
}

func TestGridJSONPolicyNames(t *testing.T) {
	// Grid submissions (the HTTP API body) accept policy names...
	var g Grid
	body := `{"Benchmarks":["gcc"],"DPolicies":["parallel","seldm+waypred"],"IPolicies":["waypred"],"DWays":[2,4]}`
	if err := json.Unmarshal([]byte(body), &g); err != nil {
		t.Fatalf("unmarshal named policies: %v", err)
	}
	if !reflect.DeepEqual(g.DPolicies, []access.DPolicy{access.DParallel, access.DSelDMWayPred}) {
		t.Errorf("DPolicies = %v", g.DPolicies)
	}
	if !reflect.DeepEqual(g.IPolicies, []access.IPolicy{access.IWayPred}) {
		t.Errorf("IPolicies = %v", g.IPolicies)
	}

	// ...and legacy integer enum values.
	if err := json.Unmarshal([]byte(`{"DPolicies":[0,5]}`), &g); err != nil {
		t.Fatalf("unmarshal integer policies: %v", err)
	}
	if !reflect.DeepEqual(g.DPolicies, []access.DPolicy{access.DParallel, access.DSelDMWayPred}) {
		t.Errorf("integer DPolicies = %v", g.DPolicies)
	}

	// Unknown names are rejected, not zeroed.
	if err := json.Unmarshal([]byte(`{"DPolicies":["bogus"]}`), &g); err == nil {
		t.Errorf("unmarshal accepted an unknown policy name")
	}

	// Marshal emits names, keeping submitted grids human-readable in job
	// listings.
	data, err := json.Marshal(Grid{DPolicies: []access.DPolicy{access.DSelDMWayPred}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"seldm+waypred"`)) {
		t.Errorf("marshaled grid %s does not name its policy", data)
	}
}
