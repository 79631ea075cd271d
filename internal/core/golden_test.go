package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sync"
	"testing"
	"unicode/utf8"

	"waycache/internal/access"
)

// goldenResultsFile pins the canonical bytes of goldenResults, one
// EncodeResult payload per line, as encoding/json's Marshal wrote them
// before the hand-written codec replaced it.
const goldenResultsFile = "testdata/golden_results.ndjson"

// goldenResults builds the results pinned in goldenResultsFile: a real
// way-predicted run, a run on the paper's Table 3 costs, a trace path
// that needs HTML escaping, a multi-byte rune and an invalid UTF-8 byte,
// and a processor energy small enough for exponent notation.
func goldenResults(t *testing.T) []*Result {
	t.Helper()
	base := testResult(t)
	paper, err := Run(Config{
		Benchmark: "swim", Insts: 10_000,
		DPolicy: access.DWayPredPC, UsePaperCosts: true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	odd := *base
	odd.Config.Trace = "traces/<gcc&swim>/naïve-\xff.wct"
	tiny := *base
	tiny.Power.L2 = 4.25e-7
	return []*Result{base, paper, &odd, &tiny}
}

func readGoldenResults(t testing.TB) [][]byte {
	t.Helper()
	data, err := os.ReadFile(goldenResultsFile)
	if err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines = append(lines, bytes.Clone(sc.Bytes()))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestEncodeResultMatchesGolden pins the canonical bytes: EncodeResult
// must keep writing exactly what encoding/json wrote for these results,
// and DecodeResult must read each line back as encoding/json does.
func TestEncodeResultMatchesGolden(t *testing.T) {
	results := goldenResults(t)
	lines := readGoldenResults(t)
	if len(lines) != len(results) {
		t.Fatalf("%s holds %d lines, want %d", goldenResultsFile, len(lines), len(results))
	}
	for i, r := range results {
		got, err := EncodeResult(r)
		if err != nil {
			t.Fatalf("result %d: EncodeResult: %v", i, err)
		}
		if !bytes.Equal(got, lines[i]) {
			t.Errorf("result %d: encoding drifted from the golden bytes:\n got %s\nwant %s", i, got, lines[i])
		}
		dec, err := DecodeResult(lines[i])
		if err != nil {
			t.Fatalf("result %d: DecodeResult: %v", i, err)
		}
		want := new(Result)
		if err := json.Unmarshal(lines[i], want); err != nil {
			t.Fatalf("result %d: json.Unmarshal: %v", i, err)
		}
		if !reflect.DeepEqual(dec, want) {
			t.Errorf("result %d: DecodeResult disagrees with json.Unmarshal:\n got %+v\nwant %+v", i, dec, want)
		}
		// A decoded result re-encodes to its line, except where encoding
		// replaced an invalid UTF-8 byte with an escaped U+FFFD: decoded,
		// that rune re-encodes as its raw UTF-8 bytes, not as the escape.
		if utf8.ValidString(r.Config.Trace) {
			again, err := EncodeResult(dec)
			if err != nil {
				t.Fatalf("result %d: re-encode: %v", i, err)
			}
			if !bytes.Equal(again, lines[i]) {
				t.Errorf("result %d: decode+encode does not reproduce the line:\n got %s\nwant %s", i, again, lines[i])
			}
		}
	}
}

// TestDecodeResultConcurrent decodes from several goroutines at once, as
// the server and coordinator do, so the race detector sees the shared
// re-encoding buffers in use.
func TestDecodeResultConcurrent(t *testing.T) {
	lines := readGoldenResults(t)
	want := make([]*Result, len(lines))
	for i, line := range lines {
		want[i] = new(Result)
		if err := json.Unmarshal(line, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g + i) % len(lines)
				got, err := DecodeResult(lines[k])
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[k]) {
					t.Errorf("line %d decoded differently under concurrency", k)
					return
				}
			}
		}()
	}
	wg.Wait()
}
