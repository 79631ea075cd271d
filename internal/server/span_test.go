package server

// Tests for the elastic-coordinator surface of the server: span
// submissions ({"span": "lo-hi"}), the partial-progress export
// watermark, GET export?prefix=N against running and finished jobs, and
// live bearer-token rotation.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"waycache/internal/sweep"
)

// TestSpanJobsConcatenateToFullGrid: span submissions run exactly the
// contiguous config ranges they name, and their outputs (CSV bodies;
// export streams) concatenate to the full-grid run in order — the
// invariant the coordinator's merge rests on.
func TestSpanJobsConcatenateToFullGrid(t *testing.T) {
	_, ts := newTestServer(t)

	full := submit(t, ts.URL, testGridJSON)
	pollDone(t, ts.URL, full.ID)
	fullCSV, _ := fetch(t, ts.URL+"/api/v1/jobs/"+full.ID+"/results?format=csv")

	cfgs := testGrid().Configs()
	const n = 3
	var bodies [][]byte
	var allKeys []string
	for i := 0; i < n; i++ {
		lo, hi := sweep.SpanOf(len(cfgs), i, n)
		body := fmt.Sprintf(`{"Benchmarks":["gcc","swim"],"DPolicies":["parallel","seldm+waypred"],"DWays":[2,4],"Insts":5000,"name":"span-%d","span":"%d-%d"}`, i, lo, hi)
		st := submit(t, ts.URL, body)
		if st.Total != hi-lo {
			t.Errorf("span %d-%d total = %d, want %d", lo, hi, st.Total, hi-lo)
		}
		if want := sweep.FormatSpan(lo, hi); st.Span != want {
			t.Errorf("span field = %q, want %q", st.Span, want)
		}
		st = pollDone(t, ts.URL, st.ID)
		if st.Watermark != hi-lo {
			t.Errorf("finished span job watermark = %d, want %d", st.Watermark, hi-lo)
		}

		csv, _ := fetch(t, ts.URL+"/api/v1/jobs/"+st.ID+"/results?format=csv")
		parts := bytes.SplitN(csv, []byte("\n"), 2)
		if len(parts) != 2 {
			t.Fatalf("span %d-%d CSV has no header row", lo, hi)
		}
		bodies = append(bodies, parts[1])

		exp, resp := fetch(t, ts.URL+"/api/v1/jobs/"+st.ID+"/export")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("span %d-%d export status = %d", lo, hi, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("export Content-Type = %q", ct)
		}
		for _, e := range decodeExport(t, exp) {
			allKeys = append(allKeys, e.Key)
		}
	}
	fullParts := bytes.SplitN(fullCSV, []byte("\n"), 2)
	if !bytes.Equal(bytes.Join(bodies, nil), fullParts[1]) {
		t.Error("concatenated span CSV bodies differ from the full-grid CSV body")
	}
	if len(allKeys) != len(cfgs) {
		t.Fatalf("span exports hold %d entries, want %d", len(allKeys), len(cfgs))
	}
	for i, key := range allKeys {
		want, _ := cfgs[i].Key()
		if key != want {
			t.Errorf("concatenated export key %d = %q, want %q", i, key, want)
		}
	}

	// Bad spans are submission errors: malformed, non-canonical,
	// inverted, negative or out of grid range. The retired shard form is
	// an unknown field, refused loudly rather than run as the whole grid.
	// The grid holds two configs, so every row that aliases "0-2" is
	// refused for its spelling, not for its range.
	for _, bad := range []string{
		`"span":"x"`,
		`"span":"5-2"`,
		`"span":"-1-3"`,
		`"span":"0-999"`,
		`"span":"0-2-5"`,
		`"span":"0-2x"`,
		`"span":" 0-2"`,
		`"span":"+0-+2"`,
		`"shard":"0/2"`,
		`"span":"0-2","shard":"0/2"`,
	} {
		body := fmt.Sprintf(`{"Benchmarks":["gcc","swim"],"Insts":5000,%s}`, bad)
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submission with %s -> %d, want 400", bad, resp.StatusCode)
		}
	}
}

func decodeExport(t *testing.T, data []byte) []ExportEntry {
	t.Helper()
	var entries []ExportEntry
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var e ExportEntry
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("decoding export: %v", err)
		}
		if e.Key == "" || len(e.Result) == 0 {
			t.Fatalf("export entry %+v is incomplete", e)
		}
		entries = append(entries, e)
	}
	return entries
}

// TestPartialExportWatermark: a running exportable job's watermark
// grows with its finished prefix, export?prefix=N serves exactly that
// prefix mid-run, and over-asking or malformed prefixes are refused.
func TestPartialExportWatermark(t *testing.T) {
	srv := New(Options{Workers: 1}) // one worker: the prefix finishes strictly in order
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })

	g := sweep.Grid{Benchmarks: []string{"gcc", "swim"}, DWays: []int{1, 2, 4}, Insts: 3_000_000}
	cfgs := g.Configs()
	st := submit(t, ts.URL, `{"Benchmarks":["gcc","swim"],"DWays":[1,2,4],"Insts":3000000,"name":"wm"}`)
	total := st.Total
	if total != len(cfgs) {
		t.Fatalf("job total = %d, want %d", total, len(cfgs))
	}

	// Catch the job mid-run with a non-empty, non-complete watermark.
	var mid JobStatus
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		getJSON(t, ts.URL+"/api/v1/jobs/"+st.ID, &mid)
		if mid.State == "running" && mid.Watermark >= 1 && mid.Watermark < total {
			break
		}
		if mid.State == "done" || mid.State == "failed" {
			t.Fatalf("job reached %q before a mid-run watermark was observed", mid.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	w := mid.Watermark
	if w < 1 || w >= total {
		t.Fatalf("never caught a mid-run watermark (last status %+v)", mid)
	}

	// The watermarked prefix is servable right now, mid-run.
	exp, resp := fetch(t, fmt.Sprintf("%s/api/v1/jobs/%s/export?prefix=%d", ts.URL, st.ID, w))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export?prefix=%d of running job = %d, want 200", w, resp.StatusCode)
	}
	entries := decodeExport(t, exp)
	if len(entries) != w {
		t.Fatalf("prefix export holds %d entries, want %d", len(entries), w)
	}
	for i, e := range entries {
		want, _ := cfgs[i].Key()
		if e.Key != want {
			t.Errorf("prefix entry %d key = %q, want %q", i, e.Key, want)
		}
	}

	// Asking beyond what any state could serve is a conflict, and the
	// 409 body carries the job's status so a thief can re-plan.
	body, resp := fetch(t, fmt.Sprintf("%s/api/v1/jobs/%s/export?prefix=%d", ts.URL, st.ID, total+5))
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("export?prefix=%d = %d, want 409", total+5, resp.StatusCode)
	}
	var denied JobStatus
	if err := json.Unmarshal(body, &denied); err != nil || denied.ID != st.ID {
		t.Errorf("409 body is not the job's status: %q (err %v)", body, err)
	}

	// Malformed prefixes are client errors.
	for _, bad := range []string{"abc", "-2", "1.5"} {
		_, resp := fetch(t, ts.URL+"/api/v1/jobs/"+st.ID+"/export?prefix="+bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("export?prefix=%s = %d, want 400", bad, resp.StatusCode)
		}
	}

	// After completion the watermark is the whole job and any prefix of
	// it is servable; the prefix bytes are a prefix of the full export.
	done := pollDone(t, ts.URL, st.ID)
	if done.Watermark != total {
		t.Errorf("done watermark = %d, want %d", done.Watermark, total)
	}
	full, resp := fetch(t, ts.URL+"/api/v1/jobs/"+st.ID+"/export")
	if resp.StatusCode != http.StatusOK || len(decodeExport(t, full)) != total {
		t.Fatalf("full export after done: status %d", resp.StatusCode)
	}
	pre, resp := fetch(t, fmt.Sprintf("%s/api/v1/jobs/%s/export?prefix=2", ts.URL, st.ID))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export?prefix=2 after done = %d, want 200", resp.StatusCode)
	}
	if !bytes.HasPrefix(full, pre) || len(decodeExport(t, pre)) != 2 {
		t.Error("prefix export of a done job is not a byte-prefix of its full export")
	}
}

// TestAuthTokenRotation: SetAuthTokens swaps the live credential set
// without a restart — old tokens stop working, new ones start, and jobs
// submitted under the old credential keep running untouched.
func TestAuthTokenRotation(t *testing.T) {
	tokens, err := ParseAuthTokens("alice=old-secret")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{Workers: 2, AuthTokens: tokens})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })

	authedJSON := func(method, url, token, body string, out any) *http.Response {
		t.Helper()
		var rd *strings.Reader
		if body != "" {
			rd = strings.NewReader(body)
		} else {
			rd = strings.NewReader("")
		}
		req, err := http.NewRequest(method, url, rd)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+token)
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil {
			json.NewDecoder(resp.Body).Decode(out)
		}
		return resp
	}

	// A long job enters under the old credential.
	var st JobStatus
	if resp := authedJSON(http.MethodPost, ts.URL+"/api/v1/jobs", "old-secret", bigGridJSON, &st); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit under old token = %d, want 202", resp.StatusCode)
	}

	// Rotate: same client name, fresh token.
	newTokens, err := ParseAuthTokens("alice=new-secret")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SetAuthTokens(newTokens); err != nil {
		t.Fatal(err)
	}
	if resp := authedGet(t, ts.URL+"/api/v1/jobs", "old-secret"); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("old token after rotation = %d, want 401", resp.StatusCode)
	}
	if resp := authedGet(t, ts.URL+"/api/v1/jobs", "new-secret"); resp.StatusCode != http.StatusOK {
		t.Errorf("new token after rotation = %d, want 200", resp.StatusCode)
	}

	// The in-flight job survived the rotation; the new credential
	// controls it (same fair-share identity).
	var after JobStatus
	authedJSON(http.MethodGet, ts.URL+"/api/v1/jobs/"+st.ID, "new-secret", "", &after)
	if after.ID != st.ID || after.State == "cancelled" || after.State == "failed" {
		t.Errorf("in-flight job after rotation = %+v", after)
	}
	if resp := authedJSON(http.MethodPost, ts.URL+"/api/v1/jobs/"+st.ID+"/cancel", "new-secret", "", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("cancel with rotated token = %d, want 200", resp.StatusCode)
	}

	// Guard rails: never rotate to nothing, never "rotate" an open server.
	if err := srv.SetAuthTokens(nil); err == nil {
		t.Error("rotation to an empty token set was accepted")
	}
	open := New(Options{Workers: 1})
	t.Cleanup(open.Close)
	if err := open.SetAuthTokens(newTokens); err == nil {
		t.Error("token rotation on an open server was accepted")
	}
}

// TestParseAuthTokensFile: the token-file format is one name=token per
// line with comments, under the same validity rules as the flag form.
func TestParseAuthTokensFile(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "tokens")
	if err := os.WriteFile(good, []byte("# fleet credentials\n\nalice=s1\nbob=s2\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	tokens, err := ParseAuthTokensFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if tokens["s1"] != "alice" || tokens["s2"] != "bob" || len(tokens) != 2 {
		t.Errorf("parsed token file = %v", tokens)
	}

	for name, content := range map[string]string{
		"dup":     "alice=s1\nbob=s1\n",
		"empty":   "# nothing but comments\n",
		"badline": "alice\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseAuthTokensFile(path); err == nil {
			t.Errorf("token file %q parsed without error", name)
		}
	}
	if _, err := ParseAuthTokensFile(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing token file parsed without error")
	}
}
