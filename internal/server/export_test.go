package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// encoderLines renders entries as json.Encoder does: the reference the
// export stream's bytes are held to.
func encoderLines(t *testing.T, entries []ExportEntry) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range entries {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestExportWireFormat pins the export stream's bytes: a finished job's
// export, whole or as a prefix, is exactly what json.Encoder writes for
// its entries, line by line.
func TestExportWireFormat(t *testing.T) {
	srv, ts := newTestServer(t)
	st := submit(t, ts.URL, `{"Benchmarks":["gcc","swim"],"Insts":5000,"name":"wire"}`)
	pollDone(t, ts.URL, st.ID)
	srv.mu.Lock()
	j := srv.jobs[st.ID]
	srv.mu.Unlock()
	entries, _, ok := j.export()
	if !ok || len(entries) != 2 {
		t.Fatalf("job export: ok=%v, %d entries", ok, len(entries))
	}

	for _, tc := range []struct {
		query string
		want  []ExportEntry
	}{
		{"", entries},
		{"?prefix=1", entries[:1]},
		{"?prefix=0", nil},
	} {
		body, resp := fetch(t, ts.URL+"/api/v1/jobs/"+st.ID+"/export"+tc.query)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("export%s status = %d", tc.query, resp.StatusCode)
		}
		if want := encoderLines(t, tc.want); !bytes.Equal(body, want) {
			t.Errorf("export%s body differs from json.Encoder's:\n got %s\nwant %s", tc.query, body, want)
		}
	}
}

// TestExportLineRoundTrip: AppendExportLine writes json.Encoder's bytes
// even for a key that needs HTML escaping, and ParseExportLine reads each
// line back to the same entry.
func TestExportLineRoundTrip(t *testing.T) {
	payload := []byte(`{"Benchmark":"gcc","Config":{"Trace":"a\u003cb"},"Power":{"L2":4.25e-7}}`)
	entries := []ExportEntry{
		{Key: "gcc|d:seldm+waypred|4x16384x32", Result: payload},
		{Key: "gcc|tr:/traces/<a&b>/é\"q\\.wct", Result: payload},
	}
	var stream []byte
	for _, e := range entries {
		stream = AppendExportLine(stream, e)
	}
	if want := encoderLines(t, entries); !bytes.Equal(stream, want) {
		t.Fatalf("AppendExportLine differs from json.Encoder:\n got %s\nwant %s", stream, want)
	}
	if !bytes.Contains(stream, []byte(`\u003ca\u0026b\u003e`)) {
		t.Errorf("key was not HTML-escaped: %s", stream)
	}
	for i, line := range bytes.SplitAfter(bytes.TrimSuffix(stream, []byte("\n")), []byte("\n")) {
		got, err := ParseExportLine(line)
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, entries[i]) {
			t.Errorf("line %d parsed to %+v, want %+v", i, got, entries[i])
		}
	}
}

// TestParseExportLineRejects: anything but one complete entry is an
// error, so a coordinator can never bank a zero or half-read entry.
func TestParseExportLineRejects(t *testing.T) {
	line := string(AppendExportLine(nil, ExportEntry{Key: "k", Result: []byte(`{"a":"}","b":[1,{"c":2}]}`)}))
	if _, err := ParseExportLine([]byte(line)); err != nil {
		t.Fatalf("well-formed line rejected: %v", err)
	}
	for _, bad := range []string{
		"",
		"\n",
		line[:5],                             // truncated inside the key
		line[:len(`{"key":"k","res`)],        // truncated before the result
		line[:len(line)-3],                   // truncated inside the result
		line[:len(line)-2],                   // result without the closing brace
		`{"key":"k"}`,                        // no result
		`{"key":"k","result":null}`,          // result not an object
		`{"key":"","result":{}}`,             // empty key
		`{"result":{},"key":"k"}`,            // fields out of order
		strings.TrimSuffix(line, "\n") + "x", // trailing garbage
		strings.TrimSuffix(line, "\n") + "}", // trailing brace
		strings.TrimSuffix(line, "\n") + "\n{}\n",  // two lines
		`{"key":"k\u0","result":{}}`,               // bad key escape
		`{"key":"k","result":{"a":"unterminated}}`, // string runs to the end
	} {
		if e, err := ParseExportLine([]byte(bad)); err == nil {
			t.Errorf("ParseExportLine(%q) = %+v, want an error", bad, e)
		}
	}
}
