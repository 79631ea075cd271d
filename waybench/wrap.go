package main

// Wrappers that time one layer each without changing what it computes.
// Every method forwards to the wrapped value and returns exactly what it
// returned; the tests in bench_test.go hold each wrapper byte-identical to
// the bare layer.

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"waycache/internal/access"
	"waycache/internal/cache"
	"waycache/internal/core"
	"waycache/internal/energy"
	"waycache/internal/sweep"
	"waycache/internal/trace"
)

// timedSource times every call into a trace.WindowSource. The pipeline
// pulls a new window only when it has consumed the last one, so a live
// walker behind a 512-instruction buffer costs one timed call per refill,
// and an arena replay (whose window is the whole remaining trace) one
// timed call per run.
type timedSource struct {
	src   trace.WindowSource
	busy  time.Duration
	calls int64
}

func (s *timedSource) Next(out *trace.Inst) bool {
	t0 := time.Now()
	ok := s.src.Next(out)
	s.busy += time.Since(t0)
	s.calls++
	return ok
}

func (s *timedSource) Window() []trace.Inst {
	t0 := time.Now()
	w := s.src.Window()
	s.busy += time.Since(t0)
	s.calls++
	return w
}

func (s *timedSource) Advance(n int) { s.src.Advance(n) }

// timedDCache times every load and store through an access.DController.
type timedDCache struct {
	dc     access.DController
	busy   time.Duration
	loads  int64
	stores int64
}

func (d *timedDCache) Load(in *trace.Inst) (int, access.LoadClass) {
	t0 := time.Now()
	lat, class := d.dc.Load(in)
	d.busy += time.Since(t0)
	d.loads++
	return lat, class
}

func (d *timedDCache) Store(in *trace.Inst) int {
	t0 := time.Now()
	lat := d.dc.Store(in)
	d.busy += time.Since(t0)
	d.stores++
	return lat
}

func (d *timedDCache) Stats() access.DStats     { return d.dc.Stats() }
func (d *timedDCache) Account() *energy.Account { return d.dc.Account() }
func (d *timedDCache) CacheStats() cache.Stats  { return d.dc.CacheStats() }

var _ access.DController = (*timedDCache)(nil)

// tracedBackend records a span around every call into a sweep.Backend.
// It forwards the optional Scanner extension too, so a Tiered store over
// it still serves corpus scans from the wrapped layer.
// name prefixes the spans ("resultdb", "sweep.memory"); op and parent,
// when set by a single-goroutine caller, attribute the spans to its
// operation. Calls from inside a server carry no operation.
type tracedBackend struct {
	b          sweep.Backend
	t          *tracer
	name       string
	op, parent int64
}

func (b *tracedBackend) Get(key string) (*core.Result, bool, error) {
	s := b.t.begin(b.name+".get", b.parent, b.op)
	res, found, err := b.b.Get(key)
	if found {
		s.attr("found", 1)
	}
	s.end()
	return res, found, err
}

func (b *tracedBackend) Put(key string, res *core.Result) error {
	s := b.t.begin(b.name+".put", b.parent, b.op)
	err := b.b.Put(key, res)
	s.end()
	return err
}

func (b *tracedBackend) Len() int { return b.b.Len() }

func (b *tracedBackend) Scan(fn func(key string, res *core.Result) error) error {
	sc, ok := b.b.(sweep.Scanner)
	if !ok {
		return nil
	}
	s := b.t.begin(b.name+".scan", b.parent, b.op)
	var n int64
	err := sc.Scan(func(key string, res *core.Result) error {
		n++
		return fn(key, res)
	})
	s.attr("results", n)
	s.end()
	return err
}

var (
	_ sweep.Backend = (*tracedBackend)(nil)
	_ sweep.Scanner = (*tracedBackend)(nil)
)

// Header names that join a server span to the client request it serves.
const (
	hdrSpan = "X-Waybench-Span"
	hdrOp   = "X-Waybench-Op"
)

// tracedTransport is the coordinator's http.RoundTripper in the traced
// run. It stamps each request with a span id and the current fleet
// operation, so the server middleware can parent its span on the client
// request, and records a "coord.request" span that ends when the response
// body is closed — for the events stream and exports that is when the
// coordinator has read the whole response.
type tracedTransport struct {
	base http.RoundTripper
	t    *tracer
	op   atomic.Int64 // the coord.Run in flight; set by the fleet client
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	op := tt.op.Load()
	s := tt.t.begin("coord.request", op, op)
	r := req.Clone(req.Context())
	r.Header.Set(hdrSpan, strconv.FormatInt(s.id(), 10))
	r.Header.Set(hdrOp, strconv.FormatInt(op, 10))
	resp, err := tt.base.RoundTrip(r)
	if err != nil {
		s.attr("error", 1)
		s.end()
		return nil, err
	}
	s.attr("status", int64(resp.StatusCode))
	resp.Body = &spanBody{ReadCloser: resp.Body, s: s}
	return resp, nil
}

// spanBody ends its span once, at Close.
type spanBody struct {
	io.ReadCloser
	s    *openSpan
	done bool
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	if !b.done {
		b.done = true
		b.s.end()
	}
	return err
}

// routeName names a server span by the endpoint a request hits.
func routeName(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/api/v1/jobs":
		return "server.submit"
	case strings.HasSuffix(p, "/events"):
		return "server.events"
	case strings.HasSuffix(p, "/export"):
		return "server.export"
	case p == "/api/v1/results" || p == "/api/v1/aggregate":
		return "server.query"
	case strings.HasPrefix(p, "/api/v1/traces/"):
		return "server.traces"
	case r.Method == http.MethodDelete:
		return "server.evict"
	default:
		return "server.other"
	}
}

// traceHandler is the server middleware of the traced run: one span per
// request, parented on the client span named in the request headers, with
// the response status and body size as attributes.
func traceHandler(t *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		op, _ := strconv.ParseInt(r.Header.Get(hdrOp), 10, 64)
		s := t.begin(routeName(r), parent, op)
		rec := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		s.attr("status", int64(rec.status))
		s.attr("bytes", rec.bytes)
		s.end()
	})
}

// statusWriter records the status and body size of a response. It keeps
// the SSE endpoint working by forwarding Flush.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
