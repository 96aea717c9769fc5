package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ctrlsched/internal/jobs"
)

// Span headers carry the caller's span and request IDs across one HTTP
// hop, so a replica handler span can name the proxy hop (or client
// request) that caused it.
const (
	hdrSpan = "X-Bench-Span"
	hdrReq  = "X-Bench-Req"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer's epoch; Parent 0 means a root span.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span of a traced run in memory until the run ends.
// A nil *tracer is tracing off: every method is a no-op.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span

	// active maps a goroutine to the service handler span running on
	// it, so filesystem calls made synchronously inside a handler
	// (journal fsyncs) become that span's children.
	active sync.Map
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin allocates a span ID and stamps its start.
func (t *tracer) begin() (id uint64, start int64) {
	if t == nil {
		return 0, 0
	}
	return t.ids.Add(1), t.now()
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// end records a finished span.
func (t *tracer) end(name string, id, parent, req uint64, start int64) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: t.now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops the spans recorded so far (set-up and warm-up traffic).
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as one JSON line at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goid parses the current goroutine's ID from its stack header
// ("goroutine 123 [running]:"). Traced runs only.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// selfTimes maps every span ID to its self time: its duration minus the
// part of its interval that its children cover. Overlapping children
// (a scatter-gather's parallel hops) are counted once.
func selfTimes(spans []span) map[uint64]int64 {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of children's intervals clipped to
// the parent's interval.
func covered(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanCtx is what a wrapped handler passes down its request context:
// the handler's own span and request IDs.
type spanCtx struct{ id, req uint64 }

type spanCtxKey struct{}

// headerIDs reads the caller's span and request IDs from r.
func headerIDs(r *http.Request) (parent, req uint64) {
	parent, _ = strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
	req, _ = strconv.ParseUint(r.Header.Get(hdrReq), 10, 64)
	return parent, req
}

// wrapHandler records one span per request served by h, named
// layer.<route>. The span's IDs travel in the request context (for the
// gateway's outbound hops) and in the goroutine map (for filesystem
// calls the handler makes synchronously).
func (t *tracer) wrapHandler(layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, req := headerIDs(r)
		id, start := t.begin()
		g := goid()
		t.active.Store(g, id)
		ctx := context.WithValue(r.Context(), spanCtxKey{}, spanCtx{id: id, req: req})
		h.ServeHTTP(w, r.WithContext(ctx))
		t.active.Delete(g)
		t.end(layer+"."+routeName(r.URL.Path), id, parent, req, start)
	})
}

// routeName names the route a request hit, as the per-route metrics do.
func routeName(p string) string {
	switch {
	case p == "/v1/analyze":
		return "analyze"
	case p == "/v1/analyze/batch":
		return "analyze_batch"
	case p == "/v1/codesign":
		return "codesign"
	case p == "/v1/jobs":
		return "jobs"
	case strings.HasPrefix(p, "/v1/jobs/"):
		return "job_stream"
	default:
		return "other"
	}
}

// hopTransport is the gateway's proxy transport. It maps the fleet's
// fixed replica host names onto their loopback listeners (so the
// gateway's hash ring, which is keyed by replica URL, is the same on
// every run), counts hops per replica and route, and in traced runs
// records one span per hop that ends when the gateway closes the
// response body.
type hopTransport struct {
	base http.RoundTripper
	t    *tracer

	mu   sync.Mutex
	hops map[string]int64 // "host route" → count
}

func (h *hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h.mu.Lock()
	h.hops[req.URL.Host+" "+routeName(req.URL.Path)]++
	h.mu.Unlock()
	if h.t == nil {
		return h.base.RoundTrip(req)
	}
	sc, _ := req.Context().Value(spanCtxKey{}).(spanCtx)
	id, start := h.t.begin()
	out := req.Clone(req.Context())
	out.Header.Set(hdrSpan, strconv.FormatUint(id, 10))
	out.Header.Set(hdrReq, strconv.FormatUint(sc.req, 10))
	resp, err := h.base.RoundTrip(out)
	if err != nil {
		h.t.end("hop", id, sc.id, sc.req, start)
		return nil, err
	}
	resp.Body = &hopBody{ReadCloser: resp.Body, done: func() { h.t.end("hop", id, sc.id, sc.req, start) }}
	return resp, nil
}

// hopCount returns the hops sent to host on route.
func (h *hopTransport) hopCount(host, route string) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.hops[host+" "+route]
}

// hopBody ends its hop span once, when the gateway closes the body.
type hopBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *hopBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// timingFS is the jobs.FS the durable store and job journal mutate
// through in traced runs: every fsync and rename becomes a span (a
// child of the service handler span when the handler itself made the
// call), and written bytes are counted.
type timingFS struct {
	base    jobs.FS
	t       *tracer
	written atomic.Int64
}

func (fs *timingFS) parent() uint64 {
	if v, ok := fs.t.active.Load(goid()); ok {
		return v.(uint64)
	}
	return 0
}

func (fs *timingFS) CreateTemp(dir, pattern string) (jobs.File, error) {
	f, err := fs.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: fs}, nil
}

func (fs *timingFS) OpenAppend(name string) (jobs.File, error) {
	f, err := fs.base.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: fs}, nil
}

func (fs *timingFS) Rename(oldpath, newpath string) error {
	id, start := fs.t.begin()
	err := fs.base.Rename(oldpath, newpath)
	fs.t.end("fs.rename", id, fs.parent(), 0, start)
	return err
}

func (fs *timingFS) Remove(name string) error { return fs.base.Remove(name) }

type timingFile struct {
	jobs.File
	fs *timingFS
}

func (f *timingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.written.Add(int64(n))
	return n, err
}

func (f *timingFile) Sync() error {
	id, start := f.fs.t.begin()
	err := f.File.Sync()
	f.fs.t.end("fs.sync", id, f.fs.parent(), 0, start)
	return err
}

// spanStats groups recorded spans by name: durations and self times in
// microseconds.
type spanStats struct {
	dur, self map[string][]float64
}

func summarize(spans []span) spanStats {
	self := selfTimes(spans)
	st := spanStats{dur: map[string][]float64{}, self: map[string][]float64{}}
	for _, s := range spans {
		st.dur[s.Name] = append(st.dur[s.Name], float64(s.dur())/1e3)
		st.self[s.Name] = append(st.self[s.Name], float64(self[s.ID])/1e3)
	}
	return st
}

// selfOf concatenates the self times of every span group whose name
// starts with prefix.
func (st spanStats) selfOf(prefix string) []float64 {
	var out []float64
	for name, v := range st.self {
		if strings.HasPrefix(name, prefix) {
			out = append(out, v...)
		}
	}
	return out
}

// p50 is the median of a span group (0 when the run recorded none).
func p50(v []float64) float64 { return percentile(sortedCopy(v), 50) }

func (st spanStats) String() string {
	names := make([]string, 0, len(st.dur))
	for n := range st.dur {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "  span %-28s n=%-7d dur_us.p50=%-10.1f self_us.p50=%.1f\n",
			n, len(st.dur[n]), p50(st.dur[n]), p50(st.self[n]))
	}
	return b.String()
}
