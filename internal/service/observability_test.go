package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ctrlsched/internal/jobs"
)

// TestHealthzSchema is the regression gate on the health endpoint's
// JSON shape: the cache-observability fields the operations story
// depends on (kmemo and result-LRU hit/miss/evict counters) must stay
// present under these exact names.
func TestHealthzSchema(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// One analyze round trip so the counters are exercised, then one
	// repeat so both a miss and a hit are on the books.
	body := []byte(`{"plant":"dc-servo","period":0.006}`)
	for i := 0; i < 2; i++ {
		if _, _, err := s.Analyze(context.Background(), body); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var h map[string]json.RawMessage
	if err := json.Unmarshal(raw, &h); err != nil {
		t.Fatalf("healthz is not a JSON object: %v\n%s", err, raw)
	}
	for _, key := range []string{"status", "uptime_seconds", "kinds", "stats", "pool", "kernel_cache", "result_cache"} {
		if _, ok := h[key]; !ok {
			t.Errorf("healthz missing top-level key %q", key)
		}
	}

	var kc map[string]json.RawMessage
	if err := json.Unmarshal(h["kernel_cache"], &kc); err != nil {
		t.Fatalf("kernel_cache not an object: %v", err)
	}
	for _, key := range []string{"enabled", "hits", "misses", "evictions", "entries", "bytes", "entry_cap", "byte_cap"} {
		if _, ok := kc[key]; !ok {
			t.Errorf("kernel_cache missing key %q", key)
		}
	}

	var rc map[string]json.RawMessage
	if err := json.Unmarshal(h["result_cache"], &rc); err != nil {
		t.Fatalf("result_cache not an object: %v", err)
	}
	for _, key := range []string{"hits", "misses", "evictions", "entries", "bytes", "entry_cap", "byte_cap"} {
		if _, ok := rc[key]; !ok {
			t.Errorf("result_cache missing key %q", key)
		}
	}

	// The repeat request above must be visible as a result-cache hit.
	var rcs lruStats
	if err := json.Unmarshal(h["result_cache"], &rcs); err != nil {
		t.Fatal(err)
	}
	if rcs.Hits < 1 || rcs.Entries < 1 {
		t.Errorf("result_cache counters not live: %+v", rcs)
	}
}

// TestPprofGatedByFlag pins that the profiler surface exists only when
// explicitly enabled.
func TestPprofGatedByFlag(t *testing.T) {
	off := httptest.NewServer(New(Config{}).Handler())
	defer off.Close()
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof reachable without -pprof: status %d", resp.StatusCode)
	}

	on := httptest.NewServer(New(Config{EnablePprof: true}).Handler())
	defer on.Close()
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index with -pprof: status %d", resp.StatusCode)
	}
}

// TestAnalyzeHitPathAllocs is the allocation audit of the issue: a
// cache-hit analyze must not allocate per-request key material beyond
// the unavoidable JSON decode of the request itself. The bound is
// deliberately a ceiling, not a target — it fails loudly if someone
// reintroduces per-request digest states, key strings, or response
// re-encoding on the hit path.
func TestAnalyzeHitPathAllocs(t *testing.T) {
	s := New(Config{})
	ctx := context.Background()
	raw := []byte(`{"plant":"dc-servo","period":0.0061}`)
	if _, _, err := s.Analyze(ctx, raw); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, hit, err := s.Analyze(ctx, raw); err != nil || !hit {
			t.Fatalf("hit=%v err=%v", hit, err)
		}
	})
	if allocs > 48 {
		t.Fatalf("analyze hit path allocates %.0f objects/op (bound 48)", allocs)
	}
}

// TestRequestCountingPerRoute pins the service counters' contract over
// every route, with good and bad bodies: each call is exactly one
// request, a failing call exactly one error, and a job counts once when
// it runs, whatever its kind. Errors can therefore never outnumber
// requests.
func TestRequestCountingPerRoute(t *testing.T) {
	s := New(Config{Workers: 2, MaxConcurrent: 2, CacheEntries: 64})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	codesign := strings.Replace(codesignBody, `"horizon": 0.5`, `"horizon": 0.05`, 1)
	job := func(kind, request string) string {
		return `{"kind":"` + kind + `","request":` + request + `}`
	}
	cases := []struct {
		name, path, body string
		fail             bool
	}{
		{"experiment", "/v1/experiments/table1", smallTable1, false},
		{"experiment-stream", "/v1/experiments/table1?stream=1", `{"benchmarks":40,"sizes":[4],"seed":3,"gen":{"grid_points":4}}`, false},
		{"experiment-unknown-kind", "/v1/experiments/no-such-kind", `{}`, true},
		{"experiment-bad-config", "/v1/experiments/table1", `{"benchmarks":"many"}`, true},
		{"analyze", "/v1/analyze", `{"plant":"dc-servo","period":0.0063}`, false},
		{"analyze-bad-json", "/v1/analyze", `{"plant":`, true},
		{"analyze-bad-plant", "/v1/analyze", `{"plant":"no-such-plant","period":0.006}`, true},
		{"batch", "/v1/analyze/batch", string(batchBody(3)), false},
		{"batch-stream", "/v1/analyze/batch?stream=1", string(batchBody(4)), false},
		{"batch-empty", "/v1/analyze/batch", `{"items":[]}`, true},
		// Item failures travel in-band in a 200 response: the batch
		// request succeeded, so no error is booked for it.
		{"batch-item-errors", "/v1/analyze/batch", `{"items":[
			{"tasks":[{"bcet":0.01,"wcet":0.02,"period":2,"plant":"inverted-pendulum"}]},
			{"tasks":[{"bcet":0.01,"wcet":0.02,"period":3,"plant":"inverted-pendulum"}]}]}`, false},
		{"codesign", "/v1/codesign", codesign, false},
		{"codesign-stream", "/v1/codesign?stream=1", strings.Replace(codesign, `"seed": 42`, `"seed": 43`, 1), false},
		{"codesign-no-loops", "/v1/codesign", `{"loops":[]}`, true},
		{"job-analyze", "/v1/jobs", job("analyze", `{"plant":"dc-servo","period":0.0064}`), false},
		{"job-batch", "/v1/jobs", job("analyze_batch", string(batchBody(5))), false},
		{"job-codesign", "/v1/jobs", job("codesign", strings.Replace(codesign, `"seed": 42`, `"seed": 44`, 1)), false},
		{"job-experiment", "/v1/jobs", job("table1", `{"benchmarks":30,"sizes":[4],"seed":5,"gen":{"grid_points":4}}`), false},
		{"job-bad-request", "/v1/jobs", job("analyze", `{"plant":"no-such-plant"}`), true},
		{"job-unknown-kind", "/v1/jobs", job("no-such-kind", `{}`), true},
		{"job-missing-kind", "/v1/jobs", `{"request":{}}`, true},
		{"job-bad-json", "/v1/jobs", `{"kind":`, true},
	}
	for _, tc := range cases {
		before := s.Stats()
		resp, err := http.Post(srv.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		failed := resp.StatusCode >= 400
		if resp.StatusCode == http.StatusAccepted {
			var st jobs.Status
			if err := json.Unmarshal(raw, &st); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			j, ok := s.Job(st.ID)
			if !ok {
				t.Fatalf("%s: job %s not tracked", tc.name, st.ID)
			}
			waitJob(t, j)
			failed = j.Status().State != jobs.StateDone
		}
		if failed != tc.fail {
			t.Fatalf("%s: status %d, failed=%v, want failed=%v\n%s", tc.name, resp.StatusCode, failed, tc.fail, raw)
		}
		after := s.Stats()
		if got := after.Requests - before.Requests; got != 1 {
			t.Errorf("%s: requests rose by %d, want 1", tc.name, got)
		}
		wantErrs := int64(0)
		if tc.fail {
			wantErrs = 1
		}
		if got := after.Errors - before.Errors; got != wantErrs {
			t.Errorf("%s: errors rose by %d, want %d", tc.name, got, wantErrs)
		}
		if after.Errors > after.Requests {
			t.Errorf("%s: errors %d exceed requests %d", tc.name, after.Errors, after.Requests)
		}
	}
}
