package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ctrlsched/internal/kmemo"
	"ctrlsched/internal/service"
)

// bench is one workload: how to deploy the system for it, the seeded
// request sequence, how to send and check one request, and the checks
// that run once its timed window is over.
type bench interface {
	// build deploys the system and brings it to its first timed
	// request: readiness plus any unmeasured warm-up pass.
	build(t *tracer) (*system, error)
	// sequence restarts the seeded request sequence (and the per-window
	// check state) and returns its generator.
	sequence() func() request
	// send issues r and checks its response.
	send(c *client, r request) error
	// settle runs the window's deferred output checks, counting each
	// mismatch as a failed request, and its self-checks, returning one
	// message per failed self-check.
	settle(o *outcome, d counters) []string
}

// An end-to-end run builds its system at least minSetups times and
// until setupBudget has passed; setup_s is the median. Direct set-ups
// take well under a millisecond and get faster over a process's first
// few dozen, so the budget buys a median of hundreds, past that
// warm-up; fleet set-ups (with their warm-up pass) get about a dozen.
const (
	minSetups   = 9
	setupBudget = time.Second
)

func newBench(name string, seed int64) (bench, error) {
	switch name {
	case "cold-analyze":
		return &coldBench{seed: seed}, nil
	case "codesign-jobs":
		return &codesignBench{seed: seed}, nil
	case "fleet-hot":
		return newFleetBench(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (have: cold-analyze, codesign-jobs, fleet-hot)", name)
}

// ready waits for sys to answer /readyz through a throwaway client,
// closing sys if it never does.
func ready(sys *system) (*system, error) {
	c := newClient(sys.url, nil)
	defer c.close()
	if err := waitReady(c.hc, sys.url); err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

// --- cold-analyze ---------------------------------------------------

// coldSampleEvery sets the share of cold-analyze items whose bytes are
// checked against an independent recomputation.
const coldSampleEvery = 64

type coldSample struct{ query, got []byte }

type coldBench struct {
	seed int64

	mu           sync.Mutex
	samples      []coldSample
	sent         []request // the first kernelReplayBatches batches, by index
	plantQueries atomic.Int64
}

func (b *coldBench) build(t *tracer) (*system, error) {
	sys, err := buildDirect(t, false)
	if err != nil {
		return nil, err
	}
	return ready(sys)
}

func (b *coldBench) sequence() func() request {
	b.samples, b.sent = nil, make([]request, kernelReplayBatches)
	b.plantQueries.Store(0)
	return newColdGen(b.seed).next
}

// sampled reports whether the k-th checkable answer of a run seeded
// with seed falls in a 1-in-every sample; the choice depends only on
// the seed and k.
func sampled(seed int64, k, every int) bool {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(k+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return x%uint64(every) == 0
}

func (b *coldBench) send(c *client, r request) error {
	body, err := c.post(r.path, r.body, http.StatusOK, "client.analyze_batch", uint64(r.idx+1))
	if err != nil {
		return err
	}
	var env struct {
		Items []json.RawMessage `json:"items"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("batch response: %w", err)
	}
	if len(env.Items) != len(r.parts) {
		return fmt.Errorf("batch response has %d items, sent %d", len(env.Items), len(r.parts))
	}
	b.plantQueries.Add(int64(r.plantQueries))
	b.mu.Lock()
	defer b.mu.Unlock()
	if r.idx < len(b.sent) {
		b.sent[r.idx] = r
	}
	for j, item := range env.Items {
		if bytes.HasPrefix(item, []byte(`{"error"`)) {
			return fmt.Errorf("batch item %d failed: %.200s", j, item)
		}
		if sampled(b.seed, r.idx*coldBatch+j, coldSampleEvery) {
			b.samples = append(b.samples, coldSample{query: r.parts[j], got: item})
		}
	}
	return nil
}

// settle recomputes every sampled item on a separate service with an
// empty kernel memo and byte-compares it, then checks that the window
// really ran cold: no result-cache hit, and no kernel-memo hit beyond
// the one synthesis each plant query shares with its own margin
// analysis.
func (b *coldBench) settle(o *outcome, d counters) []string {
	kmemo.Default().Reset()
	ref := service.New(service.Config{})
	for _, s := range b.samples {
		want, _, err := ref.Analyze(context.Background(), s.query)
		if err != nil || !bytes.Equal(bytes.TrimRight(want, "\n"), s.got) {
			o.fail(fmt.Sprintf("item %s: bytes differ from recomputation (err %v)", s.query, err))
		}
	}
	fmt.Printf("check: %d sampled items byte-compared against recomputation\n", len(b.samples))
	var bad []string
	if d.svcHits != 0 {
		bad = append(bad, fmt.Sprintf("cold-analyze served %d result-cache hits", d.svcHits))
	}
	if pq := b.plantQueries.Load(); d.kmHits > pq {
		bad = append(bad, fmt.Sprintf("cold-analyze kernel memo hit %d times, more than its %d plant queries", d.kmHits, pq))
	}
	return bad
}

// --- codesign-jobs --------------------------------------------------

// jobResult is what every job of one distinct search returned.
type jobResult struct {
	sum  [32]byte
	jobs int64
}

type codesignBench struct {
	seed int64
	gen  *codesignGen

	mu      sync.Mutex
	results map[int]*jobResult
}

func (b *codesignBench) build(t *tracer) (*system, error) {
	sys, err := buildDirect(t, true)
	if err != nil {
		return nil, err
	}
	return ready(sys)
}

func (b *codesignBench) sequence() func() request {
	b.gen = newCodesignGen(b.seed)
	b.results = map[int]*jobResult{}
	return b.gen.next
}

// send submits one job and follows its event stream to the terminal
// event. Every job of one search must return the same bytes.
func (b *codesignBench) send(c *client, r request) error {
	req := uint64(r.idx + 1)
	status, err := c.post(r.path, r.body, http.StatusAccepted, "client.submit", req)
	if err != nil {
		return err
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(status, &st); err != nil || st.ID == "" {
		return fmt.Errorf("job status %.200s: %v", status, err)
	}
	resp, err := c.call(http.MethodGet, "/v1/jobs/"+st.ID+"?stream=1", nil, "client.wait", req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("job %s stream: status %d", st.ID, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var ev struct {
			Type   string          `json:"type"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("job %s stream line: %w", st.ID, err)
		}
		switch ev.Type {
		case "error":
			return fmt.Errorf("job %s failed: %.200s", st.ID, sc.Bytes())
		case "result":
			return b.record(r.ref, sha256.Sum256(ev.Result))
		}
	}
	return fmt.Errorf("job %s stream ended without a terminal event (%v)", st.ID, sc.Err())
}

func (b *codesignBench) record(ref int, sum [32]byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	jr := b.results[ref]
	if jr == nil {
		jr = &jobResult{sum: sum}
		b.results[ref] = jr
	}
	if jr.sum != sum {
		return fmt.Errorf("search %d: job bytes differ from an earlier job of the same search", ref)
	}
	jr.jobs++
	return nil
}

// codesignSampleEvery sets the share of distinct codesign searches whose
// job bytes are checked against an independent recomputation. Checking
// every search would redo the whole window's co-design work after each
// run, about two thirds of the window's length again.
const codesignSampleEvery = 8

// settle checks a seeded 1-in-codesignSampleEvery sample of the distinct
// searches' job bytes against the synchronous /v1/codesign answer for
// the same request (the sync/job contract), computed by a separate
// service with an emptied kernel memo, so no answer is checked against a
// copy of itself. The jobs of the other searches are checked only
// against each other (a store round trip, in record). It then checks
// that the window exercised both the store read path and the journal
// write path.
func (b *codesignBench) settle(o *outcome, d counters) []string {
	kmemo.Default().Reset()
	ref, err := buildDirect(nil, false)
	if err == nil {
		ref, err = ready(ref)
	}
	if err != nil {
		return []string{"reference service: " + err.Error()}
	}
	defer ref.close()
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(ref.url, nil)
			defer c.close()
			for k := range work {
				want, err := c.post("/v1/codesign", b.gen.searches[k], http.StatusOK, "", 0)
				jr := b.results[k]
				if err == nil && sha256.Sum256(bytes.TrimRight(want, "\n")) == jr.sum {
					continue
				}
				mu.Lock()
				for i := int64(0); i < jr.jobs; i++ {
					o.fail(fmt.Sprintf("search %d: job bytes differ from synchronous /v1/codesign (err %v)", k, err))
				}
				mu.Unlock()
			}
		}()
	}
	checked := 0
	for k := range b.gen.searches {
		// A search never submitted to completion in the window has no result.
		if b.results[k] != nil && sampled(b.seed, k, codesignSampleEvery) {
			work <- k
			checked++
		}
	}
	close(work)
	wg.Wait()
	fmt.Printf("check: %d of %d distinct searches against synchronous /v1/codesign on a separate service\n", checked, len(b.results))
	var bad []string
	if d.storeHits == 0 {
		bad = append(bad, "codesign-jobs recorded no durable-store hits")
	}
	if d.appends == 0 {
		bad = append(bad, "codesign-jobs recorded no journal appends")
	}
	return bad
}

// --- fleet-hot ------------------------------------------------------

type fleetBench struct {
	seed    int64
	pool    []poolEntry
	want    [][]byte // reference bytes per pool entry
	batches atomic.Int64
}

// newFleetBench draws the pool and computes each entry's reference
// bytes once, by direct calls on a separate service, before any
// set-up is timed.
func newFleetBench(seed int64) (*fleetBench, error) {
	b := &fleetBench{seed: seed, pool: fleetPool(seed)}
	ref := service.New(service.Config{})
	ctx := context.Background()
	for _, e := range b.pool {
		var out []byte
		var err error
		switch e.path {
		case "/v1/analyze":
			out, _, err = ref.Analyze(ctx, e.body)
		case "/v1/analyze/batch":
			out, _, err = ref.AnalyzeBatch(ctx, e.body, nil)
		default:
			out, _, err = ref.Codesign(ctx, e.body, nil)
		}
		if err != nil {
			return nil, fmt.Errorf("reference for %s %s: %w", e.path, e.body, err)
		}
		b.want = append(b.want, out)
	}
	return b, nil
}

// build deploys the fleet and sends every pool entry through it once,
// so the timed window finds every answer cached on its replica.
func (b *fleetBench) build(t *tracer) (*system, error) {
	sys, err := buildFleet(t)
	if err != nil {
		return nil, err
	}
	if sys, err = ready(sys); err != nil {
		return nil, err
	}
	c := newClient(sys.url, nil)
	defer c.close()
	for i, e := range b.pool {
		if err := b.send(c, request{path: e.path, body: e.body, ref: i}); err != nil {
			sys.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	b.batches.Store(0)
	return sys, nil
}

func (b *fleetBench) sequence() func() request {
	b.batches.Store(0)
	g := &fleetGen{rng: rand.New(rand.NewSource(b.seed + 1)), pool: b.pool}
	return g.next
}

func (b *fleetBench) send(c *client, r request) error {
	got, err := c.post(r.path, r.body, http.StatusOK, "client."+routeName(r.path), uint64(r.idx+1))
	if err != nil {
		return err
	}
	if !bytes.Equal(got, b.want[r.ref]) {
		return fmt.Errorf("pool entry %d: response bytes differ from the reference", r.ref)
	}
	if r.path == "/v1/analyze/batch" {
		b.batches.Add(1)
	}
	return nil
}

// settle checks that the window was served from the replicas' result
// caches and that the gateway split every batch across both replicas.
func (b *fleetBench) settle(o *outcome, d counters) []string {
	var bad []string
	if hr := ratio(float64(d.svcHits), float64(d.svcHits+d.svcMisses)); hr < 0.99 {
		bad = append(bad, fmt.Sprintf("fleet-hot result hit ratio %.4f below 0.99", hr))
	}
	for i, n := range d.batchHops {
		if n != b.batches.Load() {
			bad = append(bad, fmt.Sprintf("replica %s received %d batch hops for %d batches", replicaHosts[i], n, b.batches.Load()))
		}
	}
	return bad
}
