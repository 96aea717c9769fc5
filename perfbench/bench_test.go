package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"

	"ctrlsched/internal/service"
)

// sequences lists each workload's request generator for one seed.
func sequences(t *testing.T, seed int64) map[string]func() request {
	t.Helper()
	pool := fleetPool(seed)
	return map[string]func() request{
		"cold-analyze":  newColdGen(seed).next,
		"codesign-jobs": newCodesignGen(seed).next,
		"fleet-hot":     (&fleetGen{rng: rand.New(rand.NewSource(seed + 1)), pool: pool}).next,
	}
}

func firstBodies(next func() request, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = next().body
	}
	return out
}

func TestSequenceDeterministicPerSeed(t *testing.T) {
	const n = 300
	a, b, c := sequences(t, 7), sequences(t, 7), sequences(t, 8)
	for name := range a {
		x, y, z := firstBodies(a[name], n), firstBodies(b[name], n), firstBodies(c[name], n)
		same := true
		for i := range x {
			if !bytes.Equal(x[i], y[i]) {
				t.Fatalf("%s: request %d differs between two runs of seed 7:\n%s\n%s", name, i, x[i], y[i])
			}
			same = same && bytes.Equal(x[i], z[i])
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 gave the same %d requests", name, n)
		}
	}
}

func TestFleetPoolDeterministicPerSeed(t *testing.T) {
	a, b, c := fleetPool(3), fleetPool(3), fleetPool(4)
	differs := false
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("pool entry %d differs between two draws of seed 3", i)
		}
		differs = differs || !bytes.Equal(a[i].body, c[i].body)
	}
	if !differs {
		t.Error("seeds 3 and 4 drew the same pool")
	}
}

func TestColdItemsNeverRepeat(t *testing.T) {
	g := newColdGen(1)
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		r := g.next()
		if len(r.parts) != coldBatch {
			t.Fatalf("batch %d has %d items", i, len(r.parts))
		}
		for _, p := range r.parts {
			if seen[string(p)] {
				t.Fatalf("item repeats: %s", p)
			}
			seen[string(p)] = true
		}
	}
}

func TestCodesignNewSearchShare(t *testing.T) {
	g := newCodesignGen(1)
	const n = 4000
	for i := 0; i < n; i++ {
		g.next()
	}
	share := float64(len(g.searches)) / n
	if share < 0.22 || share > 0.28 {
		t.Errorf("new-search share %.3f, want ≈%.2f", share, newSearchShare)
	}
}

// TestGeneratedRequestsAccepted runs the first requests of every
// workload through a service and requires answers without item errors.
func TestGeneratedRequestsAccepted(t *testing.T) {
	svc := service.New(service.Config{})
	ctx := context.Background()
	cold := newColdGen(2)
	for i := 0; i < 3; i++ {
		b, _, err := svc.AnalyzeBatch(ctx, cold.next().body, nil)
		if err != nil || bytes.Contains(b, []byte(`{"error"`)) {
			t.Fatalf("cold batch %d: err %v, body %.300s", i, err, b)
		}
	}
	cg := newCodesignGen(2)
	for i := 0; i < 2; i++ {
		if _, _, err := svc.Codesign(ctx, cg.newSearch(), nil); err != nil {
			t.Fatalf("codesign search %d: %v", i, err)
		}
	}
	for i, e := range fleetPool(2) {
		if e.path != "/v1/analyze/batch" {
			continue
		}
		if b, _, err := svc.AnalyzeBatch(ctx, e.body, nil); err != nil || bytes.Contains(b, []byte(`{"error"`)) {
			t.Fatalf("fleet batch %d: err %v", i, err)
		}
	}
}

// TestSampledDependsOnSeedOnly requires the output-check sample to be
// the same for the same seed, to differ between seeds, and to keep
// about one answer in every.
func TestSampledDependsOnSeedOnly(t *testing.T) {
	const n, every = 8000, 8
	pick := func(seed int64) []bool {
		v := make([]bool, n)
		for k := range v {
			v[k] = sampled(seed, k, every)
		}
		return v
	}
	a, again, b := pick(1), pick(1), pick(2)
	same, kept := true, 0
	for k, x := range a {
		if x != again[k] {
			t.Fatalf("seed 1 answer %d: sampled differs between calls", k)
		}
		same = same && x == b[k]
		if x {
			kept++
		}
	}
	if same {
		t.Error("seeds 1 and 2 sample the same answers")
	}
	if kept < n/every*8/10 || kept > n/every*12/10 {
		t.Errorf("kept %d of %d answers, want about %d", kept, n, n/every)
	}
}

func TestTailPicksHighestSupportedPercentile(t *testing.T) {
	ramp := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, tc := range []struct {
		n          int
		p, value   float64
		beyond     int
		supporting bool
	}{
		{n: 15, supporting: false},
		{n: 21, p: 50, value: 11, beyond: 10, supporting: true},
		{n: 100, p: 90, value: 90, beyond: 10, supporting: true},
		{n: 999, p: 90, value: 900, beyond: 99, supporting: true},
		{n: 1000, p: 99, value: 990, beyond: 10, supporting: true},
		{n: 10000, p: 99.9, value: 9990, beyond: 10, supporting: true},
	} {
		p, v, beyond, ok := tail(ramp(tc.n))
		if ok != tc.supporting || (ok && (p != tc.p || v != tc.value || beyond != tc.beyond)) {
			t.Errorf("n=%d: got p%g=%g with %d beyond (ok %v), want p%g=%g with %d beyond (ok %v)",
				tc.n, p, v, beyond, ok, tc.p, tc.value, tc.beyond, tc.supporting)
		}
	}
}

func TestEndToEndOverWholeWindow(t *testing.T) {
	p := &phase{setups: []float64{0.3, 0.1, 0.2}, o: &outcome{
		lat:     []float64{1, 2, 100, 3},
		items:   31,
		elapsed: 4e9,
	}}
	r := &result{}
	r.endToEnd(p)
	got := map[string]float64{}
	for _, m := range r.metrics {
		got[m.name] = m.value
	}
	if got["p99_ms"] != 100 || got["p50_ms"] != 2 || got["items_per_s"] != 7.75 || got["setup_s"] != 0.2 {
		t.Errorf("metrics = %v, want setup 0.2, p50 2, p99 100, items/s 7.75", got)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if m := median(v); m != 3 {
		t.Errorf("median = %g, want 3", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %g, want 2.5", m)
	}
	s := sortedCopy(v)
	if p := percentile(s, 50); p != 3 {
		t.Errorf("p50 = %g, want 3", p)
	}
	if p := percentile(s, 99); p != 5 {
		t.Errorf("p99 = %g, want 5", p)
	}
	if v[0] != 5 {
		t.Error("sortedCopy modified its input")
	}
}

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "gateway.analyze_batch", Start: 0, End: 100},
		// Two overlapping hops (a scatter-gather): union 20..70 = 50.
		{ID: 2, Parent: 1, Name: "hop", Start: 20, End: 60},
		{ID: 3, Parent: 1, Name: "hop", Start: 30, End: 70},
		// A child sticking out past its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "hop", Start: 90, End: 130},
		// Nested: the replica handler under hop 2, with an fsync inside.
		{ID: 5, Parent: 2, Name: "service.analyze_batch", Start: 25, End: 55},
		{ID: 6, Parent: 5, Name: "fs.sync", Start: 30, End: 40},
		// A disjoint second child of the handler.
		{ID: 7, Parent: 5, Name: "fs.sync", Start: 45, End: 50},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{
		1: 100 - 50 - 10,
		2: 40 - 30,
		3: 40,
		4: 40,
		5: 30 - 15,
		6: 10,
		7: 5,
	} {
		if self[id] != want {
			t.Errorf("span %d: self %d, want %d", id, self[id], want)
		}
	}
}

func TestSummarizeGroupsByName(t *testing.T) {
	st := summarize([]span{
		{ID: 1, Name: "gateway.analyze", Start: 0, End: 10_000},
		{ID: 2, Parent: 1, Name: "hop", Start: 2_000, End: 8_000},
		{ID: 3, Name: "gateway.codesign", Start: 0, End: 4_000},
	})
	if got := p50(st.dur["hop"]); got != 6 {
		t.Errorf("hop p50 = %g µs, want 6", got)
	}
	if got := st.selfOf("gateway."); len(got) != 2 || sum(got) != 8 {
		t.Errorf("gateway self times %v, want two summing to 8 µs", got)
	}
	if !strings.Contains(st.String(), "hop") {
		t.Error("summary omits the hop group")
	}
}

func TestFmtFloatRoundsToNanoseconds(t *testing.T) {
	for in, want := range map[float64]string{0.0123456789012: "0.012345679", 0.5: "0.5", 2e-3: "0.002"} {
		if got := fmtFloat(in); got != want {
			t.Errorf("fmtFloat(%v) = %s, want %s", in, got, want)
		}
	}
}

// TestMetricsMatchBenchmarkJSON requires a run to print exactly the
// metric names and units BENCHMARK.json declares, in both modes.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	p := &phase{o: &outcome{}}
	plain, traced := &result{}, &result{}
	plain.endToEnd(p)
	traced.perLayer(summarize(nil), p, replays{}, 0)
	for _, c := range []struct {
		mode string
		want []decl
		got  []metric
	}{{"end-to-end", spec.EndToEnd, plain.metrics}, {"traced", spec.PerLayer, traced.metrics}} {
		got := map[string]string{}
		for _, m := range c.got {
			got[m.name] = m.unit
		}
		if len(got) != len(c.want) {
			t.Errorf("%s run prints %d metrics, BENCHMARK.json declares %d", c.mode, len(got), len(c.want))
		}
		for _, d := range c.want {
			if u, ok := got[d.Name]; !ok || u != d.Unit {
				t.Errorf("%s run: metric %s printed with unit %q (present %v), declared %q", c.mode, d.Name, u, ok, d.Unit)
			}
		}
	}
}

func TestCodesignPairsTakeTurns(t *testing.T) {
	g := newCodesignGen(1)
	pairs := map[string]int{}
	for i := 0; i < 40; i++ {
		var req struct {
			Loops []struct{ Plant string } `json:"loops"`
		}
		body := g.newSearch()
		g.searches = append(g.searches, body)
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		if req.Loops[0].Plant == req.Loops[1].Plant {
			t.Fatalf("search %d pairs %s with itself", i, req.Loops[0].Plant)
		}
		pairs[req.Loops[0].Plant+"+"+req.Loops[1].Plant]++
	}
	if len(pairs) != 20 {
		t.Errorf("40 searches covered %d ordered plant pairs, want all 20 twice", len(pairs))
	}
	for p, n := range pairs {
		if n != 2 {
			t.Errorf("pair %s used %d times, want 2", p, n)
		}
	}
}
