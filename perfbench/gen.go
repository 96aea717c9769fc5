package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"ctrlsched/internal/plant"
)

// request is one unit of client work: a body for one route, the work
// items it completes, and what its answer is checked against.
type request struct {
	idx   int
	path  string
	body  []byte
	items int
	// ref names the answer this request must match: the fleet pool
	// entry, or the distinct codesign search a job submits.
	ref int
	// parts are the item bodies of a cold-analyze batch, kept so a
	// sampled item can be recomputed on its own.
	parts [][]byte
	// plantQueries counts the batch items that are plant queries.
	plantQueries int
}

// plants is the library the generated requests name; the generators
// read only names and recommended period ranges from it.
var plants = plant.Library()

// fmtFloat rounds x to the nanosecond and prints it in its shortest
// round-tripping form, so request bodies are compact and reproducible.
func fmtFloat(x float64) string {
	return strconv.FormatFloat(math.Round(x*1e9)/1e9, 'g', -1, 64)
}

// drawPeriod draws a period uniformly from p's recommended range.
func drawPeriod(rng *rand.Rand, p *plant.Plant) float64 {
	return math.Round((p.HMin+rng.Float64()*(p.HMax-p.HMin))*1e9) / 1e9
}

// plantQuery is the body of one /v1/analyze plant query.
func plantQuery(name string, period float64) []byte {
	return []byte(fmt.Sprintf(`{"plant":%q,"period":%s}`, name, fmtFloat(period)))
}

// batchBody wraps item bodies in a /v1/analyze/batch envelope.
func batchBody(items [][]byte) []byte {
	return append(append([]byte(`{"items":[`), bytes.Join(items, []byte(","))...), "]}"...)
}

// Cold-analyze batches: coldBatch items, of which coldTaskSets are
// plant-backed task sets of coldTaskSize tasks and the rest plant
// queries. Every (plant, period) pair is used once per run, so neither
// the result LRU nor the kernel memo can answer an item.
const (
	coldBatch    = 8
	coldTaskSets = 2
	coldTaskSize = 3
)

type coldGen struct {
	rng  *rand.Rand
	n    int
	seen map[string]bool
}

func newColdGen(seed int64) *coldGen {
	return &coldGen{rng: rand.New(rand.NewSource(seed)), seen: map[string]bool{}}
}

// freshPeriod draws a period for p that no earlier item used.
func (g *coldGen) freshPeriod(p *plant.Plant) float64 {
	for {
		h := drawPeriod(g.rng, p)
		k := p.Name + "@" + fmtFloat(h)
		if !g.seen[k] {
			g.seen[k] = true
			return h
		}
	}
}

func (g *coldGen) next() request {
	parts := make([][]byte, 0, coldBatch)
	for j := 0; j < coldBatch-coldTaskSets; j++ {
		p := plants[(g.n*coldBatch+j)%len(plants)]
		parts = append(parts, plantQuery(p.Name, g.freshPeriod(p)))
	}
	for j := 0; j < coldTaskSets; j++ {
		var b bytes.Buffer
		b.WriteString(`{"tasks":[`)
		for k, pi := range g.rng.Perm(len(plants))[:coldTaskSize] {
			p := plants[pi]
			h := g.freshPeriod(p)
			wcet := h * (0.08 + 0.12*g.rng.Float64())
			bcet := wcet * (0.4 + 0.5*g.rng.Float64())
			if k > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"plant":%q,"bcet":%s,"wcet":%s,"period":%s}`,
				p.Name, fmtFloat(bcet), fmtFloat(wcet), fmtFloat(h))
		}
		b.WriteString(`]}`)
		parts = append(parts, b.Bytes())
	}
	// Interleave the task sets among the plant queries.
	g.rng.Shuffle(len(parts), func(a, b int) { parts[a], parts[b] = parts[b], parts[a] })
	g.n++
	return request{
		path:         "/v1/analyze/batch",
		body:         batchBody(parts),
		items:        coldBatch,
		ref:          -1,
		parts:        parts,
		plantQueries: coldBatch - coldTaskSets,
	}
}

// codesignGrid is a plant's shared candidate-period grid: every search
// over the plant draws its candidates from it, so new searches reuse
// part of earlier kernel work.
func codesignGrid(p *plant.Plant, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = p.HMin * math.Pow(p.HMax/p.HMin, float64(i)/float64(n-1))
	}
	return out
}

// codesignBody is one two-loop co-design search over plants a and b
// with the given candidate periods.
func codesignBody(a, b string, pa, pb []float64) []byte {
	list := func(hs []float64) string {
		var s bytes.Buffer
		for i, h := range hs {
			if i > 0 {
				s.WriteByte(',')
			}
			s.WriteString(fmtFloat(h))
		}
		return s.String()
	}
	return []byte(fmt.Sprintf(
		`{"loops":[{"plant":%q,"bcet":0.00105,"wcet":0.0015,"periods":[%s]},{"plant":%q,"bcet":0.0008,"wcet":0.0012,"periods":[%s]}],"horizon":0.5,"seed":42}`,
		a, list(pa), b, list(pb)))
}

// pickSorted draws k distinct grid points, returned in grid order.
func pickSorted(rng *rand.Rand, grid []float64, k int) []float64 {
	idx := rng.Perm(len(grid))[:k]
	out := make([]float64, 0, k)
	for i := range grid {
		for _, j := range idx {
			if i == j {
				out = append(out, grid[i])
			}
		}
	}
	return out
}

// Codesign-jobs submissions: a new search with probability
// newSearchShare, otherwise a repeat of a uniformly chosen earlier one.
// The share sits well below ½ so the latency median lies inside the
// repeat mode and the p99 inside the new-search mode.
const (
	newSearchShare = 0.25
	gridPoints     = 12
)

type codesignGen struct {
	rng      *rand.Rand
	grids    [][]float64
	searches [][]byte // distinct searches in creation order
	seen     map[string]bool
}

func newCodesignGen(seed int64) *codesignGen {
	g := &codesignGen{rng: rand.New(rand.NewSource(seed)), seen: map[string]bool{}}
	for _, p := range plants {
		g.grids = append(g.grids, codesignGrid(p, gridPoints))
	}
	return g
}

// newSearch draws a two-loop search no earlier submission made. Plant
// pairs take turns, so every run spends the same share of its new
// searches on each pair whatever the seed; the seed picks the periods.
func (g *codesignGen) newSearch() []byte {
	n := len(plants)
	k := len(g.searches) % (n * (n - 1))
	a, b := k/(n-1), k%(n-1)
	if b >= a {
		b++
	}
	for {
		body := codesignBody(plants[a].Name, plants[b].Name,
			pickSorted(g.rng, g.grids[a], 5), pickSorted(g.rng, g.grids[b], 4))
		if !g.seen[string(body)] {
			g.seen[string(body)] = true
			return body
		}
	}
}

func (g *codesignGen) next() request {
	ref := 0
	if len(g.searches) == 0 || g.rng.Float64() < newSearchShare {
		g.searches = append(g.searches, g.newSearch())
		ref = len(g.searches) - 1
	} else {
		ref = g.rng.Intn(len(g.searches))
	}
	body := append(append([]byte(`{"kind":"codesign","request":`), g.searches[ref]...), '}')
	return request{path: "/v1/jobs", body: body, items: 1, ref: ref}
}

// poolEntry is one distinct fleet-hot request.
type poolEntry struct {
	path  string
	body  []byte
	items int
}

// Fleet-hot pool: small enough that every replica's result LRU holds
// all of it after one warm-up pass. The sizes are an assumption, not a
// measured traffic profile: enough distinct single queries to spread
// over both replicas' shards of every plant, and enough batches and
// searches that no single answer dominates.
const (
	fleetSingles   = 16
	fleetBatches   = 6
	fleetCodesigns = 4
)

// fleetPool draws the fleet-hot request pool. Every batch carries one
// item of each library plant, so it spans every replica's shard of the
// plant keyspace and the gateway must split it.
func fleetPool(seed int64) []poolEntry {
	rng := rand.New(rand.NewSource(seed))
	singles := make([][]byte, fleetSingles)
	byPlant := make([][][]byte, len(plants))
	var pool []poolEntry
	for i := range singles {
		pi := i % len(plants)
		singles[i] = plantQuery(plants[pi].Name, drawPeriod(rng, plants[pi]))
		byPlant[pi] = append(byPlant[pi], singles[i])
		pool = append(pool, poolEntry{path: "/v1/analyze", body: singles[i], items: 1})
	}
	for i := 0; i < fleetBatches; i++ {
		var items [][]byte
		for _, qs := range byPlant {
			items = append(items, qs[rng.Intn(len(qs))])
		}
		for len(items) < coldBatch {
			items = append(items, singles[rng.Intn(len(singles))])
		}
		rng.Shuffle(len(items), func(a, b int) { items[a], items[b] = items[b], items[a] })
		pool = append(pool, poolEntry{path: "/v1/analyze/batch", body: batchBody(items), items: len(items)})
	}
	for i := 0; i < fleetCodesigns; i++ {
		a, b := i%len(plants), (i+1)%len(plants)
		pa := pickSorted(rng, codesignGrid(plants[a], gridPoints), 4)
		pb := pickSorted(rng, codesignGrid(plants[b], gridPoints), 3)
		pool = append(pool, poolEntry{path: "/v1/codesign", body: codesignBody(plants[a].Name, plants[b].Name, pa, pb), items: 1})
	}
	return pool
}

// Fleet-hot traffic mix over the pool's three request kinds, also an
// assumption: single queries dominate, as the cheapest call, and at 70 %
// the latency median lies well inside their mode rather than on the
// boundary with the slower batch and co-design answers.
const (
	fleetSingleShare = 0.7
	fleetBatchShare  = 0.2
)

type fleetGen struct {
	rng  *rand.Rand
	pool []poolEntry
}

func (g *fleetGen) next() request {
	var ref int
	switch u := g.rng.Float64(); {
	case u < fleetSingleShare:
		ref = g.rng.Intn(fleetSingles)
	case u < fleetSingleShare+fleetBatchShare:
		ref = fleetSingles + g.rng.Intn(fleetBatches)
	default:
		ref = fleetSingles + fleetBatches + g.rng.Intn(fleetCodesigns)
	}
	e := g.pool[ref]
	return request{path: e.path, body: e.body, items: e.items, ref: ref}
}
