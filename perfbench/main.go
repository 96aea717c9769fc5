// Command perfbench is the repository benchmark. It builds the system
// in-process from its public constructors (service.New, gateway.New) on
// loopback listeners, drives one workload over real HTTP from a closed
// loop of two clients, checks every response, and prints the
// end-to-end metrics; with -trace 1 it instead prints the per-layer
// breakdown of a traced run of the same workload.
//
//	go run . -workload cold-analyze|codesign-jobs|fleet-hot -seed 1 -seconds 20 -trace 0|1
//
// It must run from the root of a checkout: per-run state and span files
// go under .bench_build/ there. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"ctrlsched/internal/kmemo"
)

func main() { os.Exit(run(os.Args[1:])) }

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "cold-analyze", "workload: cold-analyze, codesign-jobs or fleet-hot")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 20, "seconds the run measures (a traced run splits them between its two windows)")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	b, err := newBench(o.workload, o.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("workload=%s seed=%d seconds=%d clients=%d trace=%d\n", o.workload, o.seed, o.seconds, clients, trace)
	var res *result
	if o.trace {
		res, err = runTraced(b, o)
	} else {
		res, err = runPlain(b, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return res.print()
}

// phase is one deployment's timed window and what was read around it.
type phase struct {
	setups    []float64 // seconds per set-up
	o         *outcome
	d         counters // counter deltas over the window
	bad       []string // failed self-checks
	spans     []span
	queuedMax int
	workers   int // the services' campaign pool width
}

// runPhase builds the system at least n times and for at least budget
// (keeping the last), drives the workload through it for the window,
// and runs the workload's checks.
func runPhase(b bench, t *tracer, n int, budget, window time.Duration) (*phase, error) {
	p := &phase{}
	var sys *system
	first := time.Now()
	for k := 0; k < n || time.Since(first) < budget; k++ {
		if sys != nil {
			sys.close()
		}
		kmemo.Default().Reset()
		t0 := time.Now()
		s, err := b.build(t)
		if err != nil {
			return nil, err
		}
		sys = s
		p.setups = append(p.setups, time.Since(t0).Seconds())
	}
	defer sys.close()
	p.workers = sys.svcs[0].Workers()
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient(sys.url, t)
		defer cs[i].close()
	}
	next := b.sequence()
	t.reset()
	before := readCounters(sys)
	stop, queued := make(chan struct{}), make(chan int, 1)
	if t != nil {
		go func() { queued <- sampleQueued(sys, stop) }()
	}
	p.o = drive(window, cs, next, b.send)
	if t != nil {
		close(stop)
		p.queuedMax = <-queued
	}
	p.d = readCounters(sys).minus(before)
	p.spans = t.snapshot()
	p.bad = b.settle(p.o, p.d)
	return p, nil
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// result is what a run prints.
type result struct {
	metrics   []metric
	attempted int64
	failed    int64
	bad       []string
	errs      []string
}

func (r *result) add(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name, value, unit, note})
}

// print writes the human-readable report, then the JSON result line,
// and returns the exit code.
func (r *result) print() int {
	for _, m := range r.metrics {
		fmt.Printf("  %-34s %16s %-6s %s\n", m.name, strconv.FormatFloat(m.value, 'g', 6, 64), m.unit, m.note)
	}
	for _, e := range r.errs {
		fmt.Println("failure:", e)
	}
	for _, b := range r.bad {
		fmt.Println("self-check failed:", b)
	}
	correct := r.failed == 0 && len(r.bad) == 0
	type jv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jv, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = jv{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]jv `json:"metrics"`
	}{correct, r.attempted, r.failed, ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

func (r *result) absorb(p *phase) {
	r.attempted += p.o.attempted
	r.failed += p.o.failed
	r.errs = append(r.errs, p.o.errs...)
	r.bad = append(r.bad, p.bad...)
}

// runPlain is the end-to-end run: setups set-ups, one untraced window.
func runPlain(b bench, o options) (*result, error) {
	p, err := runPhase(b, nil, minSetups, setupBudget, time.Duration(o.seconds)*time.Second)
	if err != nil {
		return nil, err
	}
	r := &result{}
	r.absorb(p)
	r.endToEnd(p)
	return r, nil
}

// endToEnd adds the end-to-end metrics of an untraced window.
func (r *result) endToEnd(p *phase) {
	lat := sortedCopy(p.o.lat)
	r.add("setup_s", median(p.setups), "s", fmt.Sprintf("median of %d set-ups", len(p.setups)))
	r.add("p50_ms", percentile(lat, 50), "ms", fmt.Sprintf("n=%d", len(lat)))
	tailNote := fmt.Sprintf("n=%d", len(lat))
	if tp, _, beyond, ok := tail(lat); ok {
		tailNote += fmt.Sprintf("; highest percentile with ≥%d samples beyond it: p%g (%d beyond)", minBeyond, tp, beyond)
	}
	r.add("p99_ms", percentile(lat, 99), "ms", tailNote)
	r.add("items_per_s", ratio(float64(p.o.items), p.o.elapsed.Seconds()), "1/s",
		fmt.Sprintf("items=%d in %.3f s", p.o.items, p.o.elapsed.Seconds()))
	fmt.Printf("  %-34s %16s %-6s failed=%d of attempted=%d (transport errors, non-2xx and byte mismatches)\n",
		"failed_share", strconv.FormatFloat(ratio(float64(p.o.failed), float64(p.o.attempted)), 'g', 6, 64), "ratio",
		p.o.failed, p.o.attempted)
	r.add("rss_peak_mb", rssPeakMiB(), "MiB", "VmHWM of the benchmark process")
	fmt.Printf("  host CPU steal during the window: %.2f%% (time the hypervisor gave this machine's CPUs to others)\n", 100*p.o.steal)
}

// runTraced is the per-layer run: an untraced window for the overhead
// reference, then a traced window on a fresh deployment with the same
// request sequence, then the kernel and codesign replays. The two
// windows share the run's seconds, half each.
func runTraced(b bench, o options) (*result, error) {
	window := time.Duration(o.seconds) * time.Second / 2
	plain, err := runPhase(b, nil, 1, 0, window)
	if err != nil {
		return nil, err
	}
	t := newTracer()
	traced, err := runPhase(b, t, 1, 0, window)
	if err != nil {
		return nil, err
	}
	r := &result{}
	r.absorb(plain)
	r.absorb(traced)
	st := summarize(traced.spans)
	path := filepath.Join(workDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := t.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n%s", len(traced.spans), path, st)

	var rp replays
	if cb, ok := b.(*coldBench); ok {
		handler := make(map[uint64]float64)
		for _, s := range traced.spans {
			if s.Name == "service.analyze_batch" {
				handler[s.Req] = float64(s.dur()) / 1e3
			}
		}
		if rp.kt, err = replayKernels(cb.sent, handler, traced.workers); err != nil {
			return nil, err
		}
	}
	if cb, ok := b.(*codesignBench); ok {
		searches := cb.gen.searches
		if len(searches) > codesignReplays {
			searches = searches[:codesignReplays]
		}
		if rp.coldMS, rp.evals, err = replayCodesign(searches, cb.results); err != nil {
			return nil, err
		}
	}
	overhead := percentile(sortedCopy(traced.o.lat), 50) - percentile(sortedCopy(plain.o.lat), 50)
	r.perLayer(st, traced, rp, overhead)
	return r, nil
}

// replays are the kernel and cold-codesign replay measurements.
type replays struct {
	kt            kernelTimes
	coldMS, evals []float64
}

// perLayer adds the per-layer metrics of a traced window. Layers the
// workload does not reach read 0.
func (r *result) perLayer(st spanStats, traced *phase, rp replays, overhead float64) {
	d, kt := traced.d, rp.kt
	r.add("gateway.self_us.p50", p50(st.selfOf("gateway.")), "us", "gateway handler minus its proxy hops")
	r.add("gateway.hop_us.p50", p50(st.dur["hop"]), "us", "one proxy hop, request to body close")
	r.add("gateway.hops_per_req", ratio(float64(len(st.dur["hop"])), float64(len(st.selfOf("gateway.")))), "ratio", "")
	r.add("gateway.shed", float64(d.gwShed), "count", "gateway admission sheds")
	r.add("gateway.retries", float64(d.gwRetries), "count", "retry-budget tokens spent")
	for _, route := range []string{"analyze", "analyze_batch", "codesign", "jobs"} {
		r.add("service.self_us.p50."+route, p50(st.self["service."+route]), "us", "handler minus filesystem spans")
	}
	r.add("service.result_hit_ratio", ratio(float64(d.svcHits), float64(d.svcHits+d.svcMisses)), "ratio",
		fmt.Sprintf("hits=%d misses=%d", d.svcHits, d.svcMisses))
	r.add("service.admit.shed", float64(d.svcShed), "count", "")
	r.add("service.admit.queued_max", float64(traced.queuedMax), "count", "deepest pool queue, sampled every 20 ms")
	r.add("jobs.submit_us.p50", p50(st.dur["client.submit"]), "us", "POST /v1/jobs as the client sees it")
	r.add("jobs.wait_ms.p50", p50(st.dur["client.wait"])/1e3, "ms", "stream open to terminal event")
	r.add("jobs.fs.sync_count", float64(len(st.dur["fs.sync"])), "count", "")
	r.add("jobs.fs.sync_us.p50", p50(st.dur["fs.sync"]), "us", "")
	r.add("jobs.fs.sync_ms.total", sum(st.dur["fs.sync"])/1e3, "ms", "")
	r.add("jobs.fs.rename_count", float64(len(st.dur["fs.rename"])), "count", "")
	r.add("jobs.fs.write_bytes", float64(d.fsWritten), "bytes", "")
	r.add("jobs.store.hit_ratio", ratio(float64(d.storeHits), float64(d.storeHits+d.storeMisses)), "ratio",
		fmt.Sprintf("hits=%d misses=%d", d.storeHits, d.storeMisses))
	r.add("jobs.journal.appends", float64(d.appends), "count", "")
	r.add("kmemo.hit_ratio", ratio(float64(d.kmHits), float64(d.kmHits+d.kmMisses)), "ratio",
		fmt.Sprintf("hits=%d", d.kmHits))
	r.add("kmemo.misses", float64(d.kmMisses), "count", "")
	r.add("kmemo.evictions", float64(d.kmEvic), "count", "")
	r.add("codesign.cold_ms.p50", p50(rp.coldMS), "ms", fmt.Sprintf("%d new searches replayed cold", len(rp.coldMS)))
	r.add("codesign.evaluations.mean", mean(rp.evals), "count", "")
	r.add("lqg.synthesize_us.p50", p50(kt.synth), "us", fmt.Sprintf("n=%d, kernel memo off", len(kt.synth)))
	r.add("jitter.analyze_us.p50", p50(kt.margin), "us", fmt.Sprintf("n=%d", len(kt.margin)))
	r.add("assign.us.p50", p50(kt.assign), "us", fmt.Sprintf("n=%d, backtracking + RTA", len(kt.assign)))
	r.add("kernel.share", kt.share, "ratio", "replayed kernel time / analyze_batch handler time")
	r.add("trace.overhead_ms.p50", overhead, "ms", "traced minus untraced p50_ms")
}

// cpuSteal reads the machine-wide steal and total CPU time from
// /proc/stat, in clock ticks (zeros where it is unavailable).
func cpuSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // user … steal; guest time is already counted in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// rssPeakMiB reads the process's peak resident set (VmHWM).
func rssPeakMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
