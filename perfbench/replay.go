package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"ctrlsched/internal/assign"
	"ctrlsched/internal/jitter"
	"ctrlsched/internal/kmemo"
	"ctrlsched/internal/lqg"
	"ctrlsched/internal/plant"
	"ctrlsched/internal/rta"
	"ctrlsched/internal/service"
)

// kernelReplayBatches is how many of the traced window's first
// cold-analyze batches are replayed through the kernels.
const kernelReplayBatches = 192

// codesignReplays is how many of the traced window's first new searches
// are replayed cold.
const codesignReplays = 24

// kernelTimes are per-call kernel durations (µs) from the replay, and
// the replayed kernel time as a share of the replica's analyze_batch
// handler time for the same batches.
type kernelTimes struct {
	synth, margin, assign []float64
	share                 float64
}

// replayKernels re-runs every item of the given batches through the
// kernels a replica runs for it — lqg.Synthesize and jitter.Analyze per
// (plant, period), then assign.BacktrackingOpts and rta.AnalyzeAll per
// task set — with the kernel memo off. The replay has the shape of the
// traced window, so that its wall time and the handler's measure the
// same kind of time on any host: the batches go out from as many
// goroutines as the window had clients, and each batch's items run on
// workers goroutines, as the replica's campaign pool ran them.
// handlerUS maps a request ID to its service.analyze_batch handler span.
func replayKernels(batches []request, handlerUS map[uint64]float64, workers int) (kernelTimes, error) {
	var kt kernelTimes
	byName := make(map[string]*plant.Plant)
	for _, p := range plants {
		byName[p.Name] = p
	}
	kmemo.Disable()
	defer kmemo.Configure(kmemo.DefaultEntries, kmemo.DefaultBytes)

	var mu sync.Mutex // guards kt and the totals
	record := func(into *[]float64, d time.Duration) {
		mu.Lock()
		*into = append(*into, float64(d)/1e3)
		mu.Unlock()
	}
	// margin synthesizes and analyzes one (plant, period), timing both.
	margin := func(name string, h float64) (*jitter.Margin, error) {
		t0 := time.Now()
		d, err := lqg.Synthesize(byName[name], h)
		t1 := time.Now()
		record(&kt.synth, t1.Sub(t0))
		if err != nil {
			return nil, err
		}
		m, err := jitter.Analyze(d, jitter.Options{})
		record(&kt.margin, time.Since(t1))
		return m, err
	}
	item := func(part []byte) error {
		var q struct {
			Plant  string
			Period float64
			Tasks  []struct {
				Plant              string
				BCET, WCET, Period float64
			}
		}
		if err := json.Unmarshal(part, &q); err != nil {
			return err
		}
		if q.Plant != "" {
			if _, err := margin(q.Plant, q.Period); err != nil {
				return fmt.Errorf("replay %s: %w", part, err)
			}
			return nil
		}
		tasks := make([]rta.Task, len(q.Tasks))
		for i, ts := range q.Tasks {
			m, err := margin(ts.Plant, ts.Period)
			if err != nil {
				return fmt.Errorf("replay %s: %w", part, err)
			}
			tasks[i] = rta.Task{Name: fmt.Sprintf("task%d", i+1), BCET: ts.BCET, WCET: ts.WCET, Period: ts.Period, ConA: m.A, ConB: m.B}
		}
		t0 := time.Now()
		res := assign.BacktrackingOpts(tasks, assign.Options{Memoize: true, MaxEvaluations: 2_000_000})
		if res.Priorities != nil {
			rta.AnalyzeAll(tasks, res.Priorities)
		}
		record(&kt.assign, time.Since(t0))
		return nil
	}
	// batch replays one batch's items on workers goroutines and returns
	// its wall time.
	batch := func(r request) (time.Duration, error) {
		start := time.Now()
		errs := make([]error, len(r.parts))
		next := make(chan int, len(r.parts))
		for j := range r.parts {
			next <- j
		}
		close(next)
		var wg sync.WaitGroup
		for w := 0; w < min(workers, len(r.parts)); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range next {
					errs[j] = item(r.parts[j])
				}
			}()
		}
		wg.Wait()
		return time.Since(start), errors.Join(errs...)
	}

	var replayUS, handlerTotal float64
	var firstErr error
	work := make(chan request)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range work {
				d, err := batch(r)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				replayUS += float64(d) / 1e3
				handlerTotal += handlerUS[uint64(r.idx+1)]
				mu.Unlock()
			}
		}()
	}
	for _, r := range batches {
		if _, ok := handlerUS[uint64(r.idx+1)]; r.body != nil && ok {
			work <- r
		}
	}
	close(work)
	wg.Wait()
	kt.share = ratio(replayUS, handlerTotal)
	return kt, firstErr
}

// replayCodesign runs each search through Service.Codesign on a fresh
// service with an emptied kernel memo, so every run is a cold search,
// and checks its bytes against what the search's jobs returned.
func replayCodesign(searches [][]byte, got map[int]*jobResult) (coldMS, evals []float64, err error) {
	svc := service.New(service.Config{})
	for i, body := range searches {
		kmemo.Default().Reset()
		t0 := time.Now()
		b, _, err := svc.Codesign(context.Background(), body, nil)
		coldMS = append(coldMS, float64(time.Since(t0))/1e6)
		if err != nil {
			return nil, nil, fmt.Errorf("cold replay of search %d: %w", i, err)
		}
		if jr := got[i]; jr != nil && sha256.Sum256(bytes.TrimRight(b, "\n")) != jr.sum {
			return nil, nil, fmt.Errorf("cold replay of search %d: bytes differ from its jobs", i)
		}
		var res struct {
			Evaluations int `json:"evaluations"`
		}
		if err := json.Unmarshal(b, &res); err != nil {
			return nil, nil, err
		}
		evals = append(evals, float64(res.Evaluations))
	}
	return coldMS, evals, nil
}
