package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// clients is the closed loop's width: each client holds one connection
// and sends its next request only when the previous one has completed.
const clients = 2

// client is one closed-loop load generator with its own connection.
type client struct {
	hc  *http.Client
	url string
	t   *tracer
}

func newClient(url string, t *tracer) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, url: url, t: t}
}

func (c *client) close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// call sends one request as the span name for request req and returns
// the response; the caller reads and closes the body, which ends the
// span.
func (c *client) call(method, path string, body []byte, name string, req uint64) (*http.Response, error) {
	hr, err := http.NewRequest(method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	id, start := c.t.begin()
	if c.t != nil {
		hr.Header.Set(hdrSpan, strconv.FormatUint(id, 10))
		hr.Header.Set(hdrReq, strconv.FormatUint(req, 10))
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		c.t.end(name, id, 0, req, start)
		return nil, err
	}
	if c.t != nil {
		resp.Body = &hopBody{ReadCloser: resp.Body, done: func() { c.t.end(name, id, 0, req, start) }}
	}
	return resp, nil
}

// post sends body and returns the whole response body, failing on any
// status other than want.
func (c *client) post(path string, body []byte, want int, name string, req uint64) ([]byte, error) {
	resp, err := c.call(http.MethodPost, path, body, name, req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("POST %s: status %d: %.200s", path, resp.StatusCode, b)
	}
	return b, nil
}

// outcome is what one timed window measured from the client side.
type outcome struct {
	lat       []float64 // latency of each successful request, ms
	attempted int64
	failed    int64
	items     int64
	steal     float64 // host CPU steal share over the window
	elapsed   time.Duration
	errs      []string // first few failure messages
}

func (o *outcome) fail(msg string) {
	o.failed++
	if len(o.errs) < 5 {
		o.errs = append(o.errs, msg)
	}
}

// drive runs the closed loop for d: every client takes the next request
// of the shared sequence, sends it with send, and records its latency.
// Requests already sent when d ends complete and count. The host's CPU
// steal over the window is recorded beside the figures, so windows the
// hypervisor took the CPUs away from can be recognised.
func drive(d time.Duration, cs []*client, next func() request, send func(*client, request) error) *outcome {
	var mu sync.Mutex
	o := &outcome{}
	idx := 0
	take := func() request {
		mu.Lock()
		defer mu.Unlock()
		r := next()
		r.idx = idx
		idx++
		o.attempted++
		return r
	}
	steal0, total0 := cpuSteal()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range cs {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := take()
				t0 := time.Now()
				err := send(c, r)
				lat := float64(time.Since(t0)) / 1e6
				mu.Lock()
				if err != nil {
					o.fail(fmt.Sprintf("request %d: %v", r.idx, err))
				} else {
					o.lat = append(o.lat, lat)
					o.items += int64(r.items)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	o.elapsed = time.Since(start)
	steal1, total1 := cpuSteal()
	o.steal = ratio(steal1-steal0, total1-total0)
	return o
}
