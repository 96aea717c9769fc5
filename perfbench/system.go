package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"ctrlsched/internal/gateway"
	"ctrlsched/internal/jobs"
	"ctrlsched/internal/kmemo"
	"ctrlsched/internal/service"
)

// workDir holds everything a run writes (job stores, span files),
// inside the checkout the benchmark runs from.
const workDir = ".bench_build"

// replicaHosts are the fleet's replica names. The gateway's hash ring is
// keyed by replica URL, so fixed names (mapped onto loopback listeners
// by hopTransport) give every run the same plant-to-replica layout.
var replicaHosts = []string{"replica-0", "replica-1"}

// system is one in-process deployment on loopback listeners.
type system struct {
	url     string             // where clients send
	svcs    []*service.Service // direct target or fleet replicas
	health  []http.Handler     // each service's handler, for /healthz reads
	gw      http.Handler       // gateway handler (fleet only)
	hops    *hopTransport      // gateway proxy transport (fleet only)
	fs      *timingFS          // job store filesystem (traced codesign-jobs only)
	servers []*http.Server
	served  []chan struct{}
	dirs    []string
}

// serve starts h on a fresh loopback listener and returns its base URL.
func (s *system) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // always ErrServerClosed once close runs
	}()
	s.servers = append(s.servers, srv)
	s.served = append(s.served, done)
	return "http://" + ln.Addr().String(), nil
}

// newService builds one service, with a fresh durable job directory
// when withJobs is set, and serves it (wrapped for tracing when t is
// non-nil).
func (s *system) newService(t *tracer, withJobs bool) (string, error) {
	var cfg service.Config
	if withJobs {
		if err := os.MkdirAll(filepath.Join(workDir, "run"), 0o755); err != nil {
			return "", err
		}
		dir, err := os.MkdirTemp(filepath.Join(workDir, "run"), "jobs-")
		if err != nil {
			return "", err
		}
		s.dirs = append(s.dirs, dir)
		cfg.JobsDir = dir
		if t != nil {
			s.fs = &timingFS{base: jobs.OSFS(), t: t}
			cfg.StoreFS = s.fs
		}
	}
	svc := service.New(cfg)
	s.svcs = append(s.svcs, svc)
	h := svc.Handler()
	s.health = append(s.health, h)
	return s.serve(t.wrapHandler("service", h))
}

// buildDirect deploys one service that clients reach directly.
func buildDirect(t *tracer, withJobs bool) (*system, error) {
	s := &system{}
	u, err := s.newService(t, withJobs)
	if err != nil {
		s.close()
		return nil, err
	}
	s.url = u
	return s, nil
}

// buildFleet deploys two replicas behind one gateway.
func buildFleet(t *tracer) (*system, error) {
	s := &system{}
	addrs := make(map[string]string)
	var urls []string
	for _, host := range replicaHosts {
		u, err := s.newService(t, false)
		if err != nil {
			s.close()
			return nil, err
		}
		addrs[host+":80"] = u[len("http://"):]
		urls = append(urls, "http://"+host)
	}
	base := &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true}
	var d net.Dialer
	base.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if a, ok := addrs[addr]; ok {
			addr = a
		}
		return d.DialContext(ctx, network, addr)
	}
	s.hops = &hopTransport{base: base, t: t, hops: map[string]int64{}}
	gw, err := gateway.New(gateway.Options{Replicas: urls, Client: &http.Client{Transport: s.hops}})
	if err != nil {
		s.close()
		return nil, err
	}
	gw.CheckReplicas(context.Background())
	s.gw = gw.Handler()
	if s.url, err = s.serve(t.wrapHandler("gateway", s.gw)); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// waitReady polls url's /readyz until it answers 200.
func waitReady(hc *http.Client, url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := hc.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return errors.New("system did not become ready")
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops the listeners, drains the services, and removes their
// job directories.
func (s *system) close() {
	for i, srv := range s.servers {
		_ = srv.Close()
		<-s.served[i]
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, svc := range s.svcs {
		_ = svc.Drain(ctx) // the snapshot it writes is removed with the directory
	}
	if s.hops != nil {
		s.hops.base.(*http.Transport).CloseIdleConnections()
	}
	for _, d := range s.dirs {
		_ = os.RemoveAll(d)
	}
}

// healthDoc is the part of a service's or gateway's /healthz document
// the benchmark reads.
type healthDoc struct {
	Admission struct {
		Queued int   `json:"queued"`
		Shed   int64 `json:"shed"`
	} `json:"admission"`
	ResultStore struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"result_store"`
	Journal struct {
		Appends int64 `json:"appends"`
	} `json:"journal"`
	RetryBudget struct {
		Spent int64 `json:"spent"`
	} `json:"retry_budget"`
}

// readHealth reads h's /healthz in-process, off the measured network path.
func readHealth(h http.Handler) healthDoc {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var doc healthDoc
	_ = json.Unmarshal(rec.Body.Bytes(), &doc) // a malformed document reads as zero counters
	return doc
}

// counters are the layer counters a phase reads before and after its
// timed window; the difference is what the window did.
type counters struct {
	svcHits, svcMisses       int64
	kmHits, kmMisses, kmEvic int64
	storeHits, storeMisses   int64
	appends, svcShed         int64
	gwShed, gwRetries        int64
	fsWritten                int64
	batchHops                [2]int64 // per replica host
}

func readCounters(s *system) counters {
	var c counters
	km := kmemo.Default().Stats()
	c.kmHits, c.kmMisses, c.kmEvic = km.Hits, km.Misses, km.Evictions
	for i, svc := range s.svcs {
		st := svc.Stats()
		c.svcHits += st.CacheHits
		c.svcMisses += st.CacheMisses
		doc := readHealth(s.health[i])
		c.storeHits += doc.ResultStore.Hits
		c.storeMisses += doc.ResultStore.Misses
		c.appends += doc.Journal.Appends
		c.svcShed += doc.Admission.Shed
	}
	if s.fs != nil {
		c.fsWritten = s.fs.written.Load()
	}
	if s.gw != nil {
		doc := readHealth(s.gw)
		c.gwShed, c.gwRetries = doc.Admission.Shed, doc.RetryBudget.Spent
		for i, host := range replicaHosts {
			c.batchHops[i] = s.hops.hopCount(host, "analyze_batch")
		}
	}
	return c
}

func (c counters) minus(o counters) counters {
	return counters{
		svcHits: c.svcHits - o.svcHits, svcMisses: c.svcMisses - o.svcMisses,
		kmHits: c.kmHits - o.kmHits, kmMisses: c.kmMisses - o.kmMisses, kmEvic: c.kmEvic - o.kmEvic,
		storeHits: c.storeHits - o.storeHits, storeMisses: c.storeMisses - o.storeMisses,
		appends: c.appends - o.appends, svcShed: c.svcShed - o.svcShed,
		gwShed: c.gwShed - o.gwShed, gwRetries: c.gwRetries - o.gwRetries,
		fsWritten: c.fsWritten - o.fsWritten,
		batchHops: [2]int64{c.batchHops[0] - o.batchHops[0], c.batchHops[1] - o.batchHops[1]},
	}
}

// sampleQueued polls every service's admission queue depth until stop
// closes and returns the deepest queue seen.
func sampleQueued(s *system, stop <-chan struct{}) int {
	deepest := 0
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		for _, h := range s.health {
			deepest = max(deepest, readHealth(h).Admission.Queued)
		}
		select {
		case <-stop:
			return deepest
		case <-tick.C:
		}
	}
}
