package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ctrlsched/internal/jobs"
	"ctrlsched/internal/kmemo"
	"ctrlsched/internal/lqg"
)

// These tests pin the restart-durability contract: a job the previous
// process accepted but never finished — its journal holds an unmatched
// begin — must, after restart, either complete with bytes identical to
// what an uninterrupted run would have produced, or surface as the
// typed `interrupted` terminal state. Never a hang, never silent loss,
// never corrupt bytes.

// crashWithIntent simulates a hard crash: a journal in dir holding one
// unresolved begin for the given request, exactly what a process killed
// between accepting the job and persisting its result leaves behind.
func crashWithIntent(t *testing.T, dir, id, kind string, raw []byte) {
	t.Helper()
	throwaway := newTestService()
	key, _, err := throwaway.prepareJob(kind, raw)
	if err != nil {
		t.Fatal(err)
	}
	jrn, _, err := jobs.OpenJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := jrn.Begin(jobs.Intent{ID: id, Kind: kind, Key: jobs.Key(key), Request: raw}); err != nil {
		t.Fatal(err)
	}
	if err := jrn.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRestartResubmitsCrashedJob: default policy. The restarted service
// re-runs the journaled request under its original job ID and the
// result is byte-identical to an uninterrupted synchronous run.
func TestRestartResubmitsCrashedJob(t *testing.T) {
	dir := t.TempDir()
	raw := []byte(analyzeJobBody)
	crashWithIntent(t, dir, "crashed-resubmit", kindAnalyze, raw)

	want, _, err := newTestService().Analyze(context.Background(), raw)
	if err != nil {
		t.Fatal(err)
	}

	s := New(Config{Workers: 2, JobsDir: dir})
	j, ok := s.jobsEng.Get("crashed-resubmit")
	if !ok {
		t.Fatal("recovered job not registered under its original ID")
	}
	waitJob(t, j)
	b, state, fail, ok := j.Result()
	if !ok || state != jobs.StateDone {
		t.Fatalf("recovered job state = %v (fail %v)", state, fail)
	}
	if !bytes.Equal(b, want) {
		t.Fatalf("recovered result differs from uninterrupted run:\n%s\n%s", b, want)
	}
	if st := s.jobsEng.Stats(); st.Recovered != 1 {
		t.Fatalf("engine stats recovered = %d, want 1", st.Recovered)
	}

	// Drain ends the job in the journal; a second restart must find
	// nothing to recover — double recovery is a no-op.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	jrn, intents, err := jobs.OpenJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	jrn.Close()
	if len(intents) != 0 {
		t.Fatalf("second recovery found %d intents, want 0", len(intents))
	}
}

// TestRestartInterruptPolicy: with -job-recovery=interrupt the crashed
// job parks in the typed interrupted state, and its result endpoint
// answers 409 with code "interrupted".
func TestRestartInterruptPolicy(t *testing.T) {
	dir := t.TempDir()
	crashWithIntent(t, dir, "crashed-park", kindAnalyze, []byte(analyzeJobBody))

	s := New(Config{Workers: 2, JobsDir: dir, RecoverPolicy: RecoverInterrupt})
	j, ok := s.jobsEng.Get("crashed-park")
	if !ok {
		t.Fatal("recovered job not registered")
	}
	waitJob(t, j)
	if _, state, _, _ := j.Result(); state != jobs.StateInterrupted {
		t.Fatalf("state = %v, want interrupted", state)
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/jobs/crashed-park/result")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result status = %d, want 409: %s", resp.StatusCode, body)
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "interrupted" {
		t.Fatalf("result body %s, want code interrupted", body)
	}
	if st := s.jobsEng.Stats(); st.Interrupted != 1 {
		t.Fatalf("engine stats interrupted = %d, want 1", st.Interrupted)
	}

	// The interrupted outcome resolves the intent: restart again and
	// nothing is re-recovered.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	jrn, intents, err := jobs.OpenJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	jrn.Close()
	if len(intents) != 0 {
		t.Fatalf("intents after interrupt resolution = %d, want 0", len(intents))
	}
}

// TestRestartStoreHitIsBornDone: the crash happened after the result
// was persisted but before the journal's end record landed. Recovery
// must serve the stored bytes — byte-identical to the first run —
// without recomputing.
func TestRestartStoreHitIsBornDone(t *testing.T) {
	dir := t.TempDir()

	// First life: run the job to completion so the store holds its key.
	s1 := New(Config{Workers: 2, JobsDir: dir})
	j1, err := s1.SubmitJob(kindCodesign, []byte(codesignBody))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j1)
	want, state, _, _ := j1.Result()
	if state != jobs.StateDone {
		t.Fatalf("first life state %v", state)
	}
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The crash frontier: a begin for the same request that never got
	// its end record.
	crashWithIntent(t, dir, "crashed-after-persist", kindCodesign, []byte(codesignBody))

	s2 := New(Config{Workers: 2, JobsDir: dir})
	j2, ok := s2.jobsEng.Get("crashed-after-persist")
	if !ok {
		t.Fatal("recovered job not registered")
	}
	waitJob(t, j2)
	b, state, _, _ := j2.Result()
	if state != jobs.StateDone || !bytes.Equal(b, want) {
		t.Fatalf("store-hit recovery state=%v, bytes identical=%v", state, bytes.Equal(b, want))
	}
	if !j2.Status().FromStore {
		t.Fatal("store-hit recovery must be served from the store, not recomputed")
	}
}

// TestRestartHealthzReportsJournal: /healthz carries the journal
// counters so operators can see recovery happened.
func TestRestartHealthzReportsJournal(t *testing.T) {
	dir := t.TempDir()
	crashWithIntent(t, dir, "crashed-visible", kindAnalyze, []byte(analyzeJobBody))

	s := New(Config{Workers: 2, JobsDir: dir})
	j, _ := s.jobsEng.Get("crashed-visible")
	waitJob(t, j)

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc struct {
		Journal jobs.JournalStats `json:"journal"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Journal.Enabled || doc.Journal.Recovered != 1 {
		t.Fatalf("healthz journal = %+v, want enabled with recovered_intents=1", doc.Journal)
	}
}

// v1KernelSnapshot rewrites a kernel-cache snapshot into the previous
// kmemo-snap-1 layout, in which every encoded LQG design ended with its
// 2n×2n closed-loop covariance. Synthesis entries gain the matrix at
// their end; margin entries gain it between the design and the margin
// curve, exactly where the old encoder put it.
func v1KernelSnapshot(t *testing.T, snap []byte) []byte {
	t.Helper()
	const magicLen = len("kmemo-snap-2\n")
	if len(snap) < magicLen+sha256.Size || !bytes.HasPrefix(snap, []byte("kmemo-snap-")) {
		t.Fatal("not a kernel-cache snapshot")
	}
	p := snap[magicLen : len(snap)-sha256.Size]
	out := []byte("kmemo-snap-1\n")
	for len(p) > 0 {
		nameLen := int(binary.LittleEndian.Uint32(p))
		head := p[:4+nameLen+kmemo.KeySize+8]
		name := string(p[4 : 4+nameLen])
		p = p[len(head):]
		payloadLen := int(binary.LittleEndian.Uint32(p))
		payload := p[4 : 4+payloadLen]
		p = p[4+payloadLen:]

		if (name == "lqg/synth" || name == "jitter/margin") && binary.LittleEndian.Uint64(payload) == 1 {
			d, err := lqg.ReadDesignSnap(kmemo.NewSnapDec(payload[8:]))
			if err != nil {
				t.Fatal(err)
			}
			var design kmemo.SnapEnc
			lqg.AppendDesignSnap(&design, d)
			end := 8 + len(design.Buf)
			n := 2 * d.Phi.Rows()
			var sigma kmemo.SnapEnc
			sigma.I64(int64(n))
			sigma.I64(int64(n))
			for i := 0; i < n*n; i++ {
				sigma.F64(float64(i%(n+1)) + 0.5)
			}
			payload = append(append(append([]byte(nil), payload[:end]...), sigma.Buf...), payload[end:]...)
		}
		out = append(out, head...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
		out = append(out, payload...)
	}
	sum := sha256.Sum256(out)
	return append(out, sum[:]...)
}

// TestRestartRefusesV1KernelSnapshot pins the snapshot layout bump that
// came with dropping the covariance from encoded designs. A v1 margin
// payload decoded with the v2 reader would read the covariance's bytes
// as the margin curve, so a v1 snapshot must restore nothing: the
// daemon starts with a cold kernel cache, /healthz reports restored 0,
// and requests still compute the reference bytes.
func TestRestartRefusesV1KernelSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 2, JobsDir: dir}
	s1 := New(cfg)
	want, _ := mustCodesign(t, s1, codesignBody)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "kmemo.snap")
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, v1KernelSnapshot(t, snap), 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh process-wide kernel cache, as after a real restart.
	kmemo.Disable()
	kmemo.Configure(kmemo.DefaultEntries, kmemo.DefaultBytes)

	s2 := New(cfg)
	if st := kmemo.Default().Stats(); st.Restored != 0 || st.Entries != 0 {
		t.Fatalf("v1 snapshot restored %d entries (%d resident); want a cold start", st.Restored, st.Entries)
	}
	srv := httptest.NewServer(s2.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		KernelCache struct {
			Restored *int64 `json:"restored"`
		} `json:"kernel_cache"`
	}
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if h.KernelCache.Restored == nil || *h.KernelCache.Restored != 0 {
		t.Fatalf("/healthz kernel_cache.restored = %v, want 0", h.KernelCache.Restored)
	}

	// The durable result store is unaffected; a fresh search (not in the
	// store) recomputes cold and matches a service that never restarted.
	other := strings.Replace(codesignBody, `"seed": 42`, `"seed": 7`, 1)
	got, hit, err := s2.Codesign(context.Background(), []byte(other), nil)
	if err != nil || hit {
		t.Fatalf("cold codesign after restart: hit=%v err=%v", hit, err)
	}
	ref, _ := mustCodesign(t, newTestService(), other)
	if !bytes.Equal(got, ref) {
		t.Fatal("codesign after a refused snapshot differs from the reference")
	}
	if b, hit, err := s2.Codesign(context.Background(), []byte(codesignBody), nil); err != nil || !hit || !bytes.Equal(b, want) {
		t.Fatalf("stored result after restart: hit=%v err=%v", hit, err)
	}
}
