package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

func testFarm(t *testing.T) (*serve.Server, *httptest.Server) {
	t.Helper()
	s, err := serve.New(serve.Config{CacheDir: t.TempDir(), Workers: 2, MaxQueue: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

func writeSpec(t *testing.T, dir string) string {
	t.Helper()
	spec := serve.SweepRequest{
		Client:    "client-test",
		Protocols: []string{"baseline", "widir"},
		Apps:      []string{"water-spa"},
		Cores:     4,
		Scale:     0.02,
		Seeds:     []uint64{1, 2},
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "sweep.json")
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

func clientOpts(t *testing.T, dir, specPath, server string) options {
	t.Helper()
	return options{
		specPath:  specPath,
		server:    server,
		outPath:   filepath.Join(dir, "out.csv"),
		statePath: filepath.Join(dir, "state.jsonl"),
		timeout:   10 * time.Second,
		attempts:  8,
		logf:      t.Logf,
	}
}

func readCSV(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if lines[0] != serve.CSVHeader {
		t.Fatalf("CSV header %q", lines[0])
	}
	return lines
}

// TestClientSweepAndResume drives the full client path: a fresh sweep
// submits a job and renders the CSV; a rerun with the progress file
// intact touches the farm for nothing; a rerun with the progress file
// deleted resubmits the sweep, which the farm serves from its cache
// without simulating, and renders the identical CSV.
func TestClientSweepAndResume(t *testing.T) {
	s, ts := testFarm(t)
	dir := t.TempDir()
	specPath := writeSpec(t, dir)
	opts := clientOpts(t, dir, specPath, ts.URL)

	if err := run(opts); err != nil {
		t.Fatal(err)
	}
	first := readCSV(t, opts.outPath)
	if len(first) != 5 { // header + 2 protocols x 2 seeds
		t.Fatalf("CSV has %d lines, want 5: %v", len(first), first)
	}
	if jobs := s.Stats().Jobs; jobs != 1 {
		t.Fatalf("first run created %d jobs, want 1", jobs)
	}

	// Rerun, state intact: fully offline.
	if err := run(opts); err != nil {
		t.Fatal(err)
	}
	if jobs := s.Stats().Jobs; jobs != 1 {
		t.Fatalf("state-resumed rerun created a job (total %d)", jobs)
	}

	// Rerun after losing the progress file: the farm has every run, so
	// the resubmitted job is served without simulating.
	if err := os.Remove(opts.statePath); err != nil {
		t.Fatal(err)
	}
	if err := run(opts); err != nil {
		t.Fatal(err)
	}
	if jobs := s.Stats().Jobs; jobs != 2 {
		t.Fatalf("rebuild rerun: %d jobs in total, want 2", jobs)
	}
	second := readCSV(t, opts.outPath)
	if strings.Join(first, "\n") != strings.Join(second, "\n") {
		t.Fatalf("rebuilt CSV differs:\n%v\nvs\n%v", first, second)
	}
	// The rebuilt state lines carry the farm's memo provenance.
	state, err := os.ReadFile(opts.statePath)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(state), `"source":"sim"`) {
		t.Fatal("rebuilt progress file has a freshly simulated run")
	}
	if n := s.Runner().Stats().Sims; n != 4 {
		t.Fatalf("farm simulated %d times across three client runs, want 4", n)
	}
}

// TestClientBackoffHonorsRetryAfter: the client retries a 429 with the
// server's Retry-After as the backoff floor and eventually lands the
// sweep.
func TestClientBackoffHonorsRetryAfter(t *testing.T) {
	_, ts := testFarm(t)
	target, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	var rejected atomic.Int32
	gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/api/v1/sweeps" && rejected.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
			return
		}
		proxy.ServeHTTP(w, r)
	}))
	t.Cleanup(gate.Close)

	dir := t.TempDir()
	specPath := writeSpec(t, dir)
	opts := clientOpts(t, dir, specPath, gate.URL)

	start := time.Now()
	if err := run(opts); err != nil {
		t.Fatal(err)
	}
	if got := rejected.Load(); got < 3 {
		t.Fatalf("gate saw %d submits, want the two rejects plus a success", got)
	}
	// Two rejects, each with a >=1s Retry-After floor.
	if elapsed := time.Since(start); elapsed < 2*time.Second {
		t.Fatalf("client retried in %v; Retry-After floor not honored", elapsed)
	}
	if lines := readCSV(t, opts.outPath); len(lines) != 5 {
		t.Fatalf("CSV has %d lines, want 5", len(lines))
	}
}

// TestBackoffBoundsAndRetryAfter: delays stay inside (0, max] per
// attempt ceiling, grow with the attempt number, honor Retry-After as
// a floor, and actually jitter.
func TestBackoffBoundsAndRetryAfter(t *testing.T) {
	b := newBackoff(100*time.Millisecond, time.Second, 1)
	seen := map[time.Duration]bool{}
	for attempt := 0; attempt < 20; attempt++ {
		ceil := 100 * time.Millisecond << uint(attempt)
		if ceil > time.Second || ceil <= 0 {
			ceil = time.Second
		}
		for i := 0; i < 50; i++ {
			d := b.delay(attempt, 0)
			if d <= 0 || d > ceil {
				t.Fatalf("attempt %d: delay %v outside (0, %v]", attempt, d, ceil)
			}
			seen[d] = true
		}
	}
	if len(seen) < 100 {
		t.Fatalf("only %d distinct delays over 1000 draws: jitter is not jittering", len(seen))
	}
	ra := 7 * time.Second
	if d := b.delay(0, ra); d < ra || d > ra+100*time.Millisecond {
		t.Fatalf("Retry-After 7s produced delay %v; want [7s, 7.1s]", d)
	}
}
