package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/internal/serve"
)

// runSmoke is the end-to-end self-test `make serve-smoke` runs in CI:
//
//	phase 1: fresh cache dir, submit a tiny sweep, stream it to
//	         completion — every run must be freshly simulated;
//	phase 2: a NEW server over the SAME cache dir (cold memo, warm
//	         disk), same sweep — every run must come from the cache,
//	         zero simulations, byte-identical results;
//	phase 3: the queue journal under a real SIGKILL (smokeKill).
func runSmoke() error {
	dir, err := os.MkdirTemp("", "widir-smoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	sweep := serve.SweepRequest{
		Client:    "smoke",
		Protocols: []string{"baseline", "widir"},
		Apps:      []string{"water-spa"},
		Cores:     4,
		Scale:     0.02,
		Seeds:     []uint64{1},
	}

	// Phase 1: cold cache — everything simulates.
	first, err := smokePhase(dir, sweep, func(s *serve.Server, results []serve.RunStatus) error {
		for _, r := range results {
			if r.Source != "sim" {
				return fmt.Errorf("cold-cache run %s served from %q, want sim", r.Key.ID, r.Source)
			}
		}
		if st := s.Runner().Stats(); st.Sims != uint64(len(results)) {
			return fmt.Errorf("cold-cache phase ran %d sims for %d runs", st.Sims, len(results))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("phase 1: %w", err)
	}

	// Phase 2: new server, same cache dir — everything loads.
	second, err := smokePhase(dir, sweep, func(s *serve.Server, results []serve.RunStatus) error {
		for _, r := range results {
			if r.Source != "cache" {
				return fmt.Errorf("warm-cache run %s served from %q, want cache", r.Key.ID, r.Source)
			}
		}
		st := s.Runner().Stats()
		if st.Sims != 0 {
			return fmt.Errorf("warm-cache phase re-simulated %d runs", st.Sims)
		}
		if st.CacheHits != uint64(len(results)) {
			return fmt.Errorf("warm-cache phase: %d cache hits for %d runs", st.CacheHits, len(results))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("phase 2: %w", err)
	}

	if err := sameBytes(first, second); err != nil {
		return fmt.Errorf("phase 2: %w", err)
	}
	fmt.Fprintf(os.Stderr, "widir-serve: smoke: %d runs simulated once, repeat served entirely from disk, byte-identical\n", len(first))

	if err := smokeKill(filepath.Join(dir, "kill")); err != nil {
		return fmt.Errorf("phase 3: %w", err)
	}
	return nil
}

// smokePhase boots a farm on a loopback port, submits the sweep,
// streams it to completion, runs the check, drains, and returns the
// result bytes by run hash.
func smokePhase(cacheDir string, sweep serve.SweepRequest, check func(*serve.Server, []serve.RunStatus) error) (map[string][]byte, error) {
	s, err := serve.New(serve.Config{CacheDir: cacheDir, Workers: 2, MaxQueue: 64})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	go httpSrv.Serve(ln)
	base := "http://" + ln.Addr().String()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		s.Drain(ctx)
		httpSrv.Shutdown(ctx)
	}()

	jobID, err := submitSweep(base, sweep)
	if err != nil {
		return nil, err
	}
	results, err := streamJob(base, jobID)
	if err != nil {
		return nil, err
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("stream delivered no results")
	}
	if err := check(s, results); err != nil {
		return nil, err
	}
	return byHash(results), nil
}

// smokeKill is phase 3: the queue journal under a real SIGKILL. It runs
// this binary as a one-worker subprocess over cacheDir, submits a sweep,
// kills the process as soon as the sweep is accepted (no drain, no
// cleanup) and restarts it over the same dir. The journal must replay
// every accepted run that had not finished, so the job completes under
// its original id. A rerun of the sweep must then simulate nothing —
// had the journal lost an accepted run, its result would not be on
// disk — and match the replayed results byte for byte.
func smokeKill(cacheDir string) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	ln.Close() // the child binds it; the tiny reuse race is acceptable here
	base := "http://" + addr

	var node *exec.Cmd
	start := func() error {
		node = exec.Command(os.Args[0], "-addr", addr, "-cache", cacheDir, "-workers", "1")
		node.Stderr = os.Stderr
		if err := node.Start(); err != nil {
			node = nil
			return err
		}
		return waitHealthy(base, 30*time.Second)
	}
	defer func() {
		if node != nil {
			node.Process.Kill()
			node.Wait()
		}
	}()
	if err := start(); err != nil {
		return err
	}

	// One worker, eight runs: the 202 comes back long before the queue
	// drains, so the kill lands mid-sweep.
	sweep := serve.SweepRequest{
		Client:    "smoke-kill",
		Protocols: []string{"baseline", "widir"},
		Apps:      []string{"water-spa"},
		Cores:     4,
		Scale:     0.02,
		Seeds:     []uint64{2, 3, 4, 5},
	}
	want := len(sweep.Protocols) * len(sweep.Apps) * len(sweep.Seeds)
	jobID, err := submitSweep(base, sweep)
	if err != nil {
		return err
	}
	if err := node.Process.Kill(); err != nil {
		return fmt.Errorf("kill: %w", err)
	}
	node.Wait()
	node = nil

	if err := start(); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	st, err := nodeStats(base)
	if err != nil {
		return err
	}
	if st.WAL.Replayed == 0 {
		return fmt.Errorf("restarted node replayed 0 runs from the journal")
	}
	replayed, err := streamJob(base, jobID)
	if err != nil {
		return fmt.Errorf("job %s after restart: %w", jobID, err)
	}
	if uint64(len(replayed)) != st.WAL.Replayed {
		return fmt.Errorf("job %s completed %d runs after restart, journal replayed %d", jobID, len(replayed), st.WAL.Replayed)
	}

	before, err := nodeStats(base)
	if err != nil {
		return err
	}
	rerunID, err := submitSweep(base, sweep)
	if err != nil {
		return err
	}
	rerun, err := streamJob(base, rerunID)
	if err != nil {
		return err
	}
	after, err := nodeStats(base)
	if err != nil {
		return err
	}
	if len(rerun) != want {
		return fmt.Errorf("rerun returned %d runs, want %d", len(rerun), want)
	}
	if sims := after.Runner.Sims - before.Runner.Sims; sims != 0 {
		return fmt.Errorf("rerun simulated %d runs: accepted work was lost across the kill", sims)
	}
	rerunBytes := byHash(rerun)
	for hash, raw := range byHash(replayed) {
		if !bytes.Equal(raw, rerunBytes[hash]) {
			return fmt.Errorf("run %s: not byte-identical across the kill", hash[:12])
		}
	}

	// Graceful teardown; the deferred kill is then a no-op.
	node.Process.Signal(os.Interrupt)
	node.Wait()
	node = nil
	fmt.Fprintf(os.Stderr, "widir-serve: smoke: SIGKILL mid-sweep, journal replayed %d of %d runs under %s, rerun simulated nothing, byte-identical\n",
		len(replayed), want, jobID)
	return nil
}

// sameBytes requires two passes of a sweep to hold the same results.
func sameBytes(first, second map[string][]byte) error {
	if len(first) != len(second) {
		return fmt.Errorf("result counts differ: %d vs %d", len(first), len(second))
	}
	for hash, raw := range first {
		if !bytes.Equal(raw, second[hash]) {
			return fmt.Errorf("run %s: cached result is not byte-identical to the fresh simulation", hash[:12])
		}
	}
	return nil
}

func byHash(results []serve.RunStatus) map[string][]byte {
	out := make(map[string][]byte, len(results))
	for _, r := range results {
		out[r.Key.Hash] = r.Result
	}
	return out
}

func waitHealthy(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("farm %s never became healthy: %v", base, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func submitSweep(base string, sweep serve.SweepRequest) (string, error) {
	data, err := json.Marshal(sweep)
	if err != nil {
		return "", err
	}
	resp, err := http.Post(base+"/api/v1/sweeps", "application/json", bytes.NewReader(data))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: %s", resp.Status)
	}
	var body struct {
		Job string `json:"job"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return "", err
	}
	return body.Job, nil
}

// streamJob reads a job's stream to the end, failing on any run that
// did not finish.
func streamJob(base, jobID string) ([]serve.RunStatus, error) {
	resp, err := http.Get(base + "/api/v1/jobs/" + jobID + "/stream")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stream %s: %s", jobID, resp.Status)
	}
	var results []serve.RunStatus
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var st serve.RunStatus
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			return nil, fmt.Errorf("bad stream line: %w", err)
		}
		if st.State != "done" {
			return nil, fmt.Errorf("run %s: state %s (%s)", st.Key.ID, st.State, st.Error)
		}
		results = append(results, st)
	}
	return results, sc.Err()
}

// smokeStats is the slice of /api/v1/stats the smoke needs.
type smokeStats struct {
	Runner struct {
		Sims uint64 `json:"sims"`
	} `json:"runner"`
	WAL serve.JournalStats `json:"wal"`
}

func nodeStats(base string) (smokeStats, error) {
	var st smokeStats
	resp, err := http.Get(base + "/api/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}
