// Command widir-client drives a sweep against a widir-serve farm and
// renders the results as a CSV. It is the retrying, resumable
// counterpart to the farm's availability guarantees:
//
//   - every completed run is appended to a progress file (JSONL) the
//     moment it arrives, so a killed or disconnected client rerun picks
//     up where it left off instead of re-streaming a finished sweep;
//   - runs the farm has already computed cost nothing extra: the sweep
//     is submitted whole and the farm serves cached runs from disk;
//   - submission honors the farm's backpressure: a 429/503 with
//     Retry-After is retried with jittered exponential backoff whose
//     floor is the server's advice, so a fleet of clients drains an
//     overloaded farm instead of stampeding it.
//
// Usage:
//
//	widir-client -spec sweep.json                                  # local farm, CSV to stdout
//	widir-client -spec sweep.json -server http://farm:8344 -o results.csv
//
// The spec file is a serve.SweepRequest JSON document:
//
//	{"client":"paper","protocols":["baseline","widir"],"apps":["water-spa"],
//	 "cores":16,"scale":0.1,"seeds":[1,2,3]}
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/serve"
	"repro/internal/xrand"
)

func main() {
	var (
		specPath = flag.String("spec", "", "sweep spec file (serve.SweepRequest JSON; required)")
		server   = flag.String("server", "http://127.0.0.1:8344", "farm base URL")
		outPath  = flag.String("o", "-", "output CSV path (- for stdout)")
		state    = flag.String("state", "", "progress file (JSONL; default <spec>.state.jsonl)")
		timeout  = flag.Duration("timeout", 10*time.Second, "per-request timeout (submit)")
		attempts = flag.Int("attempts", 8, "max submit/stream attempts before giving up")
		verbose  = flag.Bool("v", false, "log progress to stderr")
	)
	flag.Parse()
	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "widir-client: -spec is required")
		flag.Usage()
		os.Exit(2)
	}
	opts := options{
		specPath:  *specPath,
		server:    strings.TrimRight(strings.TrimSpace(*server), "/"),
		outPath:   *outPath,
		statePath: *state,
		timeout:   *timeout,
		attempts:  *attempts,
		logf:      func(string, ...any) {},
	}
	if *verbose {
		opts.logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "widir-client: "+format+"\n", args...)
		}
	}
	if err := run(opts); err != nil {
		fmt.Fprintf(os.Stderr, "widir-client: %v\n", err)
		os.Exit(1)
	}
}

type options struct {
	specPath  string
	server    string
	outPath   string
	statePath string
	timeout   time.Duration
	attempts  int
	logf      func(format string, args ...any)
}

// runRef is one expanded run of the sweep, in server submission order.
type runRef struct {
	spec serve.RunSpec
	rk   exp.RunKey
	key  serve.Key
}

// stateLine is one progress-file record: a completed run's result with
// its provenance. The progress file is the client's WAL — a rerun
// replays it and only fetches what is missing.
type stateLine struct {
	Hash   string          `json:"hash"`
	ID     string          `json:"id"`
	Source string          `json:"source"`
	Result json.RawMessage `json:"result"`
}

func run(opts options) error {
	if opts.server == "" {
		return errors.New("no server")
	}
	if opts.attempts <= 0 {
		opts.attempts = 1
	}
	if opts.statePath == "" {
		opts.statePath = opts.specPath + ".state.jsonl"
	}
	specData, err := os.ReadFile(opts.specPath)
	if err != nil {
		return err
	}
	var sweep serve.SweepRequest
	if err := json.Unmarshal(specData, &sweep); err != nil {
		return fmt.Errorf("spec %s: %w", opts.specPath, err)
	}
	refs, err := expand(sweep)
	if err != nil {
		return err
	}
	have, err := loadState(opts.statePath)
	if err != nil {
		return err
	}
	opts.logf("sweep: %d runs, %d already in %s", len(refs), len(have), opts.statePath)

	stateFile, err := os.OpenFile(opts.statePath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o666)
	if err != nil {
		return err
	}
	defer stateFile.Close()
	record := func(ln stateLine) error {
		if _, dup := have[ln.Hash]; dup {
			return nil
		}
		data, err := json.Marshal(ln)
		if err != nil {
			return err
		}
		if _, err := stateFile.Write(append(data, '\n')); err != nil {
			return fmt.Errorf("progress file: %w", err)
		}
		have[ln.Hash] = ln
		return nil
	}

	// Anything not in the progress file needs the farm. Submit the
	// whole sweep — runs already cached are free for the server and
	// keep the job's run indexing identical to the spec — and stream,
	// recording as results land so a dropped connection resumes.
	missing := 0
	for _, ref := range refs {
		if _, ok := have[ref.key.Hash]; !ok {
			missing++
		}
	}
	if missing > 0 {
		opts.logf("%d runs need the farm", missing)
		bo := newBackoff(500*time.Millisecond, 15*time.Second,
			uint64(os.Getpid())*2654435761+uint64(time.Now().UnixNano()))
		if err := submitAndStream(opts, bo, sweep, refs, have, record); err != nil {
			return err
		}
	}

	// Render: every run, in spec order.
	var out io.Writer = os.Stdout
	if opts.outPath != "-" && opts.outPath != "" {
		f, err := os.Create(opts.outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	w := bufio.NewWriter(out)
	fmt.Fprintln(w, serve.CSVHeader)
	for _, ref := range refs {
		ln, ok := have[ref.key.Hash]
		if !ok {
			return fmt.Errorf("run %s missing after sweep completed", ref.key.ID)
		}
		var res machine.Result
		if err := json.Unmarshal(ln.Result, &res); err != nil {
			return fmt.Errorf("run %s: bad result in progress file: %w", ref.key.ID, err)
		}
		w.WriteString(serve.CSVRow(ref.rk, &res))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	opts.logf("done: %d runs", len(refs))
	return nil
}

// expand mirrors the server's cross-product order exactly (protocol,
// then app, then seed), so job run indices and CSV rows line up with
// what the farm computes.
func expand(sweep serve.SweepRequest) ([]runRef, error) {
	if len(sweep.Protocols) == 0 || len(sweep.Apps) == 0 || len(sweep.Seeds) == 0 {
		return nil, errors.New("sweep needs at least one protocol, app and seed")
	}
	var refs []runRef
	for _, proto := range sweep.Protocols {
		for _, app := range sweep.Apps {
			for _, seed := range sweep.Seeds {
				spec := serve.RunSpec{
					Protocol:  proto,
					App:       app,
					Cores:     sweep.Cores,
					Scale:     sweep.Scale,
					Seed:      seed,
					Artifacts: sweep.Artifacts,
				}
				rk, err := spec.Resolve()
				if err != nil {
					return nil, fmt.Errorf("run %s/%s/seed=%d: %w", proto, app, seed, err)
				}
				key, err := serve.KeyForRun(rk)
				if err != nil {
					return nil, err
				}
				refs = append(refs, runRef{spec: spec, rk: rk, key: key})
			}
		}
	}
	return refs, nil
}

// loadState replays the progress file. Unparseable lines (a torn tail
// from a killed client) are skipped: the runs they would have covered
// are simply re-fetched.
func loadState(path string) (map[string]stateLine, error) {
	have := map[string]stateLine{}
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return have, nil
		}
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var ln stateLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil || ln.Hash == "" || len(ln.Result) == 0 {
			continue
		}
		have[ln.Hash] = ln
	}
	return have, sc.Err()
}

// submitAndStream submits the sweep with backoff and streams results,
// reconnecting and resuming (by hash) on a dropped stream.
func submitAndStream(opts options, bo *backoff, sweep serve.SweepRequest,
	refs []runRef, have map[string]stateLine, record func(stateLine) error) error {

	jobID, err := submitWithBackoff(opts, bo, sweep)
	if err != nil {
		return err
	}
	opts.logf("job %s on %s", jobID, opts.server)

	// The stream is long-lived: no client timeout (the server flushes a
	// line per completion; a stall is handled by reconnecting).
	streamClient := &http.Client{}
	failed := map[string]string{}
	complete := func() bool {
		for _, ref := range refs {
			if _, ok := have[ref.key.Hash]; ok {
				continue
			}
			if _, ok := failed[ref.key.ID]; ok {
				continue
			}
			return false
		}
		return true
	}
	for attempt := 0; attempt < opts.attempts; attempt++ {
		err := readStream(streamClient, opts.server, jobID, failed, record)
		if err == nil && complete() {
			break
		}
		if attempt == opts.attempts-1 {
			if err != nil {
				return fmt.Errorf("stream %s: %w", jobID, err)
			}
			return fmt.Errorf("stream %s ended with runs still missing", jobID)
		}
		delay := bo.delay(attempt, 0)
		opts.logf("stream interrupted (%v); resuming in %v", err, delay)
		time.Sleep(delay)
	}
	if len(failed) > 0 {
		for id, msg := range failed {
			opts.logf("run %s FAILED: %s", id, msg)
		}
		return fmt.Errorf("%d runs failed on the farm", len(failed))
	}
	return nil
}

// submitWithBackoff posts the sweep, honoring 429/503 Retry-After with
// jittered exponential backoff and retrying network errors, until the
// farm accepts it.
func submitWithBackoff(opts options, bo *backoff, sweep serve.SweepRequest) (jobID string, err error) {
	body, err := json.Marshal(sweep)
	if err != nil {
		return "", err
	}
	api := &http.Client{Timeout: opts.timeout}
	var lastErr error
	for attempt := 0; attempt < opts.attempts; attempt++ {
		resp, err := api.Post(opts.server+"/api/v1/sweeps", "application/json", bytes.NewReader(body))
		if err != nil {
			lastErr = err
			delay := bo.delay(attempt, 0)
			opts.logf("submit: %v; retrying in %v", err, delay)
			time.Sleep(delay)
			continue
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			var accepted struct {
				Job string `json:"job"`
			}
			err := json.NewDecoder(resp.Body).Decode(&accepted)
			resp.Body.Close()
			if err != nil {
				return "", err
			}
			return accepted.Job, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			retryAfter := 0
			if v, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
				retryAfter = v
			}
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			delay := bo.delay(attempt, time.Duration(retryAfter)*time.Second)
			lastErr = errors.New(resp.Status)
			opts.logf("farm busy (%s, Retry-After %ds); backing off %v", resp.Status, retryAfter, delay)
			time.Sleep(delay)
		default:
			data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			return "", fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(data)))
		}
	}
	return "", fmt.Errorf("submit failed after %d attempts: %w", opts.attempts, lastErr)
}

// readStream consumes one connection's worth of the job stream,
// recording completions (deduplicated by hash, so a reconnect that
// replays the whole stream is harmless).
func readStream(hc *http.Client, server, jobID string,
	failed map[string]string, record func(stateLine) error) error {

	resp, err := hc.Get(server + "/api/v1/jobs/" + jobID + "/stream")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var st serve.RunStatus
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			return fmt.Errorf("bad stream line: %w", err)
		}
		switch st.State {
		case "done":
			if err := record(stateLine{Hash: st.Key.Hash, ID: st.Key.ID, Source: st.Source, Result: st.Result}); err != nil {
				return err
			}
		case "error":
			failed[st.Key.ID] = st.Error
		}
	}
	return sc.Err()
}

// backoff computes jittered exponential retry delays. The shape is
// "full jitter": attempt k draws uniformly from (0, min(max, base<<k)],
// so a thousand clients rejected by the same 429 spread their retries
// across the whole window instead of stampeding back in lockstep. When
// the server names a Retry-After, that value is the floor — the jitter
// only ever adds to it. The jitter stream is an explicit xrand source
// (never the global math/rand state), so tests can pin it with a seed.
type backoff struct {
	base, max time.Duration
	rng       *xrand.Source
}

func newBackoff(base, max time.Duration, seed uint64) *backoff {
	return &backoff{base: base, max: max, rng: xrand.New(seed)}
}

// delay returns the wait before retry number attempt (0-based).
// retryAfter carries the server's Retry-After when one was given; zero
// means none.
func (b *backoff) delay(attempt int, retryAfter time.Duration) time.Duration {
	ceil := b.base << uint(attempt)
	if ceil > b.max || ceil <= 0 { // <<= overflow guard
		ceil = b.max
	}
	d := time.Duration(b.rng.Int63() % int64(ceil))
	if d <= 0 {
		d = time.Millisecond
	}
	if retryAfter > 0 {
		d += retryAfter
	}
	return d
}
