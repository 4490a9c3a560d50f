package serve

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/xrand"
)

// Config configures a farm server.
type Config struct {
	CacheDir string // content-addressed result cache root
	Workers  int    // simulation workers (<=0: 1)
	MaxQueue int    // max queued runs across all clients (<=0: 256)

	// CacheMaxBytes bounds the disk cache; every fill triggers an LRU
	// sweep that evicts least-recently-accessed entries past the
	// budget. 0 = unbounded.
	CacheMaxBytes int64
}

// Server is the simulation farm: a bounded worker pool draining the
// fair scheduler, an exp.Runner whose memo is backed by the disk
// cache, and the HTTP API over both. Create with New, serve its
// Handler, stop with Drain.
type Server struct {
	cfg    Config
	runner *exp.Runner
	cache  *Cache
	sched  *scheduler
	wal    *journal

	mu   sync.Mutex
	jobs map[string]*job

	rngMu sync.Mutex
	rng   *xrand.Source // Retry-After jitter

	// results holds each run hash's canonical result encoding, made
	// once per process (resultBytes): hash -> json.RawMessage. It sits
	// next to the runner memo and grows with it; every run of a hash
	// shares the one slice.
	results sync.Map

	jobSeq     atomic.Uint64
	compSeq    atomic.Uint64 // global completion order (fairness witness)
	tracedSims atomic.Uint64 // artifact runs simulated outside the runner
	draining   atomic.Bool
	workers    sync.WaitGroup
}

// New builds a farm server and starts its workers. The runner's memo
// layer is wired to the disk cache, so every fresh simulation is
// persisted and every later identical run is served without
// re-simulating. The queue journal is replayed before workers
// start: accepted-but-unfinished runs from a crashed predecessor
// re-enter the scheduler ahead of new traffic.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 256
	}
	cache, err := OpenCache(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	cache.SetMaxBytes(cfg.CacheMaxBytes)
	cache.maybeGC()
	// Runner parallelism 1: the farm's own workers provide the
	// concurrency; SimSource executes on the calling goroutine.
	runner := exp.NewRunner(1)
	s := &Server{
		cfg:    cfg,
		runner: runner,
		cache:  cache,
		sched:  newScheduler(cfg.MaxQueue),
		jobs:   map[string]*job{},
		rng:    xrand.New(uint64(time.Now().UnixNano())),
	}
	runner.SetCache(runnerCache{cache: cache})

	wal, replayed, err := openJournal(filepath.Join(cache.Dir(), "queue.wal"))
	if err != nil {
		return nil, err
	}
	s.wal = wal
	s.replay(replayed)

	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// replay re-enqueues accepted-but-unfinished runs from the journal.
// The jobs keep their old IDs (a client polling across the restart
// finds its job again, holding just the runs that still owed work) and
// bypass the queue bound — they were admitted once already. Specs that
// no longer resolve (a workload renamed between versions) are dropped
// with an error state rather than wedging the queue.
func (s *Server) replay(jobs []walJob) {
	maxSeq := uint64(0)
	for _, wj := range jobs {
		var n uint64
		if _, err := fmt.Sscanf(wj.Job, "job-%d", &n); err == nil && n > maxSeq {
			maxSeq = n
		}
		j := &job{id: wj.Job, client: wj.Client}
		j.cond = sync.NewCond(&j.mu)
		var runs []*run
		for _, spec := range wj.Pending {
			r := &run{job: j, idx: len(j.runs), spec: spec}
			rk, err := spec.Resolve()
			if err == nil {
				r.rk = rk
				r.key, err = KeyForRun(rk)
			}
			if err != nil {
				r.state = runFailed
				r.errMsg = fmt.Sprintf("journal replay: %v", err)
			}
			j.runs = append(j.runs, r)
			if r.state == runFailed {
				j.order = append(j.order, r.idx)
				s.wal.appendDone(j.id, r.idx)
			} else {
				runs = append(runs, r)
			}
		}
		if len(j.runs) == 0 {
			continue
		}
		s.jobs[j.id] = j
		s.sched.offerForce(j.client, runs)
	}
	if maxSeq > s.jobSeq.Load() {
		s.jobSeq.Store(maxSeq)
	}
}

// Runner exposes the farm's runner (stats and tests).
func (s *Server) Runner() *exp.Runner { return s.runner }

// Cache exposes the farm's result cache (stats and tests).
func (s *Server) Cache() *Cache { return s.cache }

// ---------------------------------------------------------------------
// Jobs and runs

type runState int32

const (
	runPending runState = iota
	runRunning
	runDone
	runFailed
)

func (st runState) String() string {
	switch st {
	case runRunning:
		return "running"
	case runDone:
		return "done"
	case runFailed:
		return "error"
	default:
		return "pending"
	}
}

// run is one unit of work: a single canonical simulation within a job.
type run struct {
	job  *job
	idx  int
	spec RunSpec
	rk   exp.RunKey
	key  Key

	// Written by the executing worker, then published via job.complete
	// before any reader sees the index in job.order.
	state  runState
	seq    uint64 // global completion sequence number (1-based)
	source string
	errMsg string
	result json.RawMessage // canonical result encoding, shared (resultBytes)
}

// job is one accepted sweep submission.
type job struct {
	id     string
	client string

	mu    sync.Mutex
	cond  *sync.Cond
	runs  []*run
	order []int // run indices in completion order
}

func (j *job) complete(r *run) {
	j.mu.Lock()
	j.order = append(j.order, r.idx)
	j.cond.Broadcast()
	j.mu.Unlock()
}

// snapshot returns (completion order copy, done).
func (j *job) snapshot() ([]int, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	order := append([]int(nil), j.order...)
	return order, len(j.order) == len(j.runs)
}

// waitMore blocks until the completion order grows past n, the job
// finishes or ctx ends; it returns the fresh order copy, or ctx's error.
// Cancelling ctx broadcasts the cond, so a stream whose client went
// away stops waiting at once instead of when the job next completes.
func (j *job) waitMore(ctx context.Context, n int) ([]int, error) {
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()
	j.mu.Lock()
	defer j.mu.Unlock()
	for len(j.order) <= n && len(j.order) < len(j.runs) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		j.cond.Wait()
	}
	return append([]int(nil), j.order...), nil
}

// ---------------------------------------------------------------------
// Workers

func (s *Server) worker() {
	defer s.workers.Done()
	for {
		r, ok := s.sched.take()
		if !ok {
			return
		}
		s.execute(r)
		r.seq = s.compSeq.Add(1)
		// Journal the completion before publishing it: a crash after
		// the publish but before the append merely redoes a cached,
		// idempotent run on restart.
		s.wal.appendDone(r.job.id, r.idx)
		r.job.complete(r)
	}
}

// execute runs one simulation and records its outcome on the run.
// Runs are published to readers only through job.complete, so the
// field writes here need no lock.
func (s *Server) execute(r *run) {
	r.state = runRunning
	var err error
	if r.spec.Artifacts {
		err = s.executeTraced(r)
	} else {
		err = s.executePlain(r)
	}
	if err != nil {
		r.state = runFailed
		r.errMsg = err.Error()
		return
	}
	r.state = runDone
}

// executePlain serves the run through the runner: memo, then disk
// cache, then a fresh simulation (persisted on the way out).
func (s *Server) executePlain(r *run) error {
	res, src, err := s.runner.SimSource(r.rk.Protocol, r.rk.Cores, r.rk.App, r.rk.Seed)
	if err != nil {
		return err
	}
	raw, err := s.resultBytes(r.key.Hash, res)
	if err != nil {
		return err
	}
	r.source = src.String()
	r.result = raw
	return nil
}

// resultBytes returns EncodeResult(res) for the run with the given
// hash, encoding it only the first time the process sees the hash.
// Every later caller gets the same capacity-clipped slice, so an append
// by any holder copies instead of writing into the shared array. The
// bytes come from json.Marshal: compact and HTML-escaped, which is what
// lets writeLine splice them into a stream line verbatim.
func (s *Server) resultBytes(hash string, res *machine.Result) (json.RawMessage, error) {
	if raw, ok := s.results.Load(hash); ok {
		return raw.(json.RawMessage), nil
	}
	raw, err := EncodeResult(res)
	if err != nil {
		return nil, err
	}
	shared, _ := s.results.LoadOrStore(hash, json.RawMessage(slices.Clip(raw)))
	return shared.(json.RawMessage), nil
}

// executeTraced serves an artifact run. The disk entry satisfies it
// only if it already carries trace artifacts; otherwise the run is
// re-simulated with the obs subsystem attached (outside the runner —
// tracing changes nothing about the result, but the event log is not
// memoizable) and the full artifact set replaces the plain entry.
func (s *Server) executeTraced(r *run) error {
	if res, ok := s.cache.Get(r.key); ok && s.cache.HasArtifacts(r.key) {
		raw, err := s.resultBytes(r.key.Hash, res)
		if err != nil {
			return err
		}
		r.source = "cache"
		r.result = raw
		return nil
	}
	s.tracedSims.Add(1)
	tr, err := exp.RunTraced(exp.Options{
		Cores:    r.spec.Cores,
		Scale:    r.spec.Scale,
		Seed:     r.spec.Seed,
		Apps:     []string{r.spec.App},
		Parallel: 1,
	}, r.rk.Protocol, 0)
	if err != nil {
		return err
	}
	arts, err := traceArtifacts(r.rk, tr)
	if err != nil {
		return err
	}
	if err := s.cache.Put(r.key, tr.Result, arts); err != nil {
		return err
	}
	raw, err := s.resultBytes(r.key.Hash, tr.Result)
	if err != nil {
		return err
	}
	r.source = "sim"
	r.result = raw
	return nil
}

// Drain stops admission, lets already-queued work finish, and waits
// for the workers (bounded by ctx). Every admitted run still executes
// — close() only stops new offers — so streams of accepted jobs run to
// completion. After Drain the server answers status and artifact reads
// but rejects new sweeps with 503.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.sched.close()
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		// Clean drain: no worker is appending anymore, so the journal
		// can be released (a compaction already truncated it when the
		// last outstanding run completed).
		s.wal.Close()
		return nil
	case <-ctx.Done():
		return errors.New("serve: drain cancelled with work in flight")
	}
}

// ---------------------------------------------------------------------
// HTTP API

// SweepRequest is the submit-sweep body. The cross product
// protocols × apps × seeds becomes the job's runs.
type SweepRequest struct {
	Client    string   `json:"client"`
	Protocols []string `json:"protocols"`
	Apps      []string `json:"apps"`
	Cores     int      `json:"cores"`
	Scale     float64  `json:"scale"`
	Seeds     []uint64 `json:"seeds"`
	Artifacts bool     `json:"artifacts,omitempty"`
}

// RunStatus is one run's public state.
type RunStatus struct {
	Spec  RunSpec `json:"spec"`
	Key   Key     `json:"key"`
	State string  `json:"state"`
	// Seq is the farm-wide completion sequence number (1-based): run
	// N was the Nth run the farm finished since it started. It makes
	// scheduling fairness observable — a small job's runs carry low
	// seqs even when submitted behind a bulk sweep.
	Seq    uint64          `json:"seq,omitempty"`
	Source string          `json:"source,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// Handler returns the farm's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /api/v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /api/v1/runs/{hash}/artifacts/{name}", s.handleArtifact)
	mux.HandleFunc("GET /api/v1/runs/{hash}/entry", s.handleEntryGet)
	mux.HandleFunc("GET /api/v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var sr SweepRequest
	if err := json.NewDecoder(req.Body).Decode(&sr); err != nil {
		httpError(w, http.StatusBadRequest, "bad sweep request: %v", err)
		return
	}
	if sr.Client == "" {
		sr.Client = "anonymous"
	}
	if len(sr.Protocols) == 0 || len(sr.Apps) == 0 || len(sr.Seeds) == 0 {
		httpError(w, http.StatusBadRequest, "sweep needs at least one protocol, app and seed")
		return
	}

	j := &job{
		id:     fmt.Sprintf("job-%06d", s.jobSeq.Add(1)),
		client: sr.Client,
	}
	j.cond = sync.NewCond(&j.mu)
	for _, proto := range sr.Protocols {
		for _, app := range sr.Apps {
			for _, seed := range sr.Seeds {
				spec := RunSpec{
					Protocol:  proto,
					App:       app,
					Cores:     sr.Cores,
					Scale:     sr.Scale,
					Seed:      seed,
					Artifacts: sr.Artifacts,
				}
				rk, err := spec.Resolve()
				if err != nil {
					httpError(w, http.StatusBadRequest, "run %s/%s/seed=%d: %v", proto, app, seed, err)
					return
				}
				key, err := KeyForRun(rk)
				if err != nil {
					httpError(w, http.StatusInternalServerError, "key derivation: %v", err)
					return
				}
				j.runs = append(j.runs, &run{
					job:  j,
					idx:  len(j.runs),
					spec: spec,
					rk:   rk,
					key:  key,
				})
			}
		}
	}

	// Journal the admission BEFORE the scheduler sees it: once the
	// client reads 202 the work must survive a crash, and the append
	// fsyncs. If the scheduler then refuses (queue full) the cancel
	// record retracts the job so it never replays. A journal error is
	// counted and the job admitted anyway — availability over
	// durability for that one sweep.
	specs := make([]RunSpec, len(j.runs))
	for i, r := range j.runs {
		specs[i] = r.spec
	}
	s.wal.appendAccept(j.id, j.client, specs)

	if !s.sched.offer(j.client, j.runs) {
		s.wal.appendCancel(j.id)
		if s.draining.Load() {
			httpError(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		// Queue full: the retry advice scales with how deep the
		// backlog is and carries jitter, so a fleet of synchronized
		// clients spreads its retries instead of stampeding back at
		// once (see retryAfterSeconds).
		depth, max := s.sched.depth()
		s.rngMu.Lock()
		retry := retryAfterSeconds(depth, max, s.rng)
		s.rngMu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		httpError(w, http.StatusTooManyRequests, "queue full (%d runs max); retry later", s.cfg.MaxQueue)
		return
	}

	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()

	keys := make([]Key, len(j.runs))
	for i, r := range j.runs {
		keys[i] = r.key
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"job":    j.id,
		"client": j.client,
		"runs":   len(j.runs),
		"keys":   keys,
	})
}

func (s *Server) lookupJob(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// runStatus renders a run. Completed runs (published via job.order)
// may include the result body.
func runStatus(r *run, completed, withResult bool) RunStatus {
	st := RunStatus{Spec: r.spec, Key: r.key}
	if !completed {
		st.State = runPending.String()
		return st
	}
	st.State = r.state.String()
	st.Seq = r.seq
	st.Source = r.source
	st.Error = r.errMsg
	if withResult {
		st.Result = r.result
	}
	return st
}

func (s *Server) handleJob(w http.ResponseWriter, req *http.Request) {
	j := s.lookupJob(req.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	order, done := j.snapshot()
	completed := make(map[int]bool, len(order))
	failed := 0
	for _, idx := range order {
		completed[idx] = true
		if j.runs[idx].state == runFailed {
			failed++
		}
	}
	statuses := make([]RunStatus, len(j.runs))
	for i, r := range j.runs {
		statuses[i] = runStatus(r, completed[i], false)
	}
	state := "running"
	if done {
		state = "done"
		if failed > 0 {
			state = "failed"
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"job":       j.id,
		"client":    j.client,
		"state":     state,
		"total":     len(j.runs),
		"completed": len(order),
		"failed":    failed,
		"runs":      statuses,
	})
}

// handleStream writes one JSON line per completed run, in completion
// order, flushing after each batch of ready lines so a watching client
// sees results as the farm produces them. The stream ends when the job
// does, or when the client goes away; connecting to a finished job
// replays every completion immediately.
func (s *Server) handleStream(w http.ResponseWriter, req *http.Request) {
	j := s.lookupJob(req.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	flusher, _ := w.(http.Flusher)
	lw := newLineWriter()
	sent := 0
	order, _ := j.snapshot()
	for {
		for ; sent < len(order); sent++ {
			if err := lw.writeLine(w, runStatus(j.runs[order[sent]], true, true)); err != nil {
				return // client went away
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if sent == len(j.runs) {
			return
		}
		var err error
		if order, err = j.waitMore(req.Context(), sent); err != nil {
			return
		}
	}
}

// lineWriter writes stream lines without re-encoding results: only the
// small RunStatus header goes through encoding/json, and the stored
// result bytes are spliced in before its closing brace.
type lineWriter struct {
	head bytes.Buffer
	enc  *json.Encoder
}

func newLineWriter() *lineWriter {
	lw := &lineWriter{}
	lw.enc = json.NewEncoder(&lw.head)
	return lw
}

// writeLine writes exactly the bytes json.NewEncoder(w).Encode(st)
// would. Result is RunStatus's last field, and the encoder would embed
// it compacted and HTML-escaped — which it already is, since it comes
// from json.Marshal (resultBytes) — so the header with Result omitted,
// minus its closing "}\n", then `,"result":`, the bytes and "}\n" is
// the same line.
func (lw *lineWriter) writeLine(w io.Writer, st RunStatus) error {
	result := st.Result
	st.Result = nil
	lw.head.Reset()
	if err := lw.enc.Encode(st); err != nil {
		return err
	}
	if len(result) == 0 {
		_, err := w.Write(lw.head.Bytes())
		return err
	}
	lw.head.Truncate(lw.head.Len() - len("}\n"))
	lw.head.WriteString(`,"result":`)
	if _, err := w.Write(lw.head.Bytes()); err != nil {
		return err
	}
	if _, err := w.Write(result); err != nil {
		return err
	}
	_, err := io.WriteString(w, "}\n")
	return err
}

func (s *Server) handleArtifact(w http.ResponseWriter, req *http.Request) {
	hash := req.PathValue("hash")
	if len(hash) != 64 {
		httpError(w, http.StatusBadRequest, "artifact key must be the 64-hex run hash")
		return
	}
	if _, err := hex.DecodeString(hash); err != nil {
		httpError(w, http.StatusBadRequest, "artifact key must be hex: %v", err)
		return
	}
	name := req.PathValue("name")
	data, err := s.cache.Artifact(Key{Hash: hash}, name)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			httpError(w, http.StatusNotFound, "no artifact %s for run %s", name, hash[:12])
			return
		}
		httpError(w, http.StatusInternalServerError, "read artifact: %v", err)
		return
	}
	switch name {
	case ArtifactCSV:
		w.Header().Set("Content-Type", "text/csv")
	default:
		w.Header().Set("Content-Type", "application/json")
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}

// runHashParam extracts and validates the {hash} path value.
func runHashParam(req *http.Request) (string, error) {
	hash := req.PathValue("hash")
	if len(hash) != 64 {
		return "", errors.New("run key must be the 64-hex run hash")
	}
	if _, err := hex.DecodeString(hash); err != nil {
		return "", fmt.Errorf("run key must be hex: %v", err)
	}
	return hash, nil
}

// handleEntryGet serves the verbatim entry.json bytes for a run hash
// from the disk cache, validated first (Cache.RawEntry). It is a pure
// read: a miss is a 404 and never starts a simulation.
func (s *Server) handleEntryGet(w http.ResponseWriter, req *http.Request) {
	hash, err := runHashParam(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	data, ok := s.cache.RawEntry(hash)
	if !ok {
		httpError(w, http.StatusNotFound, "no entry for run %s", hash[:12])
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}

// StatsSnapshot is the /stats body.
type StatsSnapshot struct {
	Queue struct {
		Depth int `json:"depth"`
		Max   int `json:"max"`
	} `json:"queue"`
	Jobs       int             `json:"jobs"`
	Runner     exp.RunnerStats `json:"runner"`
	TracedSims uint64          `json:"traced_sims"`
	Cache      CacheStats      `json:"cache"`
	WAL        JournalStats    `json:"wal"`
	Draining   bool            `json:"draining"`
}

// Stats snapshots the farm counters (also served at /api/v1/stats).
func (s *Server) Stats() StatsSnapshot {
	var out StatsSnapshot
	out.Queue.Depth, out.Queue.Max = s.sched.depth()
	s.mu.Lock()
	out.Jobs = len(s.jobs)
	s.mu.Unlock()
	out.Runner = s.runner.Stats()
	out.TracedSims = s.tracedSims.Load()
	out.Cache = s.cache.Stats()
	out.WAL = s.wal.Stats()
	out.Draining = s.draining.Load()
	return out
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
