package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/serve"
	"repro/internal/workload"
)

// The farm workload regenerates a small slice of the evaluation through
// the simulation farm: both protocols on one compute-bound and one
// sharing-heavy application, at full scale on 64 cores.
var (
	farmApps   = []string{"blackscholes", "radiosity"}
	farmProtos = []string{"baseline", "widir"}
)

// farmSetups is how many cold fills a run makes; setup_s is their
// median CPU time in reference-host time.
const farmSetups = 3

// farm is one booted in-process server on a loopback port.
type farm struct {
	dir    string
	srv    *serve.Server
	http   *http.Server
	base   string
	client *http.Client
}

func bootFarm(dir string) (*farm, error) {
	srv, err := serve.New(serve.Config{CacheDir: dir, Workers: 1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &farm{
		dir:    dir,
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}},
	}
	//lint:deterministic the farm's HTTP server, as in widir-serve
	go f.http.Serve(ln)
	return f, nil
}

func (f *farm) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	f.srv.Drain(ctx)
	f.http.Shutdown(ctx)
	f.client.CloseIdleConnections()
}

// restart stops the farm and boots a new one over the same cache.
func (f *farm) restart() error {
	f.close()
	nf, err := bootFarm(f.dir)
	if err != nil {
		return err
	}
	*f = *nf
	return nil
}

// sweepResult is one run line of a job stream, with the process CPU
// time spent from the submit to its arrival. The farm, its worker and
// the one client share this process and nothing else runs in it, so
// that is the host work the line cost, without the waits for a CPU
// that wall time would add on a shared machine.
type sweepResult struct {
	status serve.RunStatus
	after  time.Duration
}

// errRejected marks a non-2xx answer from the farm.
type errRejected struct{ code int }

func (e errRejected) Error() string { return fmt.Sprintf("farm answered HTTP %d", e.code) }

// sweep submits one sweep and streams it to completion. tr, when set,
// receives spans around the submit and the stream.
func (f *farm) sweep(req serve.SweepRequest, tr *tracer) ([]sweepResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	start := cpuNow()
	if tr != nil {
		tr.begin(spanSubmit)
	}
	resp, err := f.client.Post(f.base+"/api/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		if tr != nil {
			tr.end()
		}
		return nil, err
	}
	var job struct {
		Job string `json:"job"`
	}
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if tr != nil {
		tr.end()
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, errRejected{resp.StatusCode}
	}
	if err != nil {
		return nil, err
	}

	if tr != nil {
		tr.begin(spanStream)
		defer tr.end()
	}
	stream, err := f.client.Get(f.base + "/api/v1/jobs/" + job.Job + "/stream")
	if err != nil {
		return nil, err
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		return nil, errRejected{stream.StatusCode}
	}
	var out []sweepResult
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var st serve.RunStatus
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			return nil, fmt.Errorf("bad stream line: %w", err)
		}
		out = append(out, sweepResult{status: st, after: cpuNow() - start})
	}
	return out, sc.Err()
}

// entry fetches one run's cache entry (a peer's read path).
func (f *farm) entry(hash string) error {
	resp, err := f.client.Get(f.base + "/api/v1/runs/" + hash + "/entry")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return errRejected{resp.StatusCode}
	}
	return nil
}

// servedRun is what the cold fill produced for one run key.
type servedRun struct {
	hash   string
	c      simCase
	result json.RawMessage // the canonical encoding the farm streams
	res    *machine.Result
}

// coldFill boots a farm on an empty cache, simulates the sweep, stops
// it and boots it again over the same cache directory. It returns the
// restarted farm and the fill's runs in stream order.
func coldFill(dir string, req serve.SweepRequest) (*farm, []servedRun, error) {
	f, err := bootFarm(dir)
	if err != nil {
		return nil, nil, err
	}
	results, err := f.sweep(req, nil)
	f.close()
	if err != nil {
		return nil, nil, err
	}
	if len(results) != len(farmApps)*len(farmProtos) {
		return nil, nil, fmt.Errorf("cold fill returned %d runs", len(results))
	}
	var runs []servedRun
	for _, r := range results {
		st := r.status
		if st.State != "done" || st.Source != "sim" {
			return nil, nil, fmt.Errorf("cold fill: run %s is %s from %q (%s)", st.Key.ID, st.State, st.Source, st.Error)
		}
		app, ok := workload.ByName(st.Spec.App)
		if !ok {
			return nil, nil, fmt.Errorf("farm served unknown app %q", st.Spec.App)
		}
		p, err := serve.ParseProtocol(st.Spec.Protocol)
		if err != nil {
			return nil, nil, err
		}
		res := &machine.Result{}
		if err := json.Unmarshal(st.Result, res); err != nil {
			return nil, nil, err
		}
		runs = append(runs, servedRun{hash: st.Key.Hash, c: simCase{app: app, proto: p}, result: st.Result, res: res})
	}
	f, err = bootFarm(dir)
	return f, runs, err
}

func runFarm(o runOpts) (*report, error) {
	rep := newReport()
	req := serve.SweepRequest{
		Client: "bench", Protocols: farmProtos, Apps: farmApps,
		Cores: cores, Scale: 1.0, Seeds: []uint64{o.seed},
	}
	scratch, err := os.MkdirTemp("", "perfbench-farm-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	// Set-up: boot + cold fill + restart, several times over fresh
	// cache directories. Every fill must produce the same bytes.
	var f *farm
	var runs []servedRun
	var setupS []float64
	clk := newRefClock()
	for i := 0; i < farmSetups; i++ {
		if f != nil {
			f.close()
		}
		dir, err := os.MkdirTemp(scratch, "cache-")
		if err != nil {
			return nil, err
		}
		start := cpuNow()
		rep.attempted += len(farmApps) * len(farmProtos)
		fi, got, err := coldFill(dir, req)
		cpu := cpuNow() - start
		if err != nil {
			rep.fail("set-up %d: %v", i, err)
			return rep, nil
		}
		setupS = append(setupS, clk.next()*cpu.Seconds())
		for k := range got {
			if runs != nil && (got[k].hash != runs[k].hash || !bytes.Equal(got[k].result, runs[k].result)) {
				rep.fail("set-up %d: run %s is not byte-identical to the first fill", i, got[k].c)
			}
		}
		f, runs = fi, got
	}
	defer f.close()
	rep.set("setup_s", median(setupS))
	table4, err := table4AtSeed(o)
	if err != nil {
		return nil, err
	}
	var cases []simCase
	var results []*machine.Result
	served := map[string]servedRun{}
	for _, r := range runs {
		checkTable4(table4, r.c, r.res, rep)
		cases = append(cases, r.c)
		results = append(results, r.res)
		served[r.hash] = r
	}
	mpkiErr, collErr := fidelity(cases, results)
	rep.set("mpki_err", mpkiErr)
	rep.set("collision_err_pp", collErr)
	rep.note("fidelity of the served sweep: mean |MPKI - Table IV| = %.4f, |collision %% - %.2f%%| = %.4f pp", mpkiErr, paperCollisionPct, collErr)

	ph := farmPhase(f, req, served, time.Duration(o.seconds)*time.Second, false, rep)
	ph.report(rep)
	if o.trace {
		traceFarm(f, req, served, ph, o, rep)
	}
	return rep, nil
}

// farmMeasure is one closed-loop phase against a warm farm. Host times
// are process CPU time in reference-host time (refClock).
type farmMeasure struct {
	wall                  time.Duration // epochs only, restarts excluded
	cpuS                  float64       // the same
	kernelMS              []float64     // unscaled CPU ms of the reference kernel
	epochs, sweeps, runs  int
	rejected              int
	retired               uint64
	allocs, peakLiveBytes float64
	retainedBytes         float64 // live heap an epoch added, summed
	latMS                 []float64
	diskMS                []float64       // the runs read from the on-disk cache
	epochRate             []float64       // served runs per second, by epoch
	runner                exp.RunnerStats // summed over the epochs' farms
	tracer                *tracer         // when traced
}

// farmEpochSweeps is how many sweeps one farm serves before the phase
// restarts it over the same cache. The first sweep after each restart
// is read back from disk and the rest come from the memo, so one run in
// 250 takes the disk path: few enough that the p99 latency stays among
// the memo hits, where it is steadier, while serve.disk_ms times the
// disk path on its own. The restarts also bound the heap, because the
// farm keeps every job it has accepted in memory.
const farmEpochSweeps = 250

// farmPhase runs one closed-loop client, which submits the sweep again
// as soon as its previous one has streamed back, in epochs of
// farmEpochSweeps sweeps, until the budget of wall time is spent. Every
// served result must be byte-identical to the cold fill's, and no run
// may be simulated.
func farmPhase(f *farm, req serve.SweepRequest, served map[string]servedRun, budget time.Duration, traced bool, rep *report) *farmMeasure {
	m := &farmMeasure{}
	if traced {
		m.tracer = newTracer(int(numSpans), nil)
	}
	clk := newRefClock()
	for m.wall < budget {
		if m.epochs > 0 {
			if err := f.restart(); err != nil {
				rep.fail("restart: %v", err)
				break
			}
		}
		base := liveHeapBytes()
		lat0, disk0 := len(m.latMS), len(m.diskMS)
		cpu := m.epoch(f, req, served, budget-m.wall, rep)
		k := clk.next()
		for _, xs := range [][]float64{m.latMS[lat0:], m.diskMS[disk0:]} {
			for i := range xs {
				xs[i] *= k
			}
		}
		m.cpuS += k * cpu.Seconds()
		m.epochRate = append(m.epochRate, float64(len(m.latMS)-lat0)/(k*cpu.Seconds()))
		st := f.srv.Stats().Runner
		m.runner.Sims += st.Sims
		m.runner.CacheHits += st.CacheHits
		m.runner.MemoHits += st.MemoHits
		live := liveHeapBytes()
		m.peakLiveBytes = math.Max(m.peakLiveBytes, live)
		m.retainedBytes += live - base
		m.epochs++
	}
	m.kernelMS = clk.samplesMS()
	rep.note("warm phase simulated %d runs", m.runner.Sims)
	if m.runner.Sims != 0 {
		rep.fail("warm phase simulated %d runs; every run must come from the cache", m.runner.Sims)
	}
	return m
}

// epoch drives one farm until it has served farmEpochSweeps sweeps or
// the remaining budget is spent, and returns its CPU time.
func (m *farmMeasure) epoch(f *farm, req serve.SweepRequest, served map[string]servedRun, budget time.Duration, rep *report) time.Duration {
	a0 := readMetrics(mAllocs)[0]
	start, cpu0 := wallNow(), cpuNow()
	for n := 0; n < farmEpochSweeps && wallNow().Sub(start) < budget; n++ {
		results, err := f.sweep(req, m.tracer)
		m.record(results, err, served, rep)
	}
	cpu := cpuNow() - cpu0
	m.wall += wallNow().Sub(start)
	m.allocs += readMetrics(mAllocs)[0] - a0
	return cpu
}

// record checks one streamed sweep and keeps its samples.
func (m *farmMeasure) record(results []sweepResult, err error, served map[string]servedRun, rep *report) {
	want := len(farmApps) * len(farmProtos)
	rep.attempted += want
	if err != nil {
		if _, ok := err.(errRejected); ok {
			m.rejected++
		}
		rep.fail("sweep: %v", err)
		return
	}
	m.sweeps++
	for _, r := range results {
		st := r.status
		sr, ok := served[st.Key.Hash]
		switch {
		case st.State != "done" || (st.Source != "cache" && st.Source != "memo"):
			rep.fail("run %s: %s from %q (%s)", st.Key.ID, st.State, st.Source, st.Error)
		case !ok || !bytes.Equal(sr.result, st.Result):
			rep.fail("run %s: served result differs from the cold fill", st.Key.ID)
		default:
			m.runs++
			m.retired += sr.res.Retired
			m.latMS = append(m.latMS, float64(r.after)/1e6)
			if st.Source == "cache" {
				m.diskMS = append(m.diskMS, float64(r.after)/1e6)
			}
		}
	}
	if len(results) != want {
		rep.fail("sweep: %d of %d runs streamed", len(results), want)
	}
}

// report derives the end-to-end metrics. The rates are the median
// epoch's, so a burst of host noise moves them no more than it moves
// the median. sim_kinstr_per_s and runs_per_s are one figure seen two
// ways: every sweep serves the same runs.
func (m *farmMeasure) report(rep *report) {
	q, tail, ok := tailPercentile(m.latMS)
	rate := median(m.epochRate)
	rep.set("sim_kinstr_per_s", rate*float64(m.retired)/1e3/float64(m.runs))
	rep.set("run_ms_p50", median(m.latMS))
	rep.set("run_ms_tail", tail)
	rep.set("runs_per_s", rate)
	rep.set("allocs_per_kinstr", m.allocs/(float64(m.retired)/1e3))
	rep.set("heap_peak_mb", m.peakLiveBytes/mBytesMB)
	if !ok {
		rep.fail("only %d served runs: too few for a tail percentile", len(m.latMS))
	}
	rep.note("%d warm sweeps, %d cache-served runs in %.3f s wall, %.3f s reference-host CPU, in %d epochs with a farm restart between each; run_ms_tail is p%g of %d samples; reference kernel: median %.1f ms (nominal %v)",
		m.sweeps, m.runs, m.wall.Seconds(), m.cpuS, m.epochs, 100*q, len(m.latMS), median(m.kernelMS), refNominal)
	rep.note("%d runs read from the on-disk cache, median %.3f ms; the rest from the memo", len(m.diskMS), median(m.diskMS))
}

// traceFarm repeats the warm phase with spans around the benchmark's
// HTTP calls, and reads the farms' counters for it.
func traceFarm(f *farm, req serve.SweepRequest, served map[string]servedRun, untraced *farmMeasure, o runOpts, rep *report) {
	zeroLayers(rep)
	ph := farmPhase(f, req, served, time.Duration(o.seconds)*time.Second, true, rep)
	tr := ph.tracer
	for h := range served {
		rep.attempted++
		tr.begin(spanEntry)
		err := f.entry(h)
		tr.end()
		if err != nil {
			rep.fail("entry %s: %v", h[:12], err)
		}
	}
	rep.set("serve.submit_ms", tr.selfNsPerCall(spanSubmit)/1e6)
	rep.set("serve.stream_ms", tr.selfNsPerCall(spanStream)/1e6)
	rep.set("serve.entry_ms", tr.selfNsPerCall(spanEntry)/1e6)
	rep.set("serve.cache_hits", float64(ph.runner.CacheHits))
	rep.set("serve.rejected", float64(ph.rejected))
	rep.set("serve.retained_kb_per_run", ph.retainedBytes/1e3/float64(max(ph.runs, 1)))
	rep.set("serve.disk_ms", median(untraced.diskMS))
	rep.set("exp.memo_hits", float64(ph.runner.MemoHits))
	perSweep := func(m *farmMeasure) float64 { return m.cpuS / float64(max(m.sweeps, 1)) }
	rep.set("bench.trace_overhead_pct", 100*(perSweep(ph)-perSweep(untraced))/perSweep(untraced))
}
