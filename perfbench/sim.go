package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/coherence"
	"repro/internal/cpu"
	"repro/internal/machine"
	"repro/internal/serve"
	"repro/internal/workload"
)

// cores is the machine size of every simulation (the paper's 64-core
// Dir_3B evaluation).
const cores = 64

// paperCollisionPct is the paper's wireless collision probability at
// the default MaxWiredSharers threshold of 3 (Table VI).
const paperCollisionPct = 3.14

// simWorkload is a fixed mix of full-scale simulations; a timed run
// cycles through it, one simulation at a time.
type simWorkload struct {
	apps   []string
	protos []coherence.Protocol
}

// sharing is the benchmark's simulation mix: six sharing-heavy codes
// under both protocols. Baseline meets their sharing with invalidation
// storms and NACK retries on the wired mesh, WiDir with wireless
// updates, jamming and tone, so one mix loads every simulator layer
// and a gain on one sharing path that costs the other shows in the sum.
var sharing = simWorkload{
	apps:   []string{"radiosity", "raytrace", "barnes", "radix", "ocean-nc", "canneal"},
	protos: []coherence.Protocol{coherence.Baseline, coherence.WiDir},
}

// simCase is one simulation of the mix.
type simCase struct {
	app   workload.Profile
	proto coherence.Protocol
}

func (c simCase) String() string { return fmt.Sprintf("%s/%s", c.app.Name, c.proto) }

func (w simWorkload) cases() ([]simCase, error) {
	var out []simCase
	for _, name := range w.apps {
		app, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown application %q", name)
		}
		for _, p := range w.protos {
			out = append(out, simCase{app: app, proto: p})
		}
	}
	return out, nil
}

// simRun is one finished simulation.
type simRun struct {
	res           *machine.Result
	print         string        // fingerprint of the encoded Result
	program, boot time.Duration // workload.Program, machine.NewSystem
	run           time.Duration // System.Run
	// The same two phases in process CPU time (cpuNow), which the
	// timed phase reports; the wall times above feed the traced spans.
	cpuSetup, cpuRun time.Duration
}

// simHooks instrument a simulation; the zero value runs it plainly.
type simHooks struct {
	checker bool
	wrap    func(core int, src cpu.InstrSource) cpu.InstrSource
	// finished runs after the timed calls, while the finished system
	// is still reachable.
	finished func()
}

// simulate runs the canonical experiment of one case, exactly as the
// evaluation's runner does: Table III machine, workload seed into the
// program generator.
func simulate(c simCase, seed uint64, h simHooks) (simRun, error) {
	var out simRun
	c0, t0 := cpuNow(), wallNow()
	srcs := workload.Program(c.app, cores, seed)
	t1 := wallNow()
	if h.wrap != nil {
		for i := range srcs {
			srcs[i] = h.wrap(i, srcs[i])
		}
	}
	cfg := machine.DefaultConfig(cores, c.proto)
	cfg.EnableChecker = h.checker
	sys, err := machine.NewSystem(cfg, srcs)
	if err != nil {
		return out, err
	}
	t2, c2 := wallNow(), cpuNow()
	res, err := sys.Run()
	c3, t3 := cpuNow(), wallNow()
	if err != nil {
		return out, err
	}
	out.program, out.boot, out.run = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	out.cpuSetup, out.cpuRun = c2-c0, c3-c2
	if h.finished != nil {
		h.finished()
		runtime.KeepAlive(sys)
	}
	out.res = res
	out.print, err = fingerprint(res)
	return out, err
}

// fingerprint hashes the canonical encoding of a Result, the same
// bytes the farm caches and compares.
func fingerprint(res *machine.Result) (string, error) {
	data, err := serve.EncodeResult(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8]), nil
}

// runtime/metrics samples the timed phases read.
const (
	mAllocs  = "/gc/heap/allocs:objects"
	mLive    = "/gc/heap/live:bytes"
	mGCCPU   = "/cpu/classes/gc/total:cpu-seconds"
	mTotCPU  = "/cpu/classes/total:cpu-seconds"
	mBytesMB = 1 << 20
)

// liveHeapBytes collects garbage and returns the bytes still live.
func liveHeapBytes() float64 {
	runtime.GC()
	return readMetrics(mLive)[0]
}

func readMetrics(names ...string) []float64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(names))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// fidelity compares a mix's results with the paper: mean |L1 MPKI −
// Table IV PaperMPKI| over the Baseline runs, and |collision % − Table
// VI's 3.14%|, the collision % pooled over every WiDir transmission of
// the mix.
func fidelity(cases []simCase, res []*machine.Result) (mpkiErr, collErrPP float64) {
	var mpkiSum float64
	var nm int
	var attempts, collisions uint64
	for i, c := range cases {
		switch c.proto {
		case coherence.Baseline:
			mpkiSum += math.Abs(res[i].MPKI() - c.app.PaperMPKI)
			nm++
		case coherence.WiDir:
			attempts += res[i].WirelessAttempts
			collisions += res[i].WirelessCollisions
		}
	}
	return mpkiSum / float64(nm), math.Abs(100*ratio(collisions, attempts) - paperCollisionPct)
}

func runSimWorkload(w simWorkload, o runOpts) (*report, error) {
	cases, err := w.cases()
	if err != nil {
		return nil, err
	}
	table4, err := table4AtSeed(o)
	if err != nil {
		return nil, err
	}
	rep := newReport()

	// Reference runs, untimed and with the value-coherence and SWMR
	// checker on: every later run of the same case must reproduce the
	// reference fingerprint exactly.
	refs := make([]string, len(cases))
	refRes := make([]*machine.Result, len(cases))
	for i, c := range cases {
		rep.attempted++
		r, err := simulate(c, o.seed, simHooks{checker: true})
		if err != nil {
			rep.fail("%s: checked reference run: %v", c, err)
			continue
		}
		refs[i], refRes[i] = r.print, r.res
		checkTable4(table4, c, r.res, rep)
	}
	if rep.failed > 0 {
		return rep, nil
	}

	tp := timeMix(cases, refs, o, rep)
	tp.report(rep)
	mpkiErr, collErr := fidelity(cases, refRes)
	rep.set("mpki_err", mpkiErr)
	rep.set("collision_err_pp", collErr)
	rep.note("fidelity: mean |MPKI - Table IV| = %.4f, |collision %% - %.2f%%| = %.4f pp", mpkiErr, paperCollisionPct, collErr)

	if o.trace {
		traceMix(cases, refs, o, tp, rep)
	}
	return rep, nil
}

// timedPhase holds the untraced measurements of a mix. Host times are
// process CPU time (cpuNow) in reference-host time (refClock).
type timedPhase struct {
	wall                  time.Duration
	runs                  int
	retired               uint64 // over every timed run
	mixRetired            uint64 // one run of each case; every run of a case is identical
	allocs, peakLiveBytes float64
	runS                  float64 // summed over every run
	setupS                []float64
	caseMS                [][]float64 // ms of each run, by case
	rawMS, kernelMS       []float64   // unscaled CPU ms of the runs and of the kernel
}

// timeMix cycles through the mix until the measured (wall) time is
// used up, at least once through, checking each run against its
// reference. It stops between two runs, not at the end of a mix, so
// the phase overshoots its budget by one simulation at most; each case
// is summarised by its own median. The reference kernel runs between
// every two simulations. heap_peak_mb is the largest live heap at the
// end of a run, with the finished machine still reachable, over the
// first pass.
func timeMix(cases []simCase, refs []string, o runOpts, rep *report) *timedPhase {
	tp := &timedPhase{caseMS: make([][]float64, len(cases))}
	budget := time.Duration(o.seconds) * time.Second
	clk := newRefClock()
	start := wallNow()
	for n := 0; n < len(cases) || wallNow().Sub(start) < budget; n++ {
		i, c := n%len(cases), cases[n%len(cases)]
		first := n < len(cases)
		rep.attempted++
		var hooks simHooks
		if first {
			hooks.finished = func() { tp.peakLiveBytes = math.Max(tp.peakLiveBytes, liveHeapBytes()) }
		}
		a0 := readMetrics(mAllocs)[0]
		r, err := simulate(c, o.seed, hooks)
		tp.allocs += readMetrics(mAllocs)[0] - a0
		f := clk.next()
		if err != nil {
			rep.fail("%s: %v", c, err)
			continue
		}
		if r.print != refs[i] {
			rep.fail("%s: fingerprint %s differs from the checked reference %s", c, r.print, refs[i])
		}
		if first {
			tp.mixRetired += r.res.Retired
		}
		tp.retired += r.res.Retired
		tp.runs++
		cpu := (r.cpuSetup + r.cpuRun).Seconds()
		tp.runS += f * cpu
		tp.caseMS[i] = append(tp.caseMS[i], f*cpu*1e3)
		tp.setupS = append(tp.setupS, f*r.cpuSetup.Seconds())
		tp.rawMS = append(tp.rawMS, cpu*1e3)
	}
	tp.wall = wallNow().Sub(start)
	tp.kernelMS = clk.samplesMS()
	return tp
}

// mixSeconds is the CPU time of one mix with every case at its median.
func (tp *timedPhase) mixSeconds() float64 {
	s := 0.0
	for _, ms := range tp.caseMS {
		s += median(ms) / 1e3
	}
	return s
}

// report derives the end-to-end metrics. sim_kinstr_per_s and
// run_ms_p50 use each case at its median run time, so a burst of host
// noise moves them no more than it moves the medians; for a given seed
// they are one figure seen two ways. run_ms_tail is the heaviest case,
// which the mean hides. runs_per_s is the phase's plain throughput,
// every run, garbage collection and set-up included.
func (tp *timedPhase) report(rep *report) {
	mixS := tp.mixSeconds()
	slowest := 0.0
	for _, ms := range tp.caseMS {
		slowest = math.Max(slowest, median(ms))
	}
	rep.set("sim_kinstr_per_s", float64(tp.mixRetired)/1e3/mixS)
	rep.set("run_ms_p50", 1e3*mixS/float64(len(tp.caseMS)))
	rep.set("run_ms_tail", slowest)
	rep.set("runs_per_s", float64(tp.runs)/tp.runS)
	rep.set("allocs_per_kinstr", tp.allocs/(float64(tp.retired)/1e3))
	rep.set("heap_peak_mb", tp.peakLiveBytes/mBytesMB)
	rep.set("setup_s", median(tp.setupS))
	rep.note("%d simulations (%.1f mixes) in %.3f s wall; unscaled CPU ms per simulation: median %.1f; reference kernel: median %.1f ms (nominal %v)",
		tp.runs, float64(tp.runs)/float64(len(tp.caseMS)), tp.wall.Seconds(), median(tp.rawMS), median(tp.kernelMS), refNominal)
}
