package main

import (
	"time"

	"repro/internal/addrspace"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/cpu"
	"repro/internal/obs"
)

// perLayer lists the traced run's metrics, one group per simulator
// layer. Every workload reports all of them; a layer a workload does
// not exercise reads 0. README.md maps each to the end-to-end metric
// it should move.
var perLayer = []metricDef{
	{"workload.next_ns", "ns"},
	{"workload.instrs", "count"},
	{"workload.mem_frac", "ratio"},
	{"workload.program_ms", "ms"},
	{"machine.newsystem_ms", "ms"},
	{"machine.run_ms", "ms"},
	{"machine.ns_per_sim_cycle", "ns"},
	{"machine.gc_cpu_frac", "ratio"},
	{"cpu.tick_ns", "ns"},
	{"cpu.ns_per_instr", "ns"},
	{"cpu.ticks_per_kinstr", "count"},
	{"cpu.mem_stall_frac", "ratio"},
	{"cpu.rob_stalls", "count"},
	{"cache.lookup_ns", "ns"},
	{"cache.accesses", "count"},
	{"cache.hit_ratio", "ratio"},
	{"coherence.l1_access_ns", "ns"},
	{"coherence.l1_wired_ns", "ns"},
	{"coherence.home_wired_ns", "ns"},
	{"coherence.l1_wireless_ns", "ns"},
	{"coherence.home_wireless_ns", "ns"},
	{"coherence.nack_ratio", "ratio"},
	{"coherence.invalidations", "count"},
	{"coherence.updates", "count"},
	{"coherence.s_to_w", "count"},
	{"coherence.w_to_s", "count"},
	{"coherence.miss_lat_p50_cycles", "cycles"},
	{"engine.at_ns", "ns"},
	{"engine.rundue_ns", "ns"},
	{"engine.events_per_cycle", "ratio"},
	{"mesh.send_ns", "ns"},
	{"mesh.tick_ns", "ns"},
	{"mesh.packets", "count"},
	{"mesh.hops_mean", "hops"},
	{"mesh.flit_tick_ns", "ns"},
	{"wireless.transmit_ns", "ns"},
	{"wireless.tick_ns", "ns"},
	{"wireless.attempts", "count"},
	{"wireless.collision_ratio", "ratio"},
	{"wireless.jams", "count"},
	{"serve.submit_ms", "ms"},
	{"serve.stream_ms", "ms"},
	{"serve.entry_ms", "ms"},
	{"serve.cache_hits", "count"},
	{"serve.rejected", "count"},
	{"serve.retained_kb_per_run", "KB"},
	{"serve.disk_ms", "ms"},
	{"exp.memo_hits", "count"},
	{"bench.trace_overhead_pct", "%"},
}

// The spans the traced run records, each around one call into a layer.
const (
	spanNext spanID = iota
	spanProgram
	spanNewSystem
	spanRun
	spanCPUTick
	spanCacheStream
	spanL1Access
	spanL1Wired
	spanHomeWired
	spanL1Wireless
	spanHomeWireless
	spanEngineAt
	spanEngineRunDue
	spanMeshSend
	spanMeshTick
	spanFlitTick
	spanWirelessTransmit
	spanWirelessTick
	spanSubmit
	spanStream
	spanEntry
	numSpans
)

// zeroLayers sets every per-layer metric to 0; each workload then
// overwrites the layers it exercises.
func zeroLayers(rep *report) {
	for _, d := range perLayer {
		rep.set(d.name, 0)
	}
}

// recordingSource wraps a core's instruction source: it times each
// Next call and keeps the stream for the replays.
type recordingSource struct {
	src    cpu.InstrSource
	tr     *tracer
	stream []cpu.Instr
}

func (s *recordingSource) Next(prev uint64, prevValid bool) (cpu.Instr, bool) {
	s.tr.begin(spanNext)
	ins, ok := s.src.Next(prev, prevValid)
	s.tr.end()
	if ok {
		s.stream = append(s.stream, ins)
	}
	return ins, ok
}

// instrCount counts the instructions one stream entry stands for.
func instrCount(ins cpu.Instr) uint64 {
	if ins.Kind == cpu.KCompute {
		return uint64(ins.N)
	}
	return 1
}

func isMem(ins cpu.Instr) bool {
	return ins.Kind == cpu.KLoad || ins.Kind == cpu.KStore || ins.Kind == cpu.KRMW
}

// layerTotals accumulates the traced run's counts over the mix; per-run
// metrics divide by runs.
type layerTotals struct {
	runs                                int
	instrs, memInstrs                   uint64
	simCycles                           uint64
	gcCPU, totCPU                       float64
	cpuTicks, cpuRetired, cpuRecorded   uint64
	cpuCycles, cpuStallCycles, robStall uint64
	cacheAccesses, cacheHits            uint64
	mem                                 memTotals
}

// traceMix runs each case of the mix once more with spans at the layer
// boundaries, checks it against its reference, and replays its
// recorded streams through the cpu, cache and memory-side layers.
func traceMix(cases []simCase, refs []string, o runOpts, tp *timedPhase, rep *report) {
	zeroLayers(rep)
	tr := newTracer(int(numSpans), nil)
	var tot layerTotals
	var traced float64 // seconds of the traced simulations in reference-host time, replays excluded
	for i, c := range cases {
		rep.attempted++
		var recs []*recordingSource
		hooks := simHooks{wrap: func(core int, src cpu.InstrSource) cpu.InstrSource {
			r := &recordingSource{src: src, tr: tr}
			recs = append(recs, r)
			return r
		}}
		clk := newRefClock()
		before := readMetrics(mGCCPU, mTotCPU)
		r, err := simulate(c, o.seed, hooks)
		after := readMetrics(mGCCPU, mTotCPU)
		f := clk.next()
		if err != nil {
			rep.fail("%s: traced run: %v", c, err)
			continue
		}
		if r.print != refs[i] {
			rep.fail("%s: traced fingerprint %s differs from the checked reference %s", c, r.print, refs[i])
		}
		tot.runs++
		traced += f * (r.cpuSetup + r.cpuRun).Seconds()
		tr.stats[spanProgram].add(r.program)
		tr.stats[spanNewSystem].add(r.boot)
		tr.stats[spanRun].add(r.run)
		tot.simCycles += r.res.Cycles
		tot.gcCPU += after[0] - before[0]
		tot.totCPU += after[1] - before[1]
		streams := make([][]cpu.Instr, len(recs))
		var recorded uint64
		for k, s := range recs {
			streams[k] = s.stream
			for _, ins := range s.stream {
				recorded += instrCount(ins)
				if isMem(ins) {
					tot.memInstrs++
				}
			}
		}
		tot.instrs += recorded
		if recorded != r.res.Retired {
			rep.fail("%s: recorded %d instructions, the run retired %d", c, recorded, r.res.Retired)
		}
		replayCPU(streams, tr, &tot)
		replayCache(streams, tr, &tot)
		if err := replayMemory(c.proto, streams, tr, &tot.mem); err != nil {
			rep.fail("%s: memory-side replay: %v", c, err)
		}
	}
	if tot.runs == 0 {
		return
	}
	n := float64(tot.runs)
	untracedMix := tp.mixSeconds()
	rep.set("bench.trace_overhead_pct", 100*(traced-untracedMix)/untracedMix)
	rep.note("traced mix simulated in %.3f s, untraced mix %.3f s (reference-host CPU time)", traced, untracedMix)

	rep.set("workload.next_ns", tr.selfNsPerCall(spanNext))
	rep.set("workload.instrs", float64(tot.instrs)/n)
	rep.set("workload.mem_frac", ratio(tot.memInstrs, tot.instrs))
	rep.set("workload.program_ms", float64(tr.stats[spanProgram].total)/1e6/n)
	rep.set("machine.newsystem_ms", float64(tr.stats[spanNewSystem].total)/1e6/n)
	// Every Next call happens inside Run: the machine's self time is
	// Run minus the workload's spans.
	runSelf := float64(tr.stats[spanRun].total - tr.stats[spanNext].total)
	rep.set("machine.run_ms", runSelf/1e6/n)
	rep.set("machine.ns_per_sim_cycle", runSelf/float64(tot.simCycles))
	rep.set("machine.gc_cpu_frac", tot.gcCPU/tot.totCPU)

	rep.set("cpu.tick_ns", tr.selfNsPerCall(spanCPUTick))
	rep.set("cpu.ns_per_instr", float64(tr.stats[spanCPUTick].self)/float64(tot.cpuRetired))
	rep.set("cpu.ticks_per_kinstr", float64(tot.cpuTicks)/(float64(tot.cpuRetired)/1e3))
	rep.set("cpu.mem_stall_frac", ratio(tot.cpuStallCycles, tot.cpuCycles))
	rep.set("cpu.rob_stalls", float64(tot.robStall)/n)

	rep.set("cache.lookup_ns", float64(tr.stats[spanCacheStream].self)/float64(tot.cacheAccesses))
	rep.set("cache.accesses", float64(tot.cacheAccesses)/n)
	rep.set("cache.hit_ratio", ratio(tot.cacheHits, tot.cacheAccesses))

	tot.mem.report(tr, n, rep)
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"cpu", ratio(tot.cpuRetired, tot.cpuRecorded)},
		{"cache", ratio(tot.cacheAccesses, tot.memInstrs)},
		{"coherence", ratio(tot.mem.completed, tot.mem.recorded)},
		{"mesh (flit)", ratio(tot.mem.flitDelivered, tot.mem.packets)},
	} {
		rep.note("%s replay covered %.6f of the recorded work", c.name, c.v)
		if c.v != 1 {
			rep.fail("%s replay covered %.6f of the recorded work, want 1", c.name, c.v)
		}
	}
}

func (s *spanStat) add(d time.Duration) {
	s.calls++
	s.total += int64(d)
	s.self += int64(d)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// replayLatency is the fixed latency of the cpu replay's memory port:
// the Table III L1 hit time, so the replay times the core model alone.
const replayLatency = 2

// fixedPort completes every request replayLatency cycles after issue.
type fixedPort struct {
	now     *uint64
	pending []portReq
}

type portReq struct {
	at uint64
	r  *coherence.MemRequest
}

func (p *fixedPort) Access(r *coherence.MemRequest) {
	p.pending = append(p.pending, portReq{at: *p.now + replayLatency, r: r})
}

// streamSource replays a recorded stream, ignoring the values the core
// feeds back (a spin loop replays the iterations it took when recorded).
type streamSource struct {
	ins []cpu.Instr
	i   int
}

func (s *streamSource) Next(uint64, bool) (cpu.Instr, bool) {
	if s.i == len(s.ins) {
		return cpu.Instr{}, false
	}
	s.i++
	return s.ins[s.i-1], true
}

// stallCounter counts the ROB-stall episodes a core reports.
type stallCounter struct{ n uint64 }

func (s *stallCounter) Emit(e obs.Event) {
	if e.Kind == obs.EvROBStall {
		s.n++
	}
}

// replayCPU drives each core's recorded stream through a fresh
// cpu.Core, skipping the cycles NeedsTick/NextWake say it sleeps.
func replayCPU(streams [][]cpu.Instr, tr *tracer, tot *layerTotals) {
	stalls := &stallCounter{}
	cfg := cpu.DefaultConfig()
	cfg.Trace = stalls
	for id, s := range streams {
		var now uint64
		port := &fixedPort{now: &now}
		core := cpu.New(id, cfg, &streamSource{ins: s}, port)
		for _, ins := range s {
			tot.cpuRecorded += instrCount(ins)
		}
		for now = 1; !core.Done() && now < replayLimit; now++ {
			due := port.pending[:0]
			for _, p := range port.pending {
				if p.at <= now {
					p.r.Done(now, p.r.Value)
				} else {
					due = append(due, p)
				}
			}
			port.pending = due
			if core.NeedsTick(now) {
				tr.begin(spanCPUTick)
				core.Tick(now)
				tr.end()
				tot.cpuTicks++
				continue
			}
			next := core.NextWake()
			for _, p := range port.pending {
				next = min(next, p.at)
			}
			if next > now+1 {
				now = next - 1
			}
		}
		tot.cpuRetired += core.Stats.Retired
		tot.cpuCycles += core.Stats.Cycles
		tot.cpuStallCycles += core.Stats.MemStallCycles
	}
	tot.robStall += stalls.n
}

// replayCache drives each core's recorded line stream through an
// L1-geometry cache (Table III: 64 KB, 2-way), installing on a miss.
func replayCache(streams [][]cpu.Instr, tr *tracer, tot *layerTotals) {
	var words [addrspace.WordsPerLine]uint64
	for _, s := range streams {
		c := cache.New(cache.Config{SizeBytes: 64 << 10, Ways: 2})
		var accesses, hits uint64
		tr.begin(spanCacheStream)
		for _, ins := range s {
			if !isMem(ins) {
				continue
			}
			accesses++
			l := addrspace.LineOf(ins.Addr)
			if c.Touch(l) != nil { // Lookup plus the LRU update an access makes
				hits++
				continue
			}
			if _, ok := c.Victim(l); ok {
				c.Install(l, cache.Shared, words)
			}
		}
		tr.end()
		tot.cacheAccesses += accesses
		tot.cacheHits += hits
	}
}
