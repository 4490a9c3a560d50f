package main

import (
	"fmt"

	"repro/internal/addrspace"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/mesh"
	"repro/internal/stats"
	"repro/internal/wireless"
	"repro/internal/xrand"
)

// The memory-side replay feeds each core's recorded loads, stores and
// RMWs straight into real L1 and home controllers. memEnv is the
// benchmark's own coherence.Env: it routes the controllers' traffic
// into a real packet mesh, wireless channel and event queue, mirroring
// the machine's plumbing, and opens a span around every call into a
// layer so each layer's self time can be read off.

// replayWindow is how many requests a core may have in flight.
const replayWindow = 4

// replayLimit bounds a replay's cycles; a replay that needs more has
// deadlocked.
const replayLimit = 50_000_000

// memEnv implements coherence.Env for the replay.
type memEnv struct {
	now     uint64
	cfg     machine.Config
	space   *addrspace.Space
	mesh    *mesh.Mesh
	wchan   *wireless.Channel
	events  engine.Queue
	l1s     []*coherence.L1Ctrl
	homes   []*coherence.HomeCtrl
	memory  *coherence.MemoryImage
	mcNodes []int
	mcFree  []uint64
	tr      *tracer

	legs     []leg // every packet sent, for the flit-mesh replay
	jams     uint64
	protoErr *coherence.ProtocolError
}

// leg is one recorded mesh packet.
type leg struct {
	at       uint64
	src, dst int
	flits    int
}

var _ coherence.Env = (*memEnv)(nil)

func newMemEnv(proto coherence.Protocol, tr *tracer) *memEnv {
	cfg := machine.DefaultConfig(cores, proto)
	e := &memEnv{
		cfg:    cfg,
		space:  addrspace.NewSpace(cores, cfg.MemControllers),
		memory: coherence.NewMemoryImage(),
		tr:     tr,
		mcFree: make([]uint64, cfg.MemControllers),
	}
	w, h := squarest(cores)
	e.mesh = mesh.New(w, h, e.deliverWired)
	e.wchan = wireless.NewChannel(xrand.New(cfg.Seed ^ 0x9e3779b97f4a7c15))
	e.wchan.Mac = cfg.MAC
	e.wchan.Nodes = cores
	e.wchan.SetBroadcast(e.deliverWireless)
	l1cfg := coherence.L1Config{
		Cache:          cache.Config{SizeBytes: cfg.L1SizeBytes, Ways: cfg.L1Ways},
		Protocol:       proto,
		HitLatency:     cfg.L1Latency,
		RetryDelay:     cfg.RetryDelay,
		UpdateCountMax: cfg.UpdateCountMax,
	}
	homecfg := coherence.HomeConfig{
		Protocol:        proto,
		Scheme:          cfg.DirScheme,
		MaxPointers:     cfg.MaxPointers,
		MaxWiredSharers: cfg.MaxWiredSharers,
		CoarseRegion:    cfg.CoarseRegion,
		Entries:         cfg.LLCEntriesPerSlice,
		LLCLatency:      cfg.LLCLatency,
	}
	for i := 0; i < cores; i++ {
		e.l1s = append(e.l1s, coherence.NewL1(i, l1cfg, e))
		home := coherence.NewHome(i, homecfg, e)
		home.Memory = e.memory
		e.homes = append(e.homes, home)
	}
	for i := 0; i < cfg.MemControllers; i++ {
		e.mcNodes = append(e.mcNodes, i*cores/cfg.MemControllers)
	}
	return e
}

// squarest factors n into the mesh shape the machine picks.
func squarest(n int) (w, h int) {
	h = 1
	for f := 1; f*f <= n; f++ {
		if n%f == 0 {
			h = f
		}
	}
	return n / h, h
}

func (e *memEnv) Now() uint64 { return e.now }

func (e *memEnv) SendWired(src, dst int, port coherence.PortKind, m *coherence.Msg) {
	if port == coherence.PortMC {
		dst = e.mcNodes[e.space.MCOf(m.Line)]
	}
	m.Port = port
	flits := mesh.FlitsFor(m.Bytes())
	e.legs = append(e.legs, leg{at: e.now, src: src, dst: dst, flits: flits})
	e.tr.begin(spanMeshSend)
	e.mesh.Send(e.now, mesh.Packet{Src: src, Dst: dst, Flits: flits, Payload: m})
	e.tr.end()
}

func (e *memEnv) TransmitWireless(sender int, line addrspace.Line, payload any, privileged bool, done func(uint64), abort func(uint64, bool)) func() bool {
	e.tr.begin(spanWirelessTransmit)
	defer e.tr.end()
	return e.wchan.Transmit(wireless.Message{Sender: sender, Line: line, Payload: payload, Privileged: privileged}, done, abort)
}

func (e *memEnv) WirelessActive(l addrspace.Line) bool { return e.wchan.ActiveOn(l) }

func (e *memEnv) Jam(l addrspace.Line, owner int) {
	e.jams++
	e.wchan.Jam(l, owner)
}

func (e *memEnv) Unjam(l addrspace.Line, owner int)  { e.wchan.Unjam(l, owner) }
func (e *memEnv) RaiseTone()                         { e.wchan.RaiseTone() }
func (e *memEnv) LowerTone()                         { e.wchan.LowerTone() }
func (e *memEnv) WaitToneSilent(fn func(now uint64)) { e.wchan.WaitToneSilent(fn) }

func (e *memEnv) After(delay uint64, fn func(uint64)) {
	e.tr.begin(spanEngineAt)
	e.events.At(e.now+delay, fn)
	e.tr.end()
}

func (e *memEnv) AfterRunner(delay uint64, r engine.Runner) {
	e.tr.begin(spanEngineAt)
	e.events.AtRunner(e.now+delay, r)
	e.tr.end()
}

func (e *memEnv) HomeOf(l addrspace.Line) int { return e.space.HomeOf(l) }
func (e *memEnv) MCOf(l addrspace.Line) int   { return e.space.MCOf(l) }
func (e *memEnv) Nodes() int                  { return cores }

func (e *memEnv) ReportProtocolError(p *coherence.ProtocolError) {
	if e.protoErr == nil {
		e.protoErr = p
	}
}

func (e *memEnv) deliverWired(now uint64, pkt mesh.Packet) {
	m := pkt.Payload.(*coherence.Msg)
	switch m.Port {
	case coherence.PortL1:
		e.tr.begin(spanL1Wired)
		e.l1s[pkt.Dst].HandleWired(now, m)
		e.tr.end()
	case coherence.PortHome:
		e.tr.begin(spanHomeWired)
		e.homes[pkt.Dst].HandleWired(now, m)
		e.tr.end()
	case coherence.PortMC:
		e.handleMC(now, m)
	}
}

// deliverWireless fans a broadcast out to every L1, then every home; a
// span covers each fan-out.
func (e *memEnv) deliverWireless(now uint64, msg wireless.Message) {
	e.tr.begin(spanL1Wireless)
	for _, l1 := range e.l1s {
		l1.HandleWireless(now, msg.Sender, msg.Payload)
	}
	e.tr.end()
	e.tr.begin(spanHomeWireless)
	for _, h := range e.homes {
		h.HandleWireless(now, msg.Sender, msg.Payload)
	}
	e.tr.end()
}

// handleMC is the off-chip memory: one service queue per controller
// with the Table III round trip, as in the machine.
func (e *memEnv) handleMC(now uint64, m *coherence.Msg) {
	mc := e.space.MCOf(m.Line)
	start := max(e.mcFree[mc], now)
	e.mcFree[mc] = start + e.cfg.MemServiceInterval
	if m.Type != coherence.MsgMemRead {
		return // writes were committed by the home; timing only
	}
	line, dst := m.Line, m.Requester
	e.events.At(start+e.cfg.MemLatency, func(uint64) {
		resp := &coherence.Msg{Type: coherence.MsgMemData, Line: line, HasData: true, Words: e.memory.ReadLine(line)}
		e.SendWired(e.mcNodes[mc], dst, coherence.PortHome, resp)
	})
}

// memTotals accumulates the memory-side replays of a mix.
type memTotals struct {
	recorded, completed             uint64
	cycles, events                  uint64
	nacks, misses                   uint64
	invs, updates, sToW, wToS, jams uint64
	packets, hops                   uint64
	attempts, collisions            uint64
	flitDelivered                   uint64
	missLat                         *stats.Histogram
}

// replayCore issues one core's recorded memory operations, at most
// replayWindow at a time.
type replayCore struct {
	ops      []cpu.Instr
	next     int
	inflight int
	reqs     []coherence.MemRequest
	free     []int
}

// replayMemory replays the recorded streams of one run through the
// memory side and then replays its packet legs through the flit mesh.
func replayMemory(proto coherence.Protocol, streams [][]cpu.Instr, tr *tracer, tot *memTotals) error {
	e := newMemEnv(proto, tr)
	var want, done uint64
	rcs := make([]*replayCore, len(streams))
	for i, s := range streams {
		rc := &replayCore{reqs: make([]coherence.MemRequest, replayWindow)}
		for _, ins := range s {
			if isMem(ins) {
				rc.ops = append(rc.ops, ins)
			}
		}
		want += uint64(len(rc.ops))
		for k := range rc.reqs {
			rc.free = append(rc.free, k)
			rc.reqs[k].Done = func(uint64, uint64) {
				rc.inflight--
				rc.free = append(rc.free, k)
				done++
			}
		}
		rcs[i] = rc
	}

	tot.recorded += want
	for e.now = 1; done < want; e.now++ {
		if e.now > replayLimit {
			return fmt.Errorf("no progress: %d of %d requests done after %d cycles", done, want, replayLimit)
		}
		tr.begin(spanMeshTick)
		e.mesh.Tick(e.now)
		tr.end()
		if !e.wchan.Idle() {
			tr.begin(spanWirelessTick)
			e.wchan.Tick(e.now)
			tr.end()
		}
		tr.begin(spanEngineRunDue)
		tot.events += uint64(e.events.RunDue(e.now))
		tr.end()
		for id, rc := range rcs {
			for rc.inflight < replayWindow && rc.next < len(rc.ops) {
				ins := rc.ops[rc.next]
				rc.next++
				k := rc.free[len(rc.free)-1]
				rc.free = rc.free[:len(rc.free)-1]
				r := &rc.reqs[k]
				*r = coherence.MemRequest{
					IsWrite: ins.Kind == cpu.KStore, IsRMW: ins.Kind == cpu.KRMW,
					Addr: ins.Addr, Value: ins.Value, Expected: ins.Expected, RMW: ins.RMW,
					Done: r.Done,
				}
				rc.inflight++
				tr.begin(spanL1Access)
				e.l1s[id].Access(r)
				tr.end()
			}
		}
		if e.protoErr != nil {
			return e.protoErr
		}
	}
	tot.completed += done
	tot.cycles += e.now
	if tot.missLat == nil {
		tot.missLat = stats.NewHistogram(coherence.MissLatencyBins...)
	}
	for _, l1 := range e.l1s {
		st := &l1.Stats
		tot.nacks += st.NACKs.Value()
		tot.misses += st.LoadMisses.Value() + st.StoreMisses.Value()
		tot.updates += st.WirelessWrites.Value()
		tot.missLat.Merge(st.MissLatency)
	}
	for _, h := range e.homes {
		tot.invs += h.Stats.Invalidations.Value()
		tot.sToW += h.Stats.SToW.Value()
		tot.wToS += h.Stats.WToS.Value()
	}
	tot.jams += e.jams
	tot.attempts += e.wchan.Attempts.Value()
	tot.collisions += e.wchan.Collisions.Value()
	tot.packets += uint64(len(e.legs))
	for _, l := range e.legs {
		tot.hops += uint64(e.mesh.HopDistance(l.src, l.dst))
	}
	tot.flitDelivered += replayFlits(e.legs, tr)
	return nil
}

// replayFlits injects the recorded legs into a flit-level mesh at their
// recorded cycles and ticks it until every packet has arrived (or the
// cycle bound), returning how many arrived.
func replayFlits(legs []leg, tr *tracer) uint64 {
	var delivered uint64
	w, h := squarest(cores)
	fm := mesh.NewFlitMesh(w, h, 0, func(uint64, mesh.Packet) { delivered++ })
	next := 0
	for now := uint64(1); delivered < uint64(len(legs)) && now < replayLimit; now++ {
		if fm.Pending() == 0 && next < len(legs) && legs[next].at > now {
			now = legs[next].at
		}
		for next < len(legs) && legs[next].at <= now {
			l := legs[next]
			fm.Send(now, mesh.Packet{Src: l.src, Dst: l.dst, Flits: l.flits})
			next++
		}
		tr.begin(spanFlitTick)
		fm.Tick(now)
		tr.end()
	}
	return delivered
}

func (t *memTotals) report(tr *tracer, n float64, rep *report) {
	rep.set("coherence.l1_access_ns", tr.selfNsPerCall(spanL1Access))
	rep.set("coherence.l1_wired_ns", tr.selfNsPerCall(spanL1Wired))
	rep.set("coherence.home_wired_ns", tr.selfNsPerCall(spanHomeWired))
	rep.set("coherence.l1_wireless_ns", tr.selfNsPerCall(spanL1Wireless))
	rep.set("coherence.home_wireless_ns", tr.selfNsPerCall(spanHomeWireless))
	rep.set("coherence.nack_ratio", ratio(t.nacks, t.misses))
	rep.set("coherence.invalidations", float64(t.invs)/n)
	rep.set("coherence.updates", float64(t.updates)/n)
	rep.set("coherence.s_to_w", float64(t.sToW)/n)
	rep.set("coherence.w_to_s", float64(t.wToS)/n)
	if t.missLat != nil {
		rep.set("coherence.miss_lat_p50_cycles", t.missLat.P50())
	}
	rep.set("engine.at_ns", tr.selfNsPerCall(spanEngineAt))
	rep.set("engine.rundue_ns", tr.selfNsPerCall(spanEngineRunDue))
	rep.set("engine.events_per_cycle", ratio(t.events, t.cycles))
	rep.set("mesh.send_ns", tr.selfNsPerCall(spanMeshSend))
	rep.set("mesh.tick_ns", tr.selfNsPerCall(spanMeshTick))
	rep.set("mesh.packets", float64(t.packets)/n)
	rep.set("mesh.hops_mean", ratio(t.hops, t.packets))
	rep.set("mesh.flit_tick_ns", tr.selfNsPerCall(spanFlitTick))
	rep.set("wireless.transmit_ns", tr.selfNsPerCall(spanWirelessTransmit))
	rep.set("wireless.tick_ns", tr.selfNsPerCall(spanWirelessTick))
	rep.set("wireless.attempts", float64(t.attempts)/n)
	rep.set("wireless.collision_ratio", ratio(t.collisions, t.attempts))
	rep.set("wireless.jams", float64(t.jams)/n)
}
