package machine

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/coherence"
	"repro/internal/fault"
	"repro/internal/workload"
)

// TestRetentionPathsMatchGolden pins the runs that exercise every
// place a controller keeps a wired message past its handler: requests
// waiting out the LLC latency, requests deferred past a wireless
// transmission, puts deferred behind a busy entry, fills waiting at the
// NIC for a pinned set to free up, and NACK retry timers. Those sites
// copy the message value instead of holding the pooled *Msg, so a
// recycling mistake would show here as a drifted fingerprint or a
// checker failure. The hashes were recorded before message pooling
// landed: a tiny directory (8 entries per slice) forces evictions and
// NACK storms, jitter and link stalls reorder delivery, the value
// checker verifies every load, and the direct-mapped L1 case pins whole
// sets so fills wait at the NIC.
func TestRetentionPathsMatchGolden(t *testing.T) {
	for _, tc := range []struct {
		l1Bytes, l1Ways int
		p               coherence.Protocol
		stats, mem      string
	}{
		{1024, 2, coherence.Baseline, "a6ee357bdbee6a307471a42c7da36385e42eb89491a6ea8f3e811243c7132bff", "ca6fcf4fe5e16a593f3279d4693fc332e08178b833f3dc611e4a330b9a2ef78c"},
		{1024, 2, coherence.WiDir, "363b3281dfe4feea51ca4228435be8c4e1a45613385cc979b0df6c95e569cc44", "027261ae62a76a724b44f2be5d9537b8e88a39194d4bfc651915220b9c168018"},
		{512, 1, coherence.Baseline, "60ddfeac5d6211980b21a633f7b7cee05b1440d35121975cbd9501784a2b72d8", "2a310e5da1711340a36b4103fcf814935c133d0b4158f8fe03767e042342ac3e"},
		{512, 1, coherence.WiDir, "8ee524a44382539291a5894503b2b530b5c5b0385e57a517ccf1af0aba313569", "e9deec3a397262c7184745f4b00e3c77d64253c6425ae4bf0e89e2f88523625c"},
	} {
		name := fmt.Sprintf("%v/l1=%dB-%dway", tc.p, tc.l1Bytes, tc.l1Ways)
		prof, ok := workload.ByName("fmm")
		if !ok {
			t.Fatal("unknown app fmm")
		}
		prof = prof.Scale(0.08)
		cfg := DefaultConfig(16, tc.p)
		cfg.MaxCycles = 100_000_000
		cfg.LLCEntriesPerSlice = 8
		cfg.MessageJitter = 4
		cfg.L1SizeBytes, cfg.L1Ways = tc.l1Bytes, tc.l1Ways
		cfg.EnableChecker = true
		cfg.Fault = fault.Config{Seed: 7, LinkStallPct: 0.05}
		sys, err := NewSystem(cfg, workload.Program(prof, cfg.Nodes, 9))
		if err != nil {
			t.Fatal(err)
		}
		r, err := sys.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(obsFingerprint(r)))); got != tc.stats {
			t.Errorf("%s: stats fingerprint drifted:\n got  %s\n want %s\n fp: %s", name, got, tc.stats, obsFingerprint(r))
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(sys.Memory().Dump()))); got != tc.mem {
			t.Errorf("%s: memory image drifted: %s != %s", name, got, tc.mem)
		}
		var deferred, fillWaits uint64
		for i := 0; i < cfg.Nodes; i++ {
			deferred += sys.Home(i).Stats.DeferredPuts.Value()
			fillWaits += sys.L1(i).Stats.FillWaits.Value()
		}
		if r.NACKs == 0 || deferred == 0 {
			t.Errorf("%s: retention paths not exercised: nacks=%d deferred puts=%d", name, r.NACKs, deferred)
		}
		if tc.l1Ways == 1 && fillWaits == 0 {
			t.Errorf("%s: no fill waited at the NIC", name)
		}
	}
}
