// Package serve is the WiDir simulation farm: a long-running HTTP/JSON
// service that executes canonical simulations through exp.Runner and
// persists every result in a content-addressed disk cache, so
// identical sweeps — from any client, any process, any day — are
// served without re-simulating.
//
// The package sits deliberately OUTSIDE the simulator's determinism
// contract (it hosts HTTP handlers, worker goroutines and wall-clock
// concerns; widir-lint's walltime/gonosync rules exempt it), but
// everything it runs goes through the single-threaded deterministic
// simulator, so cached results are byte-identical to fresh serial
// runs. DESIGN.md §16 describes the architecture.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/coherence"
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/workload"
)

// RunSpec names one canonical simulation in client terms. Scale is
// applied to the named application's profile exactly as
// exp.Options.Scale would, so a spec resolves to the same exp.RunKey a
// CLI sweep produces.
type RunSpec struct {
	Protocol  string  `json:"protocol"` // "baseline" or "widir"
	App       string  `json:"app"`
	Cores     int     `json:"cores"`
	Scale     float64 `json:"scale"`
	Seed      uint64  `json:"seed"`
	Artifacts bool    `json:"artifacts,omitempty"` // capture trace artifacts
}

// ParseProtocol maps the wire name to the protocol enum.
func ParseProtocol(s string) (coherence.Protocol, error) {
	switch strings.ToLower(s) {
	case "baseline":
		return coherence.Baseline, nil
	case "widir":
		return coherence.WiDir, nil
	default:
		return 0, fmt.Errorf("unknown protocol %q (want baseline or widir)", s)
	}
}

// Resolve validates the spec and returns the exp.RunKey it denotes.
func (s RunSpec) Resolve() (exp.RunKey, error) {
	p, err := ParseProtocol(s.Protocol)
	if err != nil {
		return exp.RunKey{}, err
	}
	prof, ok := workload.ByName(s.App)
	if !ok {
		return exp.RunKey{}, fmt.Errorf("unknown application %q", s.App)
	}
	if s.Cores <= 0 {
		return exp.RunKey{}, fmt.Errorf("cores %d must be positive", s.Cores)
	}
	if s.Scale <= 0 {
		return exp.RunKey{}, fmt.Errorf("scale %g must be positive", s.Scale)
	}
	if s.Seed == 0 {
		return exp.RunKey{}, fmt.Errorf("seed must be nonzero")
	}
	return exp.RunKey{
		Protocol: p,
		Cores:    s.Cores,
		App:      prof.Scale(s.Scale),
		Seed:     s.Seed,
	}, nil
}

// Key is the content address of one canonical run: a SHA-256 over the
// canonical machine-config encoding (machine.Config.CanonicalString),
// the canonical workload-profile encoding (profileCanonical) and the
// workload seed. ID is a human-readable prefix used in URLs and
// logging; Hash alone addresses storage.
type Key struct {
	ID   string `json:"id"`
	Hash string `json:"hash"`
}

// runKeys memoizes KeyForRun: exp.RunKey -> Key. The key is a pure
// function of the comparable RunKey, so a hit is exact; the memo grows
// with the distinct runs the process has keyed.
var runKeys sync.Map

// KeyForRun returns the content-addressed cache key for a canonical
// run, deriving it (deriveKey) the first time the process sees k.
func KeyForRun(k exp.RunKey) (Key, error) {
	if key, ok := runKeys.Load(k); ok {
		return key.(Key), nil
	}
	key, err := deriveKey(k)
	if err != nil {
		return Key{}, err
	}
	runKeys.Store(k, key)
	return key, nil
}

// deriveKey computes a run's key without the memo. The config
// component is the normalized DefaultConfig for the run's (cores,
// protocol) — exactly the machine exp.Runner.Sim builds.
func deriveKey(k exp.RunKey) (Key, error) {
	cfg := machine.DefaultConfig(k.Cores, k.Protocol)
	confStr, err := cfg.CanonicalString()
	if err != nil {
		return Key{}, fmt.Errorf("serve: config canonical encoding: %w", err)
	}
	var b strings.Builder
	b.WriteString("schema=")
	b.WriteString(strconv.Itoa(SchemaVersion))
	b.WriteString("\n[config]\n")
	b.WriteString(confStr)
	b.WriteString("[profile]\n")
	b.WriteString(profileCanonical(k.App))
	b.WriteString("[run]\nWorkloadSeed=")
	b.WriteString(strconv.FormatUint(k.Seed, 10))
	b.WriteByte('\n')
	sum := sha256.Sum256([]byte(b.String()))
	hash := hex.EncodeToString(sum[:])
	return Key{
		ID:   fmt.Sprintf("%s-%s-c%d-s%d-%s", strings.ToLower(k.Protocol.String()), k.App.Name, k.Cores, k.Seed, hash[:12]),
		Hash: hash,
	}, nil
}

// profileCanonical renders a workload profile as one "field=value"
// line per field, in fixed order — the profile component of the cache
// key. Like machine.Config's canonical encoder it names every field
// explicitly; TestProfileCanonicalCoversAllFields fails when
// workload.Profile grows a field this encoder does not consume, so
// two different workloads can never share a cache entry.
func profileCanonical(p workload.Profile) string {
	var e profCanon
	appendProfileCanonical(&e, &p)
	return e.b.String()
}

type profCanon struct {
	b     strings.Builder
	paths []string
}

func (e *profCanon) field(path, value string) {
	e.paths = append(e.paths, path)
	e.b.WriteString(path)
	e.b.WriteByte('=')
	e.b.WriteString(value)
	e.b.WriteByte('\n')
}

func pitoa(v int) string     { return strconv.Itoa(v) }
func pftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func appendProfileCanonical(e *profCanon, p *workload.Profile) {
	e.field("Name", p.Name)
	e.field("PaperMPKI", pftoa(p.PaperMPKI))
	e.field("Steps", pitoa(p.Steps))
	e.field("ComputePerMem", pitoa(p.ComputePerMem))
	e.field("HotLines", pitoa(p.HotLines))
	e.field("HotAccessFrac", pftoa(p.HotAccessFrac))
	e.field("HotWriteFrac", pftoa(p.HotWriteFrac))
	e.field("MidLines", pitoa(p.MidLines))
	e.field("MidSharers", pitoa(p.MidSharers))
	e.field("MidAccessFrac", pftoa(p.MidAccessFrac))
	e.field("MidWriteFrac", pftoa(p.MidWriteFrac))
	e.field("PrivateWriteFrac", pftoa(p.PrivateWriteFrac))
	e.field("StreamFrac", pftoa(p.StreamFrac))
	e.field("ReuseLines", pitoa(p.ReuseLines))
	e.field("MigLines", pitoa(p.MigLines))
	e.field("MigAccessFrac", pftoa(p.MigAccessFrac))
	e.field("PipeDepth", pitoa(p.PipeDepth))
	e.field("PipeAccessFrac", pftoa(p.PipeAccessFrac))
	e.field("PhaseEvery", pitoa(p.PhaseEvery))
	e.field("LockEvery", pitoa(p.LockEvery))
	e.field("Locks", pitoa(p.Locks))
	e.field("CritAccesses", pitoa(p.CritAccesses))
	e.field("BarrierEvery", pitoa(p.BarrierEvery))
}

// profileCanonicalPaths returns the encoder's field coverage for the
// reflection guard test.
func profileCanonicalPaths() []string {
	var e profCanon
	var p workload.Profile
	appendProfileCanonical(&e, &p)
	return e.paths
}
