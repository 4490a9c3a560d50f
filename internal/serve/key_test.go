package serve

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/exp"
	"repro/internal/workload"
)

// TestProfileCanonicalCoversAllFields is the drift guard for the
// profile half of the cache key: every field of workload.Profile must
// be consumed by the canonical encoder. Add a field to Profile without
// teaching profileCanonical about it and this test names the omission
// — otherwise two workloads differing only in the new field would
// silently share a cache entry.
func TestProfileCanonicalCoversAllFields(t *testing.T) {
	covered := map[string]bool{}
	for _, p := range profileCanonicalPaths() {
		if covered[p] {
			t.Errorf("profileCanonical encodes %s twice", p)
		}
		covered[p] = true
	}
	typ := reflect.TypeOf(workload.Profile{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if !covered[name] {
			t.Errorf("workload.Profile.%s is not in the canonical profile encoding; add it to appendProfileCanonical (internal/serve/key.go) so it participates in the cache key", name)
		}
		delete(covered, name)
	}
	for p := range covered {
		t.Errorf("profileCanonical encodes %q which is not a workload.Profile field", p)
	}
}

func testRunKey(t *testing.T) exp.RunKey {
	t.Helper()
	prof, ok := workload.ByName("water-spa")
	if !ok {
		t.Fatal("water-spa profile missing")
	}
	return exp.RunKey{Protocol: coherence.WiDir, Cores: 16, App: prof.Scale(0.05), Seed: 7}
}

// TestKeyDeterministic: the same run always hashes to the same key.
func TestKeyDeterministic(t *testing.T) {
	k := testRunKey(t)
	a, err := KeyForRun(k)
	if err != nil {
		t.Fatal(err)
	}
	b, err := KeyForRun(k)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same run, different keys: %+v vs %+v", a, b)
	}
	if len(a.Hash) != 64 {
		t.Fatalf("hash %q is not 64 hex chars", a.Hash)
	}
	if !strings.Contains(a.ID, "widir") || !strings.Contains(a.ID, "water-spa") {
		t.Fatalf("ID %q should name the protocol and app", a.ID)
	}
}

// TestKeySeparates: every component of the run identity must move the
// hash.
func TestKeySeparates(t *testing.T) {
	base := testRunKey(t)
	baseKey, err := KeyForRun(base)
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(k exp.RunKey) exp.RunKey{
		"protocol": func(k exp.RunKey) exp.RunKey { k.Protocol = coherence.Baseline; return k },
		"cores":    func(k exp.RunKey) exp.RunKey { k.Cores = 32; return k },
		"seed":     func(k exp.RunKey) exp.RunKey { k.Seed++; return k },
		"profile-scale": func(k exp.RunKey) exp.RunKey {
			prof, _ := workload.ByName("water-spa")
			k.App = prof.Scale(0.1)
			return k
		},
		"app": func(k exp.RunKey) exp.RunKey {
			prof, ok := workload.ByName("radiosity")
			if !ok {
				t.Fatal("radiosity profile missing")
			}
			k.App = prof.Scale(0.05)
			return k
		},
	}
	for name, mut := range mutations {
		k, err := KeyForRun(mut(base))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k.Hash == baseKey.Hash {
			t.Errorf("changing %s did not change the key hash", name)
		}
	}
}

// TestRunSpecResolveMatchesSweep: a spec resolves to exactly the
// RunKey the exp layer builds for the same sweep parameters, so the
// HTTP path and the library path share cache entries.
func TestRunSpecResolveMatchesSweep(t *testing.T) {
	spec := RunSpec{Protocol: "widir", App: "water-spa", Cores: 16, Scale: 0.05, Seed: 7}
	got, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want := testRunKey(t)
	if got != want {
		t.Fatalf("Resolve() = %+v, want %+v", got, want)
	}
}

// TestRunSpecResolveRejects: malformed specs fail with a useful error
// instead of producing a bogus cache key.
func TestRunSpecResolveRejects(t *testing.T) {
	bad := []RunSpec{
		{Protocol: "token-ring", App: "water-spa", Cores: 16, Scale: 0.05, Seed: 1},
		{Protocol: "widir", App: "no-such-app", Cores: 16, Scale: 0.05, Seed: 1},
		{Protocol: "widir", App: "water-spa", Cores: 0, Scale: 0.05, Seed: 1},
		{Protocol: "widir", App: "water-spa", Cores: 16, Scale: 0, Seed: 1},
		{Protocol: "widir", App: "water-spa", Cores: 16, Scale: 0.05, Seed: 0},
	}
	for _, spec := range bad {
		if _, err := spec.Resolve(); err == nil {
			t.Errorf("spec %+v resolved without error", spec)
		}
	}
}

// TestKeyMemoMatchesDerivation: the memoized KeyForRun returns exactly
// what the uncached derivation computes, on the first call (a memo
// miss) and on every later one (a hit), for every Table IV application
// under both protocols, both evaluation core counts and several seeds.
func TestKeyMemoMatchesDerivation(t *testing.T) {
	for _, app := range workload.Apps() {
		for _, p := range []coherence.Protocol{coherence.Baseline, coherence.WiDir} {
			for _, cores := range []int{16, 64} {
				for _, seed := range []uint64{1, 2, 3, 1 << 40} {
					k := exp.RunKey{Protocol: p, Cores: cores, App: app, Seed: seed}
					want, err := deriveKey(k)
					if err != nil {
						t.Fatal(err)
					}
					for call := 0; call < 2; call++ {
						got, err := KeyForRun(k)
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Fatalf("%s/%s/c%d/s%d call %d: KeyForRun = %+v, derivation = %+v", app.Name, p, cores, seed, call, got, want)
						}
					}
					if _, ok := runKeys.Load(k); !ok {
						t.Fatalf("%s/%s/c%d/s%d: KeyForRun did not memoize the key", app.Name, p, cores, seed)
					}
				}
			}
		}
	}
}
