package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/coherence"
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/workload"
)

// simOnce runs one tiny canonical simulation (shared across cache
// tests — the cache layer only needs a real Result to round-trip).
var simOnce struct {
	sync.Once
	key exp.RunKey
	res *machine.Result
}

func tinyRun(t *testing.T) (exp.RunKey, *machine.Result) {
	t.Helper()
	simOnce.Do(func() {
		prof, ok := workload.ByName("water-spa")
		if !ok {
			t.Fatal("water-spa profile missing")
		}
		simOnce.key = exp.RunKey{Protocol: coherence.WiDir, Cores: 4, App: prof.Scale(0.02), Seed: 1}
		res, err := exp.NewRunner(1).Sim(simOnce.key.Protocol, simOnce.key.Cores, simOnce.key.App, simOnce.key.Seed)
		if err != nil {
			t.Fatalf("tiny sim: %v", err)
		}
		simOnce.res = res
	})
	if simOnce.res == nil {
		t.Fatal("tiny sim failed in an earlier test")
	}
	return simOnce.key, simOnce.res
}

// TestCacheRestartRoundTrip: a result put by one Cache instance is
// read back — bit-identical — by a fresh instance over the same
// directory, i.e. the cache survives process death.
func TestCacheRestartRoundTrip(t *testing.T) {
	rk, res := tinyRun(t)
	key, err := KeyForRun(rk)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	c1, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put(key, res, map[string][]byte{ArtifactCSV: resultCSV(rk, res)}); err != nil {
		t.Fatal(err)
	}
	wantRaw, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}

	// "Restart": a brand-new Cache over the same directory.
	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(key)
	if !ok {
		t.Fatal("entry lost across restart")
	}
	entry, ok := c2.RawEntry(key.Hash)
	if !ok {
		t.Fatal("entry.json lost across restart")
	}
	var stored entryFile
	if err := json.Unmarshal(entry, &stored); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored.Result, wantRaw) {
		t.Fatal("stored raw encoding differs from the canonical encoding")
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatal("decoded result differs from the original")
	}
	reRaw, err := EncodeResult(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reRaw, wantRaw) {
		t.Fatal("re-encoding the decoded result is not byte-identical: canonical encoding is unstable")
	}
	if csv, err := c2.Artifact(key, ArtifactCSV); err != nil || len(csv) == 0 {
		t.Fatalf("csv artifact lost across restart: %v", err)
	}
	if c2.Stats().Hits != 1 {
		t.Fatalf("restart read should count one hit, stats = %+v", c2.Stats())
	}
}

// TestCacheCorruptEntryFallsBack: truncated and garbage entries are
// detected, counted, evicted, and reported as misses — the caller
// re-simulates instead of serving junk — and a subsequent Put heals
// the entry.
func TestCacheCorruptEntryFallsBack(t *testing.T) {
	rk, res := tinyRun(t)
	key, err := KeyForRun(rk)
	if err != nil {
		t.Fatal(err)
	}
	corruptions := map[string]func(path string) error{
		"truncated": func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, data[:len(data)/2], 0o666)
		},
		"garbage": func(path string) error {
			return os.WriteFile(path, []byte("not json at all"), 0o666)
		},
		"wrong-schema": func(path string) error {
			return os.WriteFile(path, []byte(`{"schema": 999, "id": "x", "result": {}}`), 0o666)
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			c, err := OpenCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Put(key, res, nil); err != nil {
				t.Fatal(err)
			}
			entry := filepath.Join(c.Dir(), key.Hash[:2], key.Hash, "entry.json")
			if err := corrupt(entry); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get(key); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			st := c.Stats()
			if st.Corrupt != 1 || st.Misses != 1 {
				t.Fatalf("corrupt read should count corrupt=1 miss=1, stats = %+v", st)
			}
			if _, err := os.Stat(filepath.Join(c.Dir(), key.Hash[:2], key.Hash)); !os.IsNotExist(err) {
				t.Fatal("corrupt entry was not evicted")
			}
			// The re-simulation path heals the entry.
			if err := c.Put(key, res, nil); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get(key); !ok {
				t.Fatal("healed entry still missing")
			}
		})
	}
}

// TestCacheConcurrentWriters: many goroutines putting the same key
// leave exactly one entry, no temp-dir litter, and a readable result.
func TestCacheConcurrentWriters(t *testing.T) {
	rk, res := tinyRun(t)
	key, err := KeyForRun(rk)
	if err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const writers = 16
	var wg sync.WaitGroup
	errs := make([]error, writers)
	wg.Add(writers)
	for i := 0; i < writers; i++ {
		go func(i int) {
			defer wg.Done()
			errs[i] = c.Put(key, res, map[string][]byte{ArtifactCSV: resultCSV(rk, res)})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	if n := c.Len(); n != 1 {
		t.Fatalf("%d entries after %d same-key writers, want exactly 1", n, writers)
	}
	// No staging litter left behind by rename losers.
	matches, err := filepath.Glob(filepath.Join(c.Dir(), ".tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("staging dirs leaked: %v", matches)
	}
	if got, ok := c.Get(key); !ok || !reflect.DeepEqual(got, res) {
		t.Fatal("entry unreadable after concurrent writes")
	}
}

// TestCacheMissingIsPlainMiss: an absent entry is a miss, not
// corruption.
func TestCacheMissingIsPlainMiss(t *testing.T) {
	rk, _ := tinyRun(t)
	key, err := KeyForRun(rk)
	if err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on an empty cache")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Corrupt != 0 {
		t.Fatalf("want misses=1 corrupt=0, got %+v", st)
	}
}

// TestCacheRejectsUnknownArtifact: artifact names outside the
// whitelist are refused at Put and at read.
func TestCacheRejectsUnknownArtifact(t *testing.T) {
	rk, res := tinyRun(t)
	key, err := KeyForRun(rk)
	if err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(key, res, map[string][]byte{"../escape": []byte("x")}); err == nil {
		t.Fatal("Put accepted a non-whitelisted artifact name")
	}
	if err := c.Put(key, res, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Artifact(key, "../../etc/passwd"); err == nil {
		t.Fatal("Artifact accepted a traversal path")
	}
}
