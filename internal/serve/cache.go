package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/machine"
)

// SchemaVersion is the on-disk cache schema. It participates in both
// the key derivation and the directory layout (<root>/v<N>/...), so a
// schema bump orphans old entries instead of misreading them: a new
// binary simply never looks inside v<N-1>.
const SchemaVersion = 1

// entryFile is the manifest inside each entry directory. Result holds
// the canonical result encoding verbatim (see EncodeResult), the same
// bytes the farm streams.
type entryFile struct {
	Schema int             `json:"schema"`
	ID     string          `json:"id"`
	Result json.RawMessage `json:"result"`
}

// Artifact names stored alongside entry.json. The whitelist doubles as
// path-traversal protection on the artifact endpoint.
const (
	ArtifactCSV      = "result.csv"
	ArtifactJSONL    = "trace.jsonl"
	ArtifactPerfetto = "trace.perfetto.json"
)

var artifactNames = map[string]bool{
	ArtifactCSV:      true,
	ArtifactJSONL:    true,
	ArtifactPerfetto: true,
}

// CacheStats counts cache traffic. Corrupt counts entries that failed
// to decode and were evicted; each such read falls back to
// re-simulation, so Corrupt > 0 is survivable but worth alerting on.
// TmpReaped counts crash-orphaned staging directories removed at open;
// GCEvictions counts entries the size-budgeted LRU sweep removed.
type CacheStats struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Fills       uint64 `json:"fills"`
	Corrupt     uint64 `json:"corrupt"`
	TmpReaped   uint64 `json:"tmp_reaped"`
	GCEvictions uint64 `json:"gc_evictions"`
}

// Cache is a content-addressed, disk-backed store of simulation
// results. Entries are immutable once written: a Put stages the whole
// entry in a temp directory and publishes it with a single rename, so
// readers never observe a partial entry and concurrent writers of the
// same key converge on exactly one copy (the rename loser discards its
// staging directory — both wrote identical content anyway, since the
// key is a content address over everything that determines the run).
type Cache struct {
	root     string // <dir>/v<SchemaVersion>
	maxBytes int64  // LRU GC budget; 0 = unbounded

	gcMu sync.Mutex // serializes GC sweeps

	hits        atomic.Uint64
	misses      atomic.Uint64
	fills       atomic.Uint64
	corrupt     atomic.Uint64
	tmpReaped   atomic.Uint64
	gcEvictions atomic.Uint64
}

// OpenCache opens (creating if needed) a result cache rooted at dir.
// Staging directories orphaned by a crash between write and rename
// (".tmp-*") are reaped here: they were never published, so nothing
// ever read them, and leaving them would leak disk forever.
func OpenCache(dir string) (*Cache, error) {
	root := filepath.Join(dir, fmt.Sprintf("v%d", SchemaVersion))
	if err := os.MkdirAll(root, 0o777); err != nil {
		return nil, fmt.Errorf("serve: open cache: %w", err)
	}
	c := &Cache{root: root}
	entries, _ := os.ReadDir(root)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			if os.RemoveAll(filepath.Join(root, e.Name())) == nil {
				c.tmpReaped.Add(1)
			}
		}
	}
	return c, nil
}

// SetMaxBytes sets the LRU GC budget (0 disables). Call before traffic;
// each fill then triggers a sweep that evicts least-recently-accessed
// entries until the cache fits.
func (c *Cache) SetMaxBytes(n int64) { c.maxBytes = n }

// Dir returns the versioned cache root.
func (c *Cache) Dir() string { return c.root }

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Fills:       c.fills.Load(),
		Corrupt:     c.corrupt.Load(),
		TmpReaped:   c.tmpReaped.Load(),
		GCEvictions: c.gcEvictions.Load(),
	}
}

// dirFor shards entries by the first hash byte to keep directory
// fan-out sane on large farms.
func (c *Cache) dirFor(hash string) string {
	return filepath.Join(c.root, hash[:2], hash)
}

func (c *Cache) entryDir(k Key) string { return c.dirFor(k.Hash) }

// Get loads the cached result for k. A missing entry is a plain miss.
// An entry that exists but cannot be decoded — truncated write from a
// crash predating the rename discipline, bit rot, a hand-edited file —
// is counted as Corrupt, evicted, and reported as a miss so the caller
// falls back to re-simulation and the next Put heals the entry.
func (c *Cache) Get(k Key) (*machine.Result, bool) {
	dir := c.entryDir(k)
	data, err := os.ReadFile(filepath.Join(dir, "entry.json"))
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			// Directory exists but the manifest is unreadable:
			// treat as corruption, not a plain miss.
			c.evict(dir)
		}
		c.misses.Add(1)
		return nil, false
	}
	res, err := decodeEntry(data)
	if err != nil {
		c.evict(dir)
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	c.touch(dir)
	return res, true
}

// touch stamps the entry's last access (the mtime of entry.json) so
// the LRU GC sweep evicts cold entries first. Best-effort: a failed
// stamp only makes the entry look older than it is.
func (c *Cache) touch(dir string) {
	now := time.Now()
	os.Chtimes(filepath.Join(dir, "entry.json"), now, now)
}

// evict removes a corrupt entry so the next Put can heal it.
func (c *Cache) evict(dir string) {
	c.corrupt.Add(1)
	os.RemoveAll(dir)
}

// Put stores the result for k, along with any extra artifacts
// (name -> content; names must be from the artifact whitelist). The
// entry is staged in a temp dir under the cache root (same filesystem,
// so the final rename is atomic) and published with one rename.
func (c *Cache) Put(k Key, res *machine.Result, artifacts map[string][]byte) error {
	raw, err := EncodeResult(res)
	if err != nil {
		return fmt.Errorf("serve: encode result: %w", err)
	}
	// Compact on purpose: MarshalIndent would re-indent the embedded
	// RawMessage and break byte-identity with EncodeResult.
	entry, err := json.Marshal(entryFile{Schema: SchemaVersion, ID: k.ID, Result: raw})
	if err != nil {
		return fmt.Errorf("serve: encode entry: %w", err)
	}
	files := map[string][]byte{"entry.json": append(entry, '\n')}
	for name, data := range artifacts {
		if !artifactNames[name] {
			return fmt.Errorf("serve: artifact name %q not in whitelist", name)
		}
		files[name] = data
	}
	return c.publish(k.Hash, files)
}

// publish stages files in a temp dir and swaps them in as the entry
// for hash with one rename, then fsyncs so the publish survives power
// loss (a rename alone is only atomic, not durable — the metadata can
// still be sitting in the page cache when the power goes).
func (c *Cache) publish(hash string, files map[string][]byte) error {
	tmp, err := os.MkdirTemp(c.root, ".tmp-"+hash[:8]+"-")
	if err != nil {
		return fmt.Errorf("serve: stage entry: %w", err)
	}
	defer os.RemoveAll(tmp) // no-op after a successful rename
	for name, data := range files {
		if err := writeFileSync(filepath.Join(tmp, name), data); err != nil {
			return fmt.Errorf("serve: stage %s: %w", name, err)
		}
	}

	dir := c.dirFor(hash)
	if err := os.MkdirAll(filepath.Dir(dir), 0o777); err != nil {
		return fmt.Errorf("serve: shard dir: %w", err)
	}
	if err := os.Rename(tmp, dir); err != nil {
		// The entry already exists: either a concurrent writer of the
		// same key (identical content — the key is a content address)
		// or an artifact upgrade replacing a plain entry. Retire the
		// old directory and swap ours in; any winner is valid. A
		// reader racing the swap can observe a miss, which safely
		// degrades to re-simulation.
		old := tmp + ".old"
		yanked := os.Rename(dir, old) == nil
		if err := os.Rename(tmp, dir); err != nil {
			if yanked && os.Rename(old, dir) != nil {
				// Restore lost too: a concurrent writer re-published
				// while we held the yank. Its content is identical
				// (content address), so the yanked copy is junk.
				os.RemoveAll(old)
			}
			if _, statErr := os.Stat(filepath.Join(dir, "entry.json")); statErr == nil {
				return nil // a concurrent writer won; same content
			}
			return fmt.Errorf("serve: publish entry: %w", err)
		}
		if yanked {
			os.RemoveAll(old)
		}
	}
	// Make the rename itself durable: fsync the shard directory that
	// now references the entry (and the entry dir for its file links).
	syncDir(dir)
	syncDir(filepath.Join(dir, "entry.json"))
	c.fills.Add(1)
	c.maybeGC()
	return nil
}

// writeFileSync writes data and fsyncs before closing, so a published
// entry's content is on stable storage, not just in the page cache.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// decodeEntry validates raw entry.json bytes — schema, manifest shape,
// and that the embedded result decodes — returning the result. Every
// read of an entry goes through it, so a corrupt entry never reaches a
// client.
func decodeEntry(data []byte) (*machine.Result, error) {
	var e entryFile
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("serve: entry manifest: %w", err)
	}
	if e.Schema != SchemaVersion {
		return nil, fmt.Errorf("serve: entry schema %d, want %d", e.Schema, SchemaVersion)
	}
	if len(e.Result) == 0 {
		return nil, errors.New("serve: entry has no result")
	}
	var res machine.Result
	if err := json.Unmarshal(e.Result, &res); err != nil {
		return nil, fmt.Errorf("serve: entry result: %w", err)
	}
	return &res, nil
}

// RawEntry returns the verbatim entry.json bytes for a run hash — the
// body of GET /api/v1/runs/{hash}/entry. The bytes are validated before
// they are served; a corrupt entry is evicted and reported as missing,
// exactly as in Get.
func (c *Cache) RawEntry(hash string) ([]byte, bool) {
	dir := c.dirFor(hash)
	data, err := os.ReadFile(filepath.Join(dir, "entry.json"))
	if err != nil {
		return nil, false
	}
	if _, err := decodeEntry(data); err != nil {
		c.evict(dir)
		return nil, false
	}
	c.touch(dir)
	return data, true
}

// HasEntry reports whether a published entry exists for hash.
func (c *Cache) HasEntry(hash string) bool {
	_, err := os.Stat(filepath.Join(c.dirFor(hash), "entry.json"))
	return err == nil
}

// maybeGC runs a sweep when a budget is configured.
func (c *Cache) maybeGC() {
	if c.maxBytes > 0 {
		c.GC(c.maxBytes)
	}
}

// GC evicts least-recently-accessed entries until the cache's total
// size fits maxBytes. Access time is the entry.json mtime maintained
// by touch(); ties and missing stamps degrade to eviction-by-path,
// which is deterministic if arbitrary. Returns entries evicted and
// bytes freed.
func (c *Cache) GC(maxBytes int64) (evicted int, freed int64) {
	c.gcMu.Lock()
	defer c.gcMu.Unlock()

	type entryInfo struct {
		dir   string
		size  int64
		atime time.Time
	}
	var entries []entryInfo
	var total int64
	shards, _ := os.ReadDir(c.root)
	for _, sh := range shards {
		if !sh.IsDir() || strings.HasPrefix(sh.Name(), ".tmp-") {
			continue
		}
		shardDir := filepath.Join(c.root, sh.Name())
		dirs, _ := os.ReadDir(shardDir)
		for _, e := range dirs {
			if !e.IsDir() || strings.HasPrefix(e.Name(), ".tmp-") {
				continue
			}
			dir := filepath.Join(shardDir, e.Name())
			info := entryInfo{dir: dir}
			files, _ := os.ReadDir(dir)
			for _, f := range files {
				if fi, err := f.Info(); err == nil {
					info.size += fi.Size()
					if f.Name() == "entry.json" {
						info.atime = fi.ModTime()
					}
				}
			}
			entries = append(entries, info)
			total += info.size
		}
	}
	if total <= maxBytes {
		return 0, 0
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].atime.Equal(entries[j].atime) {
			return entries[i].atime.Before(entries[j].atime)
		}
		return entries[i].dir < entries[j].dir
	})
	for _, e := range entries {
		if total <= maxBytes {
			break
		}
		if err := os.RemoveAll(e.dir); err != nil {
			continue
		}
		total -= e.size
		freed += e.size
		evicted++
		c.gcEvictions.Add(1)
	}
	return evicted, freed
}

// SizeBytes sums the on-disk size of all published entries.
func (c *Cache) SizeBytes() int64 {
	var total int64
	shards, _ := os.ReadDir(c.root)
	for _, sh := range shards {
		if !sh.IsDir() || strings.HasPrefix(sh.Name(), ".tmp-") {
			continue
		}
		filepath.WalkDir(filepath.Join(c.root, sh.Name()), func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				if fi, err := d.Info(); err == nil {
					total += fi.Size()
				}
			}
			return nil
		})
	}
	return total
}

// Artifact returns the named artifact for k, or fs.ErrNotExist.
func (c *Cache) Artifact(k Key, name string) ([]byte, error) {
	if !artifactNames[name] || strings.ContainsAny(name, "/\\") {
		return nil, fmt.Errorf("serve: artifact name %q not in whitelist: %w", name, fs.ErrNotExist)
	}
	return os.ReadFile(filepath.Join(c.entryDir(k), name))
}

// HasArtifacts reports whether the entry for k carries trace
// artifacts. Entries written by plain (non-artifact) runs only hold
// entry.json + result.csv; an artifact request must re-run traced even
// on a result hit.
func (c *Cache) HasArtifacts(k Key) bool {
	_, err := os.Stat(filepath.Join(c.entryDir(k), ArtifactJSONL))
	return err == nil
}

// Len counts the entries currently on disk (test and stats helper).
func (c *Cache) Len() int {
	n := 0
	shards, _ := os.ReadDir(c.root)
	for _, sh := range shards {
		if !sh.IsDir() || strings.HasPrefix(sh.Name(), ".tmp-") {
			continue
		}
		entries, _ := os.ReadDir(filepath.Join(c.root, sh.Name()))
		for _, e := range entries {
			if e.IsDir() && !strings.HasPrefix(e.Name(), ".tmp-") {
				n++
			}
		}
	}
	return n
}

// EncodeResult is the canonical JSON encoding of a simulation result —
// the single encoding used for cache entries, stream lines and
// byte-identity checks. machine.Result's marshalers avoid map
// iteration, so encoding is deterministic: encode(decode(encode(x)))
// == encode(x), byte for byte.
func EncodeResult(res *machine.Result) ([]byte, error) {
	return json.Marshal(res)
}

// runnerCache adapts the disk cache to exp.ResultCache so the runner's
// memo layer consults it on a memo miss and writes back after each
// fresh simulation. Plain runs store result.csv alongside the manifest
// so every cached run has at least one fetchable artifact.
type runnerCache struct {
	cache *Cache
}

func (rc runnerCache) Get(k exp.RunKey) (*machine.Result, bool) {
	key, err := KeyForRun(k)
	if err != nil {
		return nil, false
	}
	return rc.cache.Get(key)
}

func (rc runnerCache) Put(k exp.RunKey, res *machine.Result) {
	key, err := KeyForRun(k)
	if err != nil {
		return
	}
	// Best effort: a failed fill degrades to re-simulation later.
	_ = rc.cache.Put(key, res, map[string][]byte{
		ArtifactCSV: resultCSV(k, res),
	})
}
