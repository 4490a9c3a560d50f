package serve

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEntryEndpoint pins GET /api/v1/runs/{hash}/entry: a cached entry
// comes back as the verbatim entry.json bytes, an unknown hash is a
// 404, a malformed hash a 400, a corrupt entry is evicted and answers
// 404, and the route takes no writes.
func TestEntryEndpoint(t *testing.T) {
	rk, res := tinyRun(t)
	key, err := KeyForRun(rk)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := farm(t, t.TempDir(), 1, 8)
	c := s.Cache()
	if err := c.Put(key, res, nil); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(filepath.Join(c.Dir(), key.Hash[:2], key.Hash, "entry.json"))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := Key{Hash: fakeHash(7), ID: "corrupt"}
	if err := c.Put(corrupt, res, nil); err != nil {
		t.Fatal(err)
	}
	corruptDir := filepath.Join(c.Dir(), corrupt.Hash[:2], corrupt.Hash)
	if err := os.WriteFile(filepath.Join(corruptDir, "entry.json"), []byte("not json at all"), 0o666); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		method   string
		hash     string
		wantCode int
		wantBody []byte // nil: not checked
	}{
		{"cached", http.MethodGet, key.Hash, http.StatusOK, onDisk},
		{"unknown", http.MethodGet, fakeHash(99), http.StatusNotFound, nil},
		{"short", http.MethodGet, key.Hash[:12], http.StatusBadRequest, nil},
		{"non-hex", http.MethodGet, strings.Repeat("z", 64), http.StatusBadRequest, nil},
		{"corrupt", http.MethodGet, corrupt.Hash, http.StatusNotFound, nil},
		{"put", http.MethodPut, key.Hash, http.StatusMethodNotAllowed, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+"/api/v1/runs/"+tc.hash+"/entry", bytes.NewReader(onDisk))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("%s %s: %s (%s), want %d", tc.method, tc.name, resp.Status, body, tc.wantCode)
			}
			if tc.wantBody != nil && !bytes.Equal(body, tc.wantBody) {
				t.Fatalf("body is not the on-disk entry.json:\n%s\nvs\n%s", body, tc.wantBody)
			}
		})
	}

	if _, err := os.Stat(corruptDir); !os.IsNotExist(err) {
		t.Fatal("corrupt entry was not evicted")
	}
	if st := c.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt count = %d, want 1", st.Corrupt)
	}
}
