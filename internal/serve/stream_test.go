package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"
)

// encoderLine is the reference a stream line must equal byte for byte:
// what json.Encoder wrote for each line before results were spliced.
func encoderLine(t *testing.T, st RunStatus) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(st); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func writerLine(t *testing.T, st RunStatus) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := newLineWriter().writeLine(&b, st); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// finishedRuns waits for a job to complete and returns its runs.
func finishedRuns(t *testing.T, s *Server, id string) []*run {
	t.Helper()
	j := s.lookupJob(id)
	if j == nil {
		t.Fatalf("no job %s", id)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		if _, done := j.snapshot(); done {
			return j.runs
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamLineMatchesEncoder: the splicing line writer emits exactly
// the bytes json.Encoder.Encode does, for every shape a stream line
// takes — including a result that was read back from the disk cache
// after a restart, and an error string full of characters the encoder
// escapes.
func TestStreamLineMatchesEncoder(t *testing.T) {
	dir := t.TempDir()
	sweep := SweepRequest{Client: "c", Protocols: []string{"widir"}, Apps: []string{"water-spa"}, Cores: 4, Scale: 0.02, Seeds: []uint64{1}}
	traced := sweep
	traced.Artifacts = true
	s, ts := farm(t, dir, 1, 16)
	id, _ := submit(t, ts, sweep)
	sim := finishedRuns(t, s, id)[0]
	id, _ = submit(t, ts, traced)
	tracedSim := finishedRuns(t, s, id)[0]
	for _, r := range []*run{sim, tracedSim} {
		if r.source != "sim" || len(r.result) == 0 {
			t.Fatalf("first farm: source %q, %d result bytes", r.source, len(r.result))
		}
	}

	// A fresh farm over the same directory reads the result from disk,
	// on both the plain and the artifact path.
	s2, ts2 := farm(t, dir, 1, 16)
	id, _ = submit(t, ts2, sweep)
	disk := finishedRuns(t, s2, id)[0]
	id, _ = submit(t, ts2, traced)
	tracedDisk := finishedRuns(t, s2, id)[0]
	for _, r := range []*run{disk, tracedDisk} {
		if r.source != "cache" {
			t.Fatalf("restarted farm served a run from %q, want cache", r.source)
		}
		if !bytes.Equal(r.result, sim.result) {
			t.Fatal("a disk-served result differs from the simulated one")
		}
	}

	failed := *sim
	failed.state = runFailed
	failed.errMsg = "bad <spec> & more\u2028 \u2029 \"quoted\" \\ \x01"
	failed.result = nil

	cases := map[string]RunStatus{
		"pending":        runStatus(sim, false, true),
		"done":           runStatus(sim, true, true),
		"done-no-result": runStatus(sim, true, false),
		"failed":         runStatus(&failed, true, true),
		"disk":           runStatus(disk, true, true),
		"disk-artifacts": runStatus(tracedDisk, true, true),
	}
	seq0 := runStatus(sim, true, true)
	seq0.Seq = 0
	cases["seq-0"] = seq0
	for name, st := range cases {
		want, got := encoderLine(t, st), writerLine(t, st)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: line writer wrote\n%s\njson.Encoder writes\n%s", name, got, want)
		}
	}
}

// streamBytes reads a job's whole stream verbatim.
func streamBytes(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSharedResultBytesStayIntact: every run of one key shares a single
// capacity-clipped encoding, and nothing another job does — failing,
// or having its stream cut mid-way — changes the bytes other jobs
// stream.
func TestSharedResultBytesStayIntact(t *testing.T) {
	dir := t.TempDir()
	spec := RunSpec{Protocol: "widir", App: "water-spa", Cores: 4, Scale: 0.02, Seed: 1}
	bogus := spec
	bogus.App = "bogus"

	// The failing job: a journal left by a crashed farm, holding the
	// shared key and a spec that no longer resolves. It replays first,
	// so its run is the one that encodes the shared bytes.
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	wal, _, err := openJournal(filepath.Join(cache.Dir(), "queue.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.appendAccept("job-000001", "c", []RunSpec{spec, bogus}); err != nil {
		t.Fatal(err)
	}
	wal.Close()

	s, ts := farm(t, dir, 1, 16)
	sweep := SweepRequest{Client: "c", Protocols: []string{spec.Protocol}, Apps: []string{spec.App}, Cores: spec.Cores, Scale: spec.Scale, Seeds: []uint64{spec.Seed}}
	idA, _ := submit(t, ts, sweep)
	idB, _ := submit(t, ts, sweep)
	a, b := finishedRuns(t, s, idA)[0], finishedRuns(t, s, idB)[0]
	if a.state != runDone || b.state != runDone {
		t.Fatalf("runs: %v (%s), %v (%s)", a.state, a.errMsg, b.state, b.errMsg)
	}
	if &a.result[0] != &b.result[0] {
		t.Fatal("two runs of one key hold separate copies of the result")
	}
	if cap(a.result) != len(a.result) {
		t.Fatalf("shared result slice has cap %d > len %d: an append would write into it", cap(a.result), len(a.result))
	}
	streamA, streamB := streamBytes(t, ts, idA), streamBytes(t, ts, idB)
	var stA, stB RunStatus
	if err := json.Unmarshal(streamA, &stA); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(streamB, &stB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stA.Result, stB.Result) {
		t.Fatal("two jobs of one key streamed different result bytes")
	}

	// The failed job streams its error line and its shared result.
	failed := finishedRuns(t, s, "job-000001")
	if failed[0].state != runDone || failed[1].state != runFailed {
		t.Fatalf("replayed job: %v, %v", failed[0].state, failed[1].state)
	}
	if &failed[0].result[0] != &a.result[0] {
		t.Fatal("the replayed run does not share the result bytes")
	}
	streamBytes(t, ts, "job-000001")

	// The cancelled job: the client reads one line and hangs up.
	sweep.Seeds = []uint64{spec.Seed, 2}
	idC, _ := submit(t, ts, sweep)
	finishedRuns(t, s, idC)
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/api/v1/jobs/"+idC+"/stream", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bufio.NewReader(resp.Body).ReadBytes('\n'); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	if again := streamBytes(t, ts, idA); !bytes.Equal(again, streamA) {
		t.Fatalf("job A's stream changed:\n%s\nwas\n%s", again, streamA)
	}
	if again := streamBytes(t, ts, idB); !bytes.Equal(again, streamB) {
		t.Fatalf("job B's stream changed:\n%s\nwas\n%s", again, streamB)
	}
}

// TestStreamReturnsWhenClientLeaves: a stream handler waiting on a
// queued job returns as soon as its client goes away, not when the
// job finally runs. One worker is busy with a long job ahead, so the
// watched job cannot complete while the test cancels its stream.
func TestStreamReturnsWhenClientLeaves(t *testing.T) {
	s, ts := farm(t, t.TempDir(), 1, 64)
	seeds := make([]uint64, 30)
	for i := range seeds {
		seeds[i] = uint64(100 + i)
	}
	submit(t, ts, SweepRequest{Client: "c", Protocols: []string{"widir"}, Apps: []string{"radiosity"}, Cores: 16, Scale: 0.5, Seeds: seeds})
	id, _ := submit(t, ts, SweepRequest{Client: "c", Protocols: []string{"widir"}, Apps: []string{"water-spa"}, Cores: 4, Scale: 0.02, Seeds: []uint64{1}})

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/api/v1/jobs/"+id+"/stream", nil).WithContext(ctx)
	returned := make(chan struct{})
	go func() {
		s.Handler().ServeHTTP(httptest.NewRecorder(), req)
		close(returned)
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	left := time.Now()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("stream handler still blocked 10s after its client left")
	}
	if order, _ := s.lookupJob(id).snapshot(); len(order) != 0 {
		t.Fatalf("stream handler returned %v after its client left, only once the watched job had completed", time.Since(left))
	}
}
