package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/workload"
)

func samples(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the picker must sort
	}
	return xs
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		q, v   float64
		wantOK bool
	}{
		{1000, 0.99, 990, true}, // exactly 10 samples above rank 990
		{999, 0.9, 900, true},   // p99 would leave only 9 beyond
		{100, 0.9, 90, true},
		{99, 0.5, 50, true},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false}, // no rung has 10 beyond: median, flagged
	} {
		q, v, ok := tailPercentile(samples(c.n))
		if q != c.q || v != c.v || ok != c.wantOK {
			t.Errorf("n=%d: got p%g=%g ok=%v, want p%g=%g ok=%v", c.n, 100*q, v, ok, 100*c.q, c.v, c.wantOK)
		}
		if ok {
			beyond := 0
			for _, x := range samples(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond, 100*q)
			}
		}
	}
}

// fakeClock returns the listed instants in order.
func fakeClock(ts ...int64) func() int64 {
	return func() int64 {
		t := ts[0]
		ts = ts[1:]
		return t
	}
}

func TestSelfTimeSubtractsDirectChildren(t *testing.T) {
	const a, b, c, d spanID = 0, 1, 2, 3
	// a [0,100) holds b [10,30) and c [40,45); b holds d [15,25).
	tr := newTracer(4, fakeClock(0, 10, 15, 25, 30, 40, 45, 100))
	tr.begin(a)
	tr.begin(b)
	tr.begin(d)
	tr.end()
	tr.end()
	tr.begin(c)
	tr.end()
	tr.end()
	want := map[spanID][2]int64{a: {100, 75}, b: {20, 10}, c: {5, 5}, d: {10, 10}}
	for id, w := range want {
		st := tr.stats[id]
		if st.calls != 1 || st.total != w[0] || st.self != w[1] {
			t.Errorf("span %d: calls=%d total=%d self=%d, want 1/%d/%d", id, st.calls, st.total, st.self, w[0], w[1])
		}
	}
	if got := tr.selfNsPerCall(a); got != 75 {
		t.Errorf("selfNsPerCall(a) = %g, want 75", got)
	}
	if len(tr.stack) != 0 {
		t.Errorf("%d spans left open", len(tr.stack))
	}
}

func TestHostDiffNamesEachField(t *testing.T) {
	h := hostPrint{CPU: "Xeon", NProc: 2, GOMAXPROCS: 2, Go: "go1.24.0"}
	if d := h.diff(h); len(d) != 0 {
		t.Fatalf("identical prints differ: %v", d)
	}
	o := h
	o.CPU, o.GOMAXPROCS = "EPYC", 1
	d := h.diff(o)
	if len(d) != 2 || !strings.HasPrefix(d[0], "cpu:") || !strings.HasPrefix(d[1], "gomaxprocs:") {
		t.Fatalf("diff = %v, want cpu and gomaxprocs", d)
	}
}

func writeOutput(t *testing.T, dir, name string, h hostPrint, v float64) string {
	t.Helper()
	rec, err := json.Marshal(record{Host: h, Workload: "sharing", Seed: 3, Metrics: map[string]float64{"run_ms_p50": v}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	body := "host: ...\n" + recordPrefix + string(rec) + "\n{\"correct\":true}\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareRefusesAcrossHosts(t *testing.T) {
	dir := t.TempDir()
	h := hostPrint{CPU: "Xeon", NProc: 2, GOMAXPROCS: 2, Go: "go1.24.0"}
	old := writeOutput(t, dir, "old.txt", h, 400)
	same := writeOutput(t, dir, "same.txt", h, 500)
	o := h
	o.Go = "go1.23.0"
	other := writeOutput(t, dir, "other.txt", o, 500)

	var out strings.Builder
	if err := compareFiles(&out, old, same); err != nil {
		t.Fatalf("same host: %v", err)
	}
	if !strings.Contains(out.String(), "x1.2500") {
		t.Errorf("same-host comparison lacks the ratio:\n%s", out.String())
	}
	err := compareFiles(&out, old, other)
	if err == nil || !strings.Contains(err.Error(), "go: go1.24.0 != go1.23.0") {
		t.Fatalf("cross-host comparison: err = %v, want a refusal naming the Go version", err)
	}
}

const table4Sample = `[motivation took 7.274s]

Table IV: evaluated applications characterized by L1 MPKI in Baseline
App           Paper MPKI  Measured MPKI
water-spa     0.49        4.91
radiosity     5.28        11.02
[table4 took 8.617s]
`

func TestParseTable4(t *testing.T) {
	rows, err := parseTable4(table4Sample)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows["radiosity"] != (table4Row{Paper: "5.28", Measured: "11.02"}) {
		t.Fatalf("rows = %v", rows)
	}
	for name, text := range map[string]string{
		"missing block": "Table V: nothing\n",
		"bad header":    "Table IV: x\nApp  MPKI\nfft 1 2\n",
		"short row":     "Table IV: x\nApp Paper MPKI Measured MPKI\nfft 5.05\n",
		"duplicate":     "Table IV: x\nApp Paper MPKI Measured MPKI\nfft 1 2\nfft 1 2\n",
		"no rows":       "Table IV: x\nApp Paper MPKI Measured MPKI\n\n",
	} {
		if _, err := parseTable4(text); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

// The checked-in evaluation must list every profile, with the paper
// column matching the profile's PaperMPKI.
func TestTable4CoversEveryProfile(t *testing.T) {
	rows, err := loadTable4("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range workload.Apps() {
		row, ok := rows[app.Name]
		if !ok {
			t.Errorf("%s: no Table IV row", app.Name)
			continue
		}
		if want := fmt.Sprintf("%.2f", app.PaperMPKI); row.Paper != want {
			t.Errorf("%s: paper MPKI %s, profile says %s", app.Name, row.Paper, want)
		}
	}
}

// BENCHMARK.json must list exactly the metrics the command prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command prints %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != "sharing,farm-warm" {
		t.Errorf("workloads = %v", names)
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			t.Errorf("workload %s has no runner", n)
		}
	}
}

// A small sweep through the real farm: the cold fill simulates, the
// warm phase (with restarts and tracing) serves everything from the
// cache, byte-identical, with no simulation.
func TestFarmWarmPhaseServesFromCache(t *testing.T) {
	req := serve.SweepRequest{Client: "test", Protocols: farmProtos, Apps: farmApps, Cores: 4, Scale: 0.02, Seeds: []uint64{1}}
	f, runs, err := coldFill(t.TempDir(), req)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	served := map[string]servedRun{}
	for _, r := range runs {
		served[r.hash] = r
	}
	rep := newReport()
	m := farmPhase(f, req, served, 300*time.Millisecond, true, rep)
	if rep.failed != 0 {
		t.Fatalf("%d failures: %v", rep.failed, rep.problems)
	}
	if m.runs == 0 || m.runs != len(m.latMS) || m.runner.Sims != 0 {
		t.Fatalf("runs=%d samples=%d sims=%d", m.runs, len(m.latMS), m.runner.Sims)
	}
	if got := m.runner.CacheHits + m.runner.MemoHits; got != uint64(m.runs) {
		t.Errorf("cache+memo hits = %d for %d served runs", got, m.runs)
	}
	if calls := m.tracer.stats[spanSubmit].calls; calls != uint64(m.sweeps) {
		t.Errorf("%d submit spans for %d sweeps", calls, m.sweeps)
	}
}
