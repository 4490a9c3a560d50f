// Command perfbench is the WiDir reproduction's benchmark. It runs one
// workload in this process, one simulation at a time, at 64 cores with
// the Table III defaults and full-scale profiles, checks every output,
// and prints each end-to-end metric by name with its unit. With
// -trace 1 it also times each simulator layer (workload, machine, cpu,
// cache, coherence, engine, mesh, wireless, serve, exp) from the
// benchmark's own code and prints those per-layer metrics instead.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 48, "failed": 0, "metrics": {...}}
//
// The command exits non-zero when any output is wrong. Run it through
// run.sh, which builds it from the checkout's sources:
//
//	bash perfbench/run.sh --workload sharing --seed 3 --seconds 40 --trace 0
//
// A second form compares two saved outputs of the command and refuses
// when they were measured on different hosts:
//
//	perfbench -compare old.txt new.txt
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the reproduction sees, reported
// by every workload with tracing off. BENCHMARK.json lists the same
// names (TestBenchmarkJSONMatches).
var endToEnd = []metricDef{
	{"sim_kinstr_per_s", "kinstr/s"},
	{"run_ms_p50", "ms"},
	{"run_ms_tail", "ms"},
	{"runs_per_s", "1/s"},
	{"allocs_per_kinstr", "count"},
	{"heap_peak_mb", "MB"},
	{"mpki_err", "MPKI"},
	{"collision_err_pp", "pp"},
	{"setup_s", "s"},
}

// report collects one run's outcome.
type report struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
	notes             []string // human-readable lines printed before the result
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// fail counts one failed run and remembers why.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the host-stamped copy of a run's numbers, printed on its
// own line so saved outputs can be compared later (-compare).
type record struct {
	Host     hostPrint          `json:"host"`
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Trace    bool               `json:"trace"`
	Metrics  map[string]float64 `json:"metrics"`
}

const recordPrefix = "record: "

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "workload seed (the profiles were tuned at seed 1)")
		seconds = flag.Int("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		root    = flag.String("root", ".", "repository root")
		compare = flag.Bool("compare", false, "compare two saved outputs: perfbench -compare old new")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: -compare needs two files")
			os.Exit(2)
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || *seed == 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload {%s}, -seed >= 1, -seconds >= 1, -trace 0|1\n", strings.Join(workloadNames(), ","))
		os.Exit(2)
	}
	// One P. The timed phases measure process CPU time, and with more
	// Ps the runtime's idle threads spin each time one goroutine hands
	// work to another (the farm's client and server do so on every
	// request): CPU time that follows the host's load, not the program.
	runtime.GOMAXPROCS(1)
	opts := runOpts{root: *root, seed: *seed, seconds: *seconds, trace: *trace == 1}
	rep, err := run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}

	defs := endToEnd
	if opts.trace {
		defs = perLayer
	}
	host := thisHost()
	fmt.Printf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s\n", host.CPU, host.NProc, host.GOMAXPROCS, host.Go)
	fmt.Printf("workload %s, seed %d, %d s measured, trace %d\n", *name, *seed, *seconds, *trace)
	for _, n := range rep.notes {
		fmt.Println("  " + n)
	}
	out := resultLine{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	rec := record{Host: host, Workload: *name, Seed: *seed, Trace: opts.trace, Metrics: map[string]float64{}}
	complete := true
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok {
			rep.problems = append(rep.problems, "metric "+d.name+" was not measured")
			complete = false
			continue
		}
		fmt.Printf("  %-32s %14.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		rec.Metrics[d.name] = v
	}
	fmt.Printf("  %-32s %14.6g (%d/%d)\n", "failed_frac", float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted)
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL: "+p)
	}
	recJSON, _ := json.Marshal(rec)
	fmt.Println(recordPrefix + string(recJSON))
	out.Correct = complete && rep.failed == 0 && rep.attempted > 0
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// runOpts are the command-line settings every workload receives.
type runOpts struct {
	root    string
	seed    uint64
	seconds int
	trace   bool
}

var workloads = map[string]func(runOpts) (*report, error){
	"sharing":   func(o runOpts) (*report, error) { return runSimWorkload(sharing, o) },
	"farm-warm": runFarm,
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
