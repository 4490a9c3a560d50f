// Command widir-experiments regenerates the paper's evaluation: every
// table and figure of Section VI, printed in the same rows/series the
// paper reports (relative numbers — the reproduction targets the shape
// of the results, not absolute testbed numbers).
//
// Usage:
//
//	widir-experiments                    # everything, full scale
//	widir-experiments -exp fig8 -cores 64
//	widir-experiments -exp table6 -scale 0.5
//
// Experiments: motivation, table4, fig5, fig6, fig7, table5, fig8,
// fig9, fig10, table6, all. Beyond the paper: faultsweep (robustness
// under injected wireless faults; on demand only, like summary).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/fault"
)

func main() {
	var (
		which    = flag.String("exp", "all", "experiment to run (summary,motivation,table4,fig5,fig6,fig7,table5,fig8,fig9,fig10,table6,faultsweep,all)")
		cores    = flag.Int("cores", 64, "core count for single-machine experiments")
		scale    = flag.Float64("scale", 1.0, "workload scale factor")
		seed     = flag.Uint64("seed", 1, "workload seed")
		apps     = flag.String("apps", "", "comma-separated application subset (default: all 20)")
		csv      = flag.Bool("csv", false, "emit machine-readable CSV instead of tables (fig5, fig8, fig10, table6)")
		parallel = flag.Int("parallel", 0, "simulation worker-pool width (0 = GOMAXPROCS)")
		verbose  = flag.Bool("v", false, "report runner memoization counters on stderr when done")
	)
	flag.Parse()

	// One runner for every experiment: simulations fan out across
	// *parallel workers, and the memo shares canonical runs between
	// tables (e.g. -exp all simulates each Baseline app once, not once
	// per table).
	o := exp.Options{Cores: *cores, Scale: *scale, Seed: *seed, Runner: exp.NewRunner(*parallel)}
	if *apps != "" {
		o.Apps = strings.Split(*apps, ",")
	}
	if *verbose {
		// How much the memo actually saved — e.g. -exp all simulates
		// each canonical run once and serves every other table from
		// the memo, which this line makes visible. Closure so the
		// stats are read after the experiments, not at defer time.
		defer func() {
			fmt.Fprintf(os.Stderr, "widir-experiments: runner %s\n", o.Runner.Stats())
		}()
	}

	run := func(name string, fn func() error) {
		// On-demand experiments: summary duplicates the pair runs and
		// faultsweep is not a paper figure, so "all" skips both.
		if (name == "summary" || name == "faultsweep") && *which != name {
			return
		}
		if *which != "all" && *which != name {
			return
		}
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "widir-experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		// Wall-clock timings go to stderr so stdout stays byte-identical
		// run to run (make repro compares it against the checked-in
		// evaluation); the blank line keeps the sections apart.
		fmt.Fprintf(os.Stderr, "[%s took %v]\n", name, time.Since(start).Round(time.Millisecond))
		fmt.Println()
	}

	run("summary", func() error {
		rows, err := exp.Summary(o)
		if err != nil {
			return err
		}
		exp.PrintSummary(os.Stdout, rows)
		return nil
	})
	run("faultsweep", func() error {
		rows, err := exp.FaultSweep(o, []float64{0.01, 0.05, 0.1, 0.25, 0.5}, fault.Config{})
		if err != nil {
			return err
		}
		if *csv {
			exp.CSVFaultSweep(os.Stdout, rows)
			return nil
		}
		exp.PrintFaultSweep(os.Stdout, rows)
		return nil
	})
	run("motivation", func() error {
		m, err := exp.Motivation(o)
		if err != nil {
			return err
		}
		exp.PrintMotivation(os.Stdout, m)
		return nil
	})
	run("table4", func() error {
		rows, err := exp.Table4(o)
		if err != nil {
			return err
		}
		exp.PrintTable4(os.Stdout, rows)
		return nil
	})
	run("fig5", func() error {
		rows, err := exp.Fig5(o)
		if err != nil {
			return err
		}
		if *csv {
			exp.CSVFig5(os.Stdout, rows)
			return nil
		}
		exp.PrintFig5(os.Stdout, rows)
		return nil
	})

	// Figures 6, 7, 8(64) and 9 share one set of pair runs.
	if *which == "all" || *which == "fig6" || *which == "fig7" || *which == "fig9" {
		run("pairs", func() error { return nil }) // spacing only
		start := time.Now()
		rows, err := exp.RunPairs(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "widir-experiments: pairs: %v\n", err)
			os.Exit(1)
		}
		if *which == "all" || *which == "fig6" {
			exp.PrintFig6(os.Stdout, exp.Fig6(rows))
			fmt.Println()
		}
		if *which == "all" || *which == "fig7" {
			exp.PrintFig7(os.Stdout, exp.Fig7(rows))
			fmt.Println()
		}
		if *which == "all" || *which == "fig9" {
			exp.PrintFig9(os.Stdout, exp.Fig9(rows))
			fmt.Println()
		}
		fmt.Fprintf(os.Stderr, "[fig6/fig7/fig9 pair runs took %v]\n", time.Since(start).Round(time.Millisecond))
		fmt.Println()
	}

	run("table5", func() error {
		t, err := exp.Table5(o)
		if err != nil {
			return err
		}
		exp.PrintTable5(os.Stdout, t)
		return nil
	})
	run("fig8", func() error {
		for _, n := range []int{64, 32, 16} {
			oo := o
			oo.Cores = n
			rows, err := exp.RunPairs(oo)
			if err != nil {
				return err
			}
			if *csv {
				exp.CSVFig8(os.Stdout, n, exp.Fig8(rows))
				continue
			}
			exp.PrintFig8(os.Stdout, n, exp.Fig8(rows))
			fmt.Println()
		}
		return nil
	})
	run("fig10", func() error {
		pts, err := exp.Fig10(o, nil)
		if err != nil {
			return err
		}
		if *csv {
			exp.CSVFig10(os.Stdout, pts)
			return nil
		}
		exp.PrintFig10(os.Stdout, pts)
		return nil
	})
	run("table6", func() error {
		rows, err := exp.Table6(o, nil)
		if err != nil {
			return err
		}
		if *csv {
			exp.CSVTable6(os.Stdout, rows)
			return nil
		}
		exp.PrintTable6(os.Stdout, rows)
		return nil
	})
}
