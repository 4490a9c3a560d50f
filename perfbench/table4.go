package main

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/coherence"
	"repro/internal/machine"
)

// table4Row is one application's line of Table IV as the checked-in
// full-scale evaluation prints it: the paper's MPKI and the Baseline
// MPKI this simulator measured at seed 1, both as printed.
type table4Row struct {
	Paper, Measured string
}

// table4Path is the checked-in full-scale evaluation, relative to the
// repository root.
const table4Path = "results/experiments-full-scale.txt"

// table4AtSeed loads Table IV when the run's seed is 1, the seed the
// checked-in evaluation used, and returns nil otherwise.
func table4AtSeed(o runOpts) (map[string]table4Row, error) {
	if o.seed != 1 {
		return nil, nil
	}
	return loadTable4(o.root)
}

// checkTable4 fails the run when a Baseline L1 MPKI, printed to two
// decimals, differs from Table IV's measured column (rows nil: no check).
func checkTable4(rows map[string]table4Row, c simCase, res *machine.Result, rep *report) {
	if rows == nil || c.proto != coherence.Baseline {
		return
	}
	got := fmt.Sprintf("%.2f", res.MPKI())
	if want, ok := rows[c.app.Name]; !ok || want.Measured != got {
		rep.fail("%s: Baseline MPKI %s at seed 1, Table IV of %s says %q", c, got, table4Path, want.Measured)
	}
}

func loadTable4(root string) (map[string]table4Row, error) {
	data, err := os.ReadFile(root + "/" + table4Path)
	if err != nil {
		return nil, err
	}
	return parseTable4(string(data))
}

// parseTable4 extracts the Table IV block: the line starting
// "Table IV:", a header naming both MPKI columns, then one row per
// application up to the first blank or "[" line.
func parseTable4(text string) (map[string]table4Row, error) {
	lines := strings.Split(text, "\n")
	start := -1
	for i, l := range lines {
		if strings.HasPrefix(l, "Table IV:") {
			start = i
			break
		}
	}
	if start < 0 || start+1 >= len(lines) {
		return nil, fmt.Errorf("table IV: block not found")
	}
	if h := lines[start+1]; !strings.Contains(h, "Paper MPKI") || !strings.Contains(h, "Measured MPKI") {
		return nil, fmt.Errorf("table IV: unexpected header %q", h)
	}
	rows := map[string]table4Row{}
	for _, l := range lines[start+2:] {
		if strings.TrimSpace(l) == "" || strings.HasPrefix(l, "[") {
			break
		}
		f := strings.Fields(l)
		if len(f) != 3 {
			return nil, fmt.Errorf("table IV: malformed row %q", l)
		}
		if _, dup := rows[f[0]]; dup {
			return nil, fmt.Errorf("table IV: duplicate row %q", f[0])
		}
		rows[f[0]] = table4Row{Paper: f[1], Measured: f[2]}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("table IV: no rows")
	}
	return rows, nil
}
