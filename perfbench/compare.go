package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// readRecords returns the host-stamped records of a saved output.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), recordPrefix)
		if !ok {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: bad record: %w", path, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark records", path)
	}
	return out, sc.Err()
}

// compareFiles prints new/old ratios for every metric two saved
// outputs share. Absolute timings from different hosts are not
// comparable, so it refuses when any two records' host prints differ.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	olds, err := readRecords(oldPath)
	if err != nil {
		return err
	}
	news, err := readRecords(newPath)
	if err != nil {
		return err
	}
	for _, n := range news {
		for _, o := range olds {
			if d := o.Host.diff(n.Host); len(d) > 0 {
				return fmt.Errorf("refusing to compare records from different hosts: %s", strings.Join(d, "; "))
			}
		}
	}
	key := func(r record) string { return fmt.Sprintf("%s seed=%d trace=%v", r.Workload, r.Seed, r.Trace) }
	byKey := map[string]record{}
	for _, o := range olds {
		byKey[key(o)] = o
	}
	for _, n := range news {
		o, ok := byKey[key(n)]
		if !ok {
			continue
		}
		fmt.Fprintln(w, key(n))
		var names []string
		for m := range n.Metrics {
			if _, ok := o.Metrics[m]; ok {
				names = append(names, m)
			}
		}
		sort.Strings(names)
		for _, m := range names {
			ratio := n.Metrics[m] / o.Metrics[m]
			fmt.Fprintf(w, "  %-28s %14.6g -> %-14.6g x%.4f\n", m, o.Metrics[m], n.Metrics[m], ratio)
		}
	}
	return nil
}
