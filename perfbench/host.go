package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
)

// hostPrint identifies the machine a record was measured on. Absolute
// timings are only comparable between records with equal prints.
type hostPrint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func thisHost() hostPrint {
	return hostPrint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// diff lists the fields in which two prints differ; empty means the
// records were measured on the same kind of host.
func (h hostPrint) diff(o hostPrint) []string {
	var out []string
	add := func(field string, a, b any) {
		if a != b {
			out = append(out, fmt.Sprintf("%s: %v != %v", field, a, b))
		}
	}
	add("cpu", h.CPU, o.CPU)
	add("nproc", h.NProc, o.NProc)
	add("gomaxprocs", h.GOMAXPROCS, o.GOMAXPROCS)
	add("go", h.Go, o.Go)
	return out
}
