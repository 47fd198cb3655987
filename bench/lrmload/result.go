package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// resultDoc is the -out document: where the run happened and every
// workload's phases, gates and metrics.
type resultDoc struct {
	Provenance provenance     `json:"provenance"`
	Workloads  []*workloadRun `json:"workloads"`
}

// provenance says where and how the numbers were measured. Each
// server's kernel tier and dispatch table are in its workload's
// servers list: the calibrated table can differ between starts.
type provenance struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Date       string  `json:"date"`
}

func newProvenance(cfg config) provenance {
	return provenance{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the go command stamped into this binary;
// "unknown" outside a git checkout.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary builds the result line from the BENCHMARK.json metrics of the
// mode: the end-to-end metrics, or with trace the per-layer ones. With
// several workloads each name is prefixed by its workload. A metric
// that could not be measured is left out and makes the line incorrect.
func summary(runs []*workloadRun, trace bool) resultLine {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	line := resultLine{Correct: true, Metrics: map[string]lineMetric{}}
	for _, wr := range runs {
		line.Correct = line.Correct && wr.Correct
		line.Attempted += wr.Attempted
		line.Failed += wr.Failed
		for _, d := range defs {
			v, ok := wr.value(d.name)
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				line.Correct = false
				continue
			}
			name := d.name
			if len(runs) > 1 {
				name = wr.Workload + "." + name
			}
			line.Metrics[name] = lineMetric{Value: v, Unit: d.unit}
		}
	}
	return line
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeSpans writes every workload's spans as JSON lines.
func writeSpans(path string, runs []*workloadRun) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, wr := range runs {
		for _, s := range wr.spans {
			line := struct {
				Workload string `json:"workload"`
				span
			}{wr.Workload, s}
			if err := enc.Encode(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
