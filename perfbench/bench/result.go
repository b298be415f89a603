// Package bench holds what the end-to-end binary (cmd/e2e) and the traced
// ledger (cmd/ledger) share: seeded input generation, the geomapd process
// harness, the raw-connection load generator, response checks, /proc
// readings and the result line. It reaches the program only through
// stable surfaces (comm graph building, core.Mapper, the service request
// types and the geomapd HTTP API); the probes that call solver internals
// live in cmd/ledger alone.
package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// Args are the flags every benchmark binary takes.
type Args struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    int
	// Build is the directory holding the built binaries and run files,
	// inside the checkout.
	Build string
}

// Window is the timed window the flags ask for.
func (a Args) Window() time.Duration { return time.Duration(a.Seconds * float64(time.Second)) }

// ParseArgs reads the shared flags from the command line.
func ParseArgs() Args {
	var a Args
	flag.StringVar(&a.Workload, "workload", "", "workload name: solve_large, serve_hot or serve_mixed")
	flag.Int64Var(&a.Seed, "seed", 1, "input seed")
	flag.Float64Var(&a.Seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&a.Trace, "trace", 0, "accepted for symmetry with run.sh, which picks the binary from it")
	flag.StringVar(&a.Build, "build", ".bench_build", "directory of the built geomapd and run files")
	flag.Parse()
	return a
}

// Metric is one named measurement of the result line.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Set records a metric.
func (r *Result) Set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]Metric{}
	}
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

// Scaled returns the metrics with every time multiplied by scale, a
// HostScale, and every rate divided by it.
func (r *Result) Scaled(scale float64) *Result {
	out := &Result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed}
	for name, m := range r.Metrics {
		switch m.Unit {
		case "s", "ms":
			m.Value *= scale
		case "1/s":
			m.Value /= scale
		}
		out.Set(name, m.Value, m.Unit)
	}
	return out
}

// Print writes the result as the final JSON line of standard output.
// NaN or infinite values cannot be encoded; they mean a bug, so they fail
// the run instead of printing.
func (r *Result) Print() error {
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(os.Stdout, string(b))
	return err
}

// Info prints one labelled JSON line of context (host, counters, notes)
// to standard output ahead of the result line.
func Info(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "info %s: %v\n", label, err)
		return
	}
	fmt.Printf("%s %s\n", label, b)
}

// Fatal reports err and exits non-zero without a result line.
func Fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// Host describes where a run happened: every result carries it.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Pinning    string `json:"pinning"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

// HostInfo fills Host for this process on a host of nproc cores; run.sh
// exports the commit, or a digest of the sources when the checkout is not
// a git repository.
func HostInfo(nproc int, pinning string) Host {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return Host{
		NProc:      nproc,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Pinning:    pinning,
		GoVersion:  runtime.Version(),
		Commit:     commit,
	}
}

// Ms converts a duration to fractional milliseconds.
func Ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
