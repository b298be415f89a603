// Command ledger is the traced run of the benchmark: for one workload it
// times calls into each layer's exported functions from the benchmark's
// own code, records them as spans (name, start, end, parent), and prints
// the per-layer metrics as the last line of standard output. The spans
// are held in memory and written to .bench_build/trace/ when the run
// ends. It is a separate binary from the end-to-end binary because its
// probes call solver internals (internal/multilevel) that planned
// refactors remove; when they go, only this ledger needs changing.
//
// Every workload prints the same metric names. A layer the workload does
// not exercise reports 0; perfbench/README.md lists which workload fills
// which metric and which end-to-end number each should move.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"geoprocmap/internal/stats"
	"geoprocmap/perfbench/bench"
)

// layerMetrics are the per-layer metrics, in report order, with units.
var layerMetrics = []struct{ name, unit string }{
	{"loadgen.cpu_frac", "ratio"},
	{"loadgen.late_p99_ms", "ms"},
	{"service.decode_us", "us"},
	{"service.fingerprint_us", "us"},
	{"service.encode_us", "us"},
	{"service.hit_us", "us"},
	{"service.problem_ms", "ms"},
	{"service.solve_ms_p50", "ms"},
	{"service.solve_ms_p99", "ms"},
	{"service.wait_ms_p50", "ms"},
	{"service.wait_ms_p99", "ms"},
	{"service.publish_ms", "ms"},
	{"service.hit_ratio", "ratio"},
	{"service.dedup_ratio", "ratio"},
	{"service.solves", "count"},
	{"service.rejected", "count"},
	{"service.timeouts", "count"},
	{"apps.profile_ms", "ms"},
	{"comm.build_ms", "ms"},
	{"comm.edges", "count"},
	{"core.validate_ms", "ms"},
	{"core.group_ms", "ms"},
	{"core.map_ms", "ms"},
	{"core.cost_ms", "ms"},
	{"core.geomap_ms", "ms"},
	{"multilevel.csr_ms", "ms"},
	{"multilevel.solve_ms", "ms"},
	{"multilevel.refine_idle_ms", "ms"},
	{"multilevel.levels", "count"},
	{"multilevel.coarsest_n", "count"},
	{"multilevel.initial_level", "count"},
	{"multilevel.passes", "count"},
	{"multilevel.moves", "count"},
	{"multilevel.swaps", "count"},
	{"multilevel.steps_per_pass", "count"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_per_op", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.span_coverage", "ratio"},
}

func main() {
	a := bench.ParseArgs()
	var (
		l   *ledger
		err error
	)
	switch a.Workload {
	case "solve_large":
		l, err = solveLarge(a)
	case "serve_hot", "serve_mixed":
		l, err = serve(a)
	default:
		err = fmt.Errorf("unknown workload %q", a.Workload)
	}
	if err == nil {
		bench.Info("host", l.host)
		err = l.write(filepath.Join(a.Build, "trace", fmt.Sprintf("%s-seed%d.json", a.Workload, a.Seed)))
	}
	if err != nil {
		bench.Fatal(err)
	}
	res := &bench.Result{Correct: true, Attempted: l.attempted, Failed: l.failed}
	for _, m := range layerMetrics {
		res.Set(m.name, l.metrics[m.name], m.unit)
	}
	if err := res.Print(); err != nil {
		bench.Fatal(err)
	}
}

// span is one timed call into a layer.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Class  string `json:"class,omitempty"`
}

// ledger collects the spans and the metrics of one traced run. Its
// probes run on one goroutine, so it needs no locking.
type ledger struct {
	t0        time.Time
	spans     []span
	open      []int
	metrics   map[string]float64
	notes     map[string]any
	attempted int
	failed    int
	host      bench.Host
}

func newLedger(host bench.Host) *ledger {
	return &ledger{t0: time.Now(), metrics: map[string]float64{}, notes: map[string]any{}, host: host}
}

func (l *ledger) now() int64 { return int64(time.Since(l.t0)) }

// begin opens a span under the innermost open one.
func (l *ledger) begin(name, class string) int {
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{Name: name, ID: len(l.spans), Parent: parent, Start: l.now(), Class: class})
	l.open = append(l.open, len(l.spans)-1)
	return len(l.spans) - 1
}

// end closes span id, which must be the innermost open span, and returns
// its duration.
func (l *ledger) end(id int) time.Duration {
	l.spans[id].End = l.now()
	l.open = l.open[:len(l.open)-1]
	return time.Duration(l.spans[id].End - l.spans[id].Start)
}

// time runs fn inside a span and returns the span's duration.
func (l *ledger) time(name, class string, fn func() error) (time.Duration, error) {
	id := l.begin(name, class)
	err := fn()
	d := l.end(id)
	if err != nil {
		return d, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// probeReps is how often median repeats a request-path probe: one
// distinct request is timed once per repeat and weighted by how often
// the stream sends it, so a single cold call would weigh too much.
const probeReps = 3

// median times fn probeReps times, each in its own span, and returns the
// median duration.
func (l *ledger) median(name, class string, fn func() error) (time.Duration, error) {
	ds := make([]float64, probeReps)
	for i := range ds {
		d, err := l.time(name, class, fn)
		if err != nil {
			return 0, err
		}
		ds[i] = float64(d)
	}
	return time.Duration(stats.Percentile(ds, 50)), nil
}

// selfTime is span id's duration minus the time its children cover;
// children of one span never overlap, since probes run sequentially.
func (l *ledger) selfTime(id int) time.Duration {
	d := l.spans[id].End - l.spans[id].Start
	for _, s := range l.spans[id+1:] {
		if s.Parent == id {
			d -= s.End - s.Start
		}
	}
	return time.Duration(d)
}

// durations returns the durations of every span called name, in ms.
func (l *ledger) durations(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// medianMs sets metric to the median duration of the spans called name.
func (l *ledger) medianMs(metric, name string) {
	if d := l.durations(name); len(d) > 0 {
		l.metrics[metric] = stats.Percentile(d, 50)
	}
}

// write saves the spans, each name's total self time, each name and
// class's median duration, and the notes as JSON.
func (l *ledger) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	self := map[string]float64{}
	byClass := map[string][]float64{}
	for id, s := range l.spans {
		self[s.Name] += float64(l.selfTime(id)) / 1e6
		if s.Class != "" {
			key := s.Name + " " + s.Class
			byClass[key] = append(byClass[key], float64(s.End-s.Start)/1e6)
		}
	}
	classMedian := map[string]float64{}
	for key, d := range byClass {
		classMedian[key] = stats.Percentile(d, 50)
	}
	b, err := json.MarshalIndent(map[string]any{
		"host":               l.host,
		"metrics":            l.metrics,
		"notes":              l.notes,
		"self_ms_total":      self,
		"median_ms_by_class": classMedian,
		"spans":              l.spans,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// rtSample is a reading of the Go runtime's allocation and GC counters.
type rtSample struct {
	allocBytes, gcCycles, gcCPU, totalCPU float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{allocBytes: v(0), gcCycles: v(1), gcCPU: v(2), totalCPU: v(3)}
}

// runtimeDelta accumulates runtime counter deltas over traced ops.
type runtimeDelta struct {
	ops                                   int
	allocBytes, gcCycles, gcCPU, totalCPU float64
}

func (d *runtimeDelta) add(before, after rtSample) {
	d.ops++
	d.allocBytes += after.allocBytes - before.allocBytes
	d.gcCycles += after.gcCycles - before.gcCycles
	d.gcCPU += after.gcCPU - before.gcCPU
	d.totalCPU += after.totalCPU - before.totalCPU
}

func (d *runtimeDelta) report(l *ledger) {
	if d.ops == 0 {
		return
	}
	l.metrics["runtime.alloc_mb_per_op"] = d.allocBytes / float64(d.ops) / (1 << 20)
	l.metrics["runtime.gc_per_op"] = d.gcCycles / float64(d.ops)
	if d.totalCPU > 0 {
		l.metrics["runtime.gc_cpu_frac"] = d.gcCPU / d.totalCPU
	}
}
