// Command e2e is the end-to-end benchmark binary: it runs one workload
// (solve_large, serve_hot or serve_mixed) untraced for the requested
// window, checks every output after the window, and prints the
// end-to-end metrics as the last line of standard output. It exits
// non-zero without a result line when set-up fails or an output check
// fails. See perfbench/README.md for what each workload is for.
package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"geoprocmap/internal/stats"
	"geoprocmap/perfbench/bench"
)

func main() {
	a := bench.ParseArgs()
	var (
		res *bench.Result
		err error
	)
	switch a.Workload {
	case "solve_large":
		res, err = solveLarge(a)
	case "serve_hot", "serve_mixed":
		res, err = serve(a)
	default:
		err = fmt.Errorf("unknown workload %q", a.Workload)
	}
	if err != nil {
		bench.Fatal(err)
	}
	if err := res.Print(); err != nil {
		bench.Fatal(err)
	}
}

func solveLarge(a bench.Args) (*bench.Result, error) {
	bench.Info("host", bench.HostInfo(runtime.NumCPU(), "none: one process on every core"))
	in, setups, refs, err := bench.SetupSolve(a.Seed)
	if err != nil {
		return nil, err
	}
	run, err := bench.RunSolve(in, refs, a.Window())
	if err != nil {
		return nil, err
	}
	if a.Seed == 1 {
		if err := bench.CheckCommittedCost(refs[0].Cost); err != nil {
			return nil, err
		}
	}
	lat := durationsMs(run.Lat)
	var busy, cpu time.Duration
	for k := range run.Lat {
		busy += run.Lat[k]
		cpu += run.CPU[k]
	}
	ops := len(run.Lat)
	raw := &bench.Result{}
	raw.Set("setup_s", stats.Percentile(durationsMs(setups), 50)/1e3, "s")
	raw.Set("ops_per_s", float64(ops)/busy.Seconds(), "1/s")
	raw.Set("p50_ms", stats.Percentile(lat, 50), "ms")
	raw.Set("p90_ms", stats.Percentile(lat, 90), "ms")
	raw.Set("cpu_ms_per_op", bench.Ms(cpu)/float64(ops), "ms")
	scale := bench.HostScale(run.Probe)
	bench.Info("solve_large", map[string]any{
		"ops": ops, "lat_ms": lat, "p99_ms": stats.Percentile(lat, 99), "cost": run.Cost, "seeds": in.Seeds,
		"peak_rss_mb": run.Peak, "probe_ms": durationsMs(run.Probe), "host_scale": scale, "raw": raw.Metrics,
	})
	res := raw.Scaled(scale)
	res.Correct, res.Attempted = true, ops
	res.Set("peak_rss_mb", stats.Percentile(run.Peak, 50), "MB")
	res.Set("cost", run.MeanCost(), "cost")
	return res, nil
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = bench.Ms(d)
	}
	return out
}

func serve(a bench.Args) (*bench.Result, error) {
	spec := bench.ServeSpecs[a.Workload]
	pin, nproc, err := bench.PinGenerator()
	if err != nil {
		return nil, err
	}
	bench.Info("host", bench.HostInfo(nproc, pin.String()))
	sess, setups, err := bench.SetupServe(spec, a, pin, bench.ServeSetupRepeats)
	if err != nil {
		return nil, err
	}
	runErr := sess.Run(a.Window(), spec.Conns(pin, nproc))
	var peak float64
	if runErr == nil {
		peak, runErr = bench.PeakRSSMB(sess.D.Pid)
	}
	if err := sess.D.Stop(); runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return nil, runErr
	}
	checked, err := sess.Check()
	if err != nil {
		return nil, err
	}
	cost, err := sess.Cost()
	if err != nil {
		return nil, err
	}
	lat, late, failed := sess.Latencies()
	ops := len(lat)
	if ops == 0 {
		return nil, fmt.Errorf("%s: no request of the timed window was answered 200", a.Workload)
	}
	delta := sess.Delta()
	if spec.Rate == 0 && (delta.Solves != 0 || failed != 0) {
		return nil, fmt.Errorf("%s: %d solves and %d failed requests in the timed window; every request should have been a cache hit",
			a.Workload, delta.Solves, failed)
	}
	genFrac := sess.GenCPU.Seconds() / sess.Elapsed.Seconds()
	daemonFrac := sess.DaemonCPU.Seconds() / sess.Elapsed.Seconds()
	raw := &bench.Result{Correct: true, Attempted: len(sess.Window), Failed: failed}
	raw.Set("setup_s", stats.Percentile(durationsMs(setups), 50)/1e3, "s")
	raw.Set("p50_ms", stats.Percentile(lat, 50), "ms")
	raw.Set("p90_ms", stats.Percentile(lat, 90), "ms")
	raw.Set("cpu_ms_per_op", bench.Ms(sess.DaemonCPU)/float64(ops), "ms")
	if spec.Rate == 0 {
		// A closed loop's rate is the program's: it scales with the host.
		raw.Set("ops_per_s", float64(ops)/sess.Sending.Seconds(), "1/s")
	}
	scale := bench.HostScale(sess.Probes)
	res := raw.Scaled(scale)
	if spec.Rate > 0 {
		// An open loop's rate is the schedule's, whatever the host.
		res.Set("ops_per_s", float64(ops)/sess.Elapsed.Seconds(), "1/s")
	}
	res.Set("peak_rss_mb", peak, "MB")
	res.Set("cost", cost, "cost")
	bench.Info(a.Workload, map[string]any{
		"samples":            len(sess.Window),
		"ok":                 ops,
		"checked_answers":    checked,
		"publications":       len(sess.Pubs),
		"metrics_delta":      delta,
		"loadgen_cpu_frac":   genFrac,
		"daemon_cpu_frac":    daemonFrac,
		"late_p99_ms":        stats.Percentile(late, 99),
		"generator_bound":    genFrac > daemonFrac,
		"setup_s":            durationsMs(setups),
		"p99_ms":             stats.Percentile(lat, 99) * scale,
		"p99_supported":      ops >= 1000,
		"window_s":           sess.Elapsed.Seconds(),
		"sending_s":          sess.Sending.Seconds(),
		"offered_rate_per_s": spec.Rate,
		"probe_ms":           durationsMs(sess.Probes),
		"host_scale":         scale,
		"raw":                raw.Metrics,
	})
	if genFrac > daemonFrac {
		fmt.Fprintf(os.Stderr, "perfbench: %s generator used more CPU (%.2f) than geomapd (%.2f); ops_per_s measures the generator\n",
			a.Workload, genFrac, daemonFrac)
	}
	return res, nil
}
