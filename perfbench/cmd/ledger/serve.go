package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"geoprocmap/internal/comm"
	"geoprocmap/internal/core"
	"geoprocmap/internal/multilevel"
	"geoprocmap/internal/service"
	"geoprocmap/internal/stats"
	"geoprocmap/perfbench/bench"
)

// solverWorkers is the per-solve parallelism a one-core geomapd with the
// default pool of four derives (GOMAXPROCS / workers, at least 1); the
// in-process probes solve with the same.
const solverWorkers = 1

// serve traces a serving workload in two parts. First the workload runs
// against geomapd exactly as the end-to-end binary runs it, which gives
// the generator's own figures, the /metrics deltas, the solve_ms the
// answers echo and the publication latency. Then the same request stream
// is replayed in-process through service.Server.Handler, untraced and
// with a span per request side by side, and each distinct request of the
// replayed stream is taken through the exported layer calls one by one.
func serve(a bench.Args) (*ledger, error) {
	spec := bench.ServeSpecs[a.Workload]
	pin, nproc, err := bench.PinGenerator()
	if err != nil {
		return nil, err
	}
	l := newLedger(bench.HostInfo(nproc, pin.String()))
	sess, _, err := bench.SetupServe(spec, a, pin, 1)
	if err != nil {
		return nil, err
	}
	runErr := sess.Run(a.Window(), spec.Conns(pin, nproc))
	if err := sess.D.Stop(); runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return nil, runErr
	}
	if _, err := sess.Check(); err != nil {
		return nil, err
	}
	if err := daemonFigures(l, sess); err != nil {
		return nil, err
	}
	stream := replayStream(sess)
	budget := a.Window() / 4
	n, plain, traced, err := replay(l, sess.In, stream, budget)
	if err != nil {
		return nil, err
	}
	l.metrics["trace.overhead_frac"] = traced.Seconds()/plain.Seconds() - 1
	l.metrics["trace.span_coverage"] = 1 // each replayed request is one span
	l.notes["replayed_requests"] = n
	if err := probeLayers(l, sess, stream[:n], budget); err != nil {
		return nil, err
	}
	return l, nil
}

// daemonFigures derives the generator's, the counters' and the answers'
// figures of the geomapd run.
func daemonFigures(l *ledger, sess *bench.Session) error {
	_, late, failed := sess.Latencies()
	l.attempted, l.failed = len(sess.Window), failed
	l.metrics["loadgen.cpu_frac"] = sess.GenCPU.Seconds() / sess.Elapsed.Seconds()
	l.metrics["loadgen.late_p99_ms"] = stats.Percentile(late, 99)
	d := sess.Delta()
	if d.Requests > 0 {
		l.metrics["service.hit_ratio"] = float64(d.CacheHits) / float64(d.Requests)
		l.metrics["service.dedup_ratio"] = float64(d.Deduped) / float64(d.Requests)
	}
	l.metrics["service.solves"] = float64(d.Solves)
	l.metrics["service.rejected"] = float64(d.Rejected)
	l.metrics["service.timeouts"] = float64(d.Timeouts)
	l.notes["metrics_delta"] = d

	answers := map[[2]int]*service.MapResponse{}
	var solve, wait []float64
	byAlgo := map[string][]float64{}
	for _, smp := range sess.Window {
		if smp.Resp < 0 {
			continue
		}
		key := [2]int{smp.Item, smp.Resp}
		r, ok := answers[key]
		if !ok {
			r = &service.MapResponse{}
			if err := json.Unmarshal(sess.Resps.Bodies[smp.Item][smp.Resp], r); err != nil {
				return err
			}
			answers[key] = r
		}
		if r.Cached || r.Deduped {
			continue
		}
		solve = append(solve, r.SolveMillis)
		wait = append(wait, bench.Ms(smp.Done-smp.Due)-r.SolveMillis)
		byAlgo[r.Algorithm] = append(byAlgo[r.Algorithm], r.SolveMillis)
	}
	if len(solve) > 0 {
		l.metrics["service.solve_ms_p50"] = stats.Percentile(solve, 50)
		l.metrics["service.solve_ms_p99"] = stats.Percentile(solve, 99)
		l.metrics["service.wait_ms_p50"] = stats.Percentile(wait, 50)
		l.metrics["service.wait_ms_p99"] = stats.Percentile(wait, 99)
	}
	perAlgo := map[string]map[string]float64{}
	for algo, xs := range byAlgo {
		perAlgo[algo] = map[string]float64{"n": float64(len(xs)), "p50_ms": stats.Percentile(xs, 50), "p99_ms": stats.Percentile(xs, 99)}
	}
	l.notes["solve_ms_by_algorithm"] = perAlgo
	// The window's own publications when it has any; else set-up's.
	var pubs []float64
	for _, p := range sess.Pubs {
		if p.Pub > 0 || len(sess.Pubs) == 1 {
			pubs = append(pubs, bench.Ms(p.Lat))
		}
	}
	l.metrics["service.publish_ms"] = stats.Percentile(pubs, 50)
	return nil
}

// event is one step of the replayed stream: a map request or, with
// pub > 0, a snapshot publication.
type event struct {
	item, pub int
}

// replayStream orders the geomapd run's requests by when they were due,
// with each in-window publication placed where it fell due.
func replayStream(sess *bench.Session) []event {
	smps := append([]bench.Sample(nil), sess.Window...)
	sort.SliceStable(smps, func(i, j int) bool { return smps[i].Due < smps[j].Due })
	var out []event
	pub := 1
	for _, smp := range smps {
		for pub < len(sess.In.Pubs) && sess.In.Pubs[pub].Due <= smp.Due {
			out = append(out, event{pub: pub})
			pub++
		}
		out = append(out, event{item: smp.Item})
	}
	return out
}

// newServer builds an in-process service.Server with geomapd's defaults
// over the workload's cloud and runs the session's warm-up against it.
func newServer(in *bench.ServeInputs) (http.Handler, error) {
	store, err := service.NewStore(service.SnapshotFromCloud(in.Cloud))
	if err != nil {
		return nil, err
	}
	srv, err := service.NewServer(service.Config{Store: store, SolverWorkers: solverWorkers})
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if _, err := post(h, "/admin/snapshot", snapshotBody(in, 0)); err != nil {
		return nil, err
	}
	for _, item := range append(append(append([]int(nil), in.Hot...), in.Warm...), in.Hot...) {
		if _, err := post(h, "/v1/map", in.Items[item].Body); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// snapshotBody is publication k's JSON body.
func snapshotBody(in *bench.ServeInputs, k int) []byte {
	w := in.Pubs[k].Wire
	return w[bytes.Index(w, []byte("\r\n\r\n"))+4:]
}

// post serves one request through h and returns the recorded answer.
func post(h http.Handler, path string, body []byte) (*httptest.ResponseRecorder, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return rec, fmt.Errorf("in-process POST %s: status %d: %s", path, rec.Code, rec.Body.Bytes())
	}
	return rec, nil
}

// replay serves the stream's events, until the untraced side has spent
// budget, on two fresh warmed-up servers in lockstep: one untraced, one
// with a span per event, classed by outcome and request class, and the runtime
// counters read around it. The side that goes first alternates, so drift
// in host speed falls on both alike. It returns how many events each
// served and each side's total time, tracing included.
func replay(l *ledger, in *bench.ServeInputs, stream []event, budget time.Duration) (int, time.Duration, time.Duration, error) {
	hp, err := newServer(in)
	if err != nil {
		return 0, 0, 0, err
	}
	ht, err := newServer(in)
	if err != nil {
		return 0, 0, 0, err
	}
	var (
		plain, traced time.Duration
		rt            runtimeDelta
		n             = len(stream)
	)
	for k, ev := range stream {
		if plain >= budget {
			n = k
			break
		}
		path, body, name := "/v1/map", []byte(nil), "service.serve"
		if ev.pub > 0 {
			path, body, name = "/admin/snapshot", snapshotBody(in, ev.pub), "service.publish"
		} else {
			body = in.Items[ev.item].Body
		}
		servePlain := func() error {
			t0 := time.Now()
			_, err := post(hp, path, body)
			plain += time.Since(t0)
			return err
		}
		serveTraced := func() error {
			t0 := time.Now()
			r0 := readRuntime()
			id := l.begin(name, "")
			rec, err := post(ht, path, body)
			l.end(id)
			rt.add(r0, readRuntime())
			traced += time.Since(t0)
			l.spans[id].Class = outcome(rec.Body.Bytes(), ev)
			if ev.pub == 0 {
				l.spans[id].Class += "/" + in.Items[ev.item].Class
			}
			return err
		}
		first, second := servePlain, serveTraced
		if k%2 == 1 {
			first, second = serveTraced, servePlain
		}
		if err := first(); err != nil {
			return k, plain, traced, err
		}
		if err := second(); err != nil {
			return k, plain, traced, err
		}
	}
	rt.report(l)
	var hits []float64
	for _, s := range l.spans {
		if s.Name == "service.serve" && strings.HasPrefix(s.Class, "cached/") {
			hits = append(hits, float64(s.End-s.Start)/1e3)
		}
	}
	if len(hits) > 0 {
		l.metrics["service.hit_us"] = stats.Mean(hits)
	}
	return n, plain, traced, nil
}

// outcome classes an in-process answer as cached, deduped or solved.
func outcome(body []byte, ev event) string {
	switch {
	case ev.pub > 0:
		return "publish"
	case bytes.Contains(body, []byte(`"cached":true`)):
		return "cached"
	case bytes.Contains(body, []byte(`"deduped":true`)):
		return "deduped"
	}
	return "solved"
}

// mlProbes is how many of serve_mixed's explicit-edge multilevel
// requests the ledger always probes.
const mlProbes = 2

// probeLayers takes the distinct requests of the replayed stream, in
// stream order until budget has passed, through the request path's
// layers one exported call at a time. The request-path metrics are
// weighted by how often each request occurs in the stream, so they read
// per request served; solver metrics are medians per solve.
func probeLayers(l *ledger, sess *bench.Session, stream []event, budget time.Duration) error {
	in := sess.In
	// The hot set and the stream's first mlProbes explicit requests go
	// first and are always probed, so the comm.edges and multilevel counts,
	// which are summed over those explicit requests, repeat exactly for a
	// seed; the rest follow in stream order while the budget lasts.
	count := map[int]int{}
	always := map[int]bool{}
	order := append([]int(nil), in.Hot...)
	for _, item := range in.Hot {
		always[item] = true
	}
	var rest []int
	for _, ev := range stream {
		if ev.pub > 0 {
			continue
		}
		if count[ev.item] == 0 && !always[ev.item] {
			if in.Items[ev.item].Class == "explicit" && len(order) < len(in.Hot)+mlProbes {
				always[ev.item] = true
				order = append(order, ev.item)
			} else {
				rest = append(rest, ev.item)
			}
		}
		count[ev.item]++
	}
	order = append(order, rest...)
	snap := in.Snapshot(0)
	// Profile every preset × size cold once: apps.profile_ms. The memo
	// then serves MapRequest.Problem warm, as geomapd's does.
	memo := bench.GraphMemo{}
	for _, item := range in.Warm {
		req := &in.Items[item].Req
		if _, err := l.time("apps.profile", fmt.Sprintf("%s/%d", req.Workload, req.Procs), func() error {
			_, err := memo.Graph(req.Workload, req.Procs, 1)
			return err
		}); err != nil {
			return err
		}
	}
	l.medianMs("apps.profile_ms", "apps.profile")

	var (
		weighted = map[string]float64{}
		served   int
		mlStats  multilevel.Stats
		mlSolves int
	)
	start := time.Now()
	for _, item := range order {
		if time.Since(start) >= budget && !always[item] {
			break
		}
		it := &in.Items[item]
		w := float64(count[item])
		served += count[item]
		var req service.MapRequest
		d, err := l.median("service.decode", it.Class, func() error {
			req = service.MapRequest{}
			dec := json.NewDecoder(bytes.NewReader(it.Body))
			dec.DisallowUnknownFields()
			return dec.Decode(&req)
		})
		if err != nil {
			return err
		}
		weighted["service.decode_us"] += w * float64(d) / 1e3
		d, _ = l.median("service.fingerprint", it.Class, func() error { _ = service.RoutingKey(&req); return nil })
		weighted["service.fingerprint_us"] += w * float64(d) / 1e3
		var p *core.Problem
		if _, err := l.time("service.problem", it.Class, func() (err error) { p, err = req.Problem(snap, memo.Graph); return err }); err != nil {
			return err
		}
		if bodies := sess.Resps.Bodies[item]; len(bodies) > 0 {
			var ans service.MapResponse
			if err := json.Unmarshal(bodies[0], &ans); err != nil {
				return err
			}
			d, err = l.median("service.encode", it.Class, func() error { return json.NewEncoder(io.Discard).Encode(&ans) })
			if err != nil {
				return err
			}
			weighted["service.encode_us"] += w * float64(d) / 1e3
		}
		if in.Spec.Rate == 0 {
			continue // serve_hot never solves in its window
		}
		st, ml, err := solveProbe(l, &req, p, it.Class, always[item])
		if err != nil {
			return fmt.Errorf("item %d (%s): %w", item, it.Class, err)
		}
		if ml && always[item] {
			mlStats.Levels += st.Levels
			mlStats.CoarsestN += st.CoarsestN
			mlStats.InitialLevel += st.InitialLevel
			mlStats.Passes += st.Passes
			mlStats.Moves += st.Moves
			mlStats.Swaps += st.Swaps
			mlSolves++
		}
	}
	for name, v := range weighted {
		l.metrics[name] = v / float64(served)
	}
	if d := l.durations("service.problem"); len(d) > 0 {
		l.metrics["service.problem_ms"] = stats.Mean(d)
	}
	for _, name := range []string{
		"comm.build", "core.validate", "core.group", "core.geomap", "core.cost",
		"multilevel.csr", "multilevel.solve", "multilevel.refine_idle",
	} {
		l.medianMs(name+"_ms", name)
	}
	if mlSolves > 0 {
		setStats(l, mlStats)
		l.notes["multilevel_solves"] = mlSolves
	}
	l.notes["probed_requests"] = served
	return nil
}

// solveProbe solves one serve_mixed request layer by layer: the flat
// GeoMapper for presets, or the multilevel stages for explicit edge
// lists (after timing their graph build on its own), then CostParts. A
// counted request adds its edges to comm.edges. It reports whether the
// request was a multilevel one.
func solveProbe(l *ledger, req *service.MapRequest, p *core.Problem, class string, counted bool) (multilevel.Stats, bool, error) {
	var st multilevel.Stats
	if _, err := l.time("core.validate", class, p.Validate); err != nil {
		return st, false, err
	}
	var pl core.Placement
	ml := req.Algorithm == "multilevel"
	if ml {
		// Timed on its own, the graph build also gives stages a graph
		// whose lazy caches no solve has built yet.
		fresh := *p
		if _, err := l.time("comm.build", class, func() error {
			fresh.Comm = comm.NewGraph(req.Procs)
			for _, e := range req.Edges {
				fresh.Comm.AddTraffic(e.Src, e.Dst, e.Volume, e.Msgs)
			}
			return nil
		}); err != nil {
			return st, ml, err
		}
		if counted {
			l.metrics["comm.edges"] += float64(fresh.Comm.EdgeCount())
		}
		m, err := req.Mapper(solverWorkers)
		if err != nil {
			return st, ml, err
		}
		if pl, err = m.Map(p); err != nil {
			return st, ml, err
		}
		if st, err = stages(l, &fresh, pl, req.Seed, solverWorkers, class); err != nil {
			return st, ml, err
		}
	} else {
		groupKappa := req.Kappa
		if groupKappa == 0 {
			groupKappa = 4
		}
		if groupKappa > p.M() {
			groupKappa = p.M()
		}
		if _, err := l.time("core.group", class, func() error { _, err := core.GroupSites(p.PC, groupKappa, req.Seed); return err }); err != nil {
			return st, ml, err
		}
		m, err := req.Mapper(solverWorkers)
		if err != nil {
			return st, ml, err
		}
		if _, err := l.time("core.geomap", class, func() (err error) { pl, err = m.Map(p); return err }); err != nil {
			return st, ml, err
		}
	}
	_, err := l.time("core.cost", class, func() error { _, _ = p.CostParts(pl); return nil })
	return st, ml, err
}
