package main

import (
	"fmt"
	"runtime"
	"time"

	"geoprocmap/internal/core"
	"geoprocmap/internal/multilevel"
	"geoprocmap/internal/stats"
	"geoprocmap/perfbench/bench"
)

// minCoverage is the share of each traced solve_large op its layer spans
// (comm.build, core.validate, core.map, core.cost) must account for; a
// lower share means time went somewhere the ledger does not name.
const minCoverage = 0.9

// solveLarge traces solve_large. Each iteration solves one instance
// three ways: the untraced op, as the end-to-end binary times it; the
// same op with a span around each layer call plus a Problem.Validate
// call of its own; and the multilevel pipeline called stage by stage
// (GroupSites, FromComm, Solve, then Refine over Solve's own output),
// whose placement must equal Map's.
func solveLarge(a bench.Args) (*ledger, error) {
	l := newLedger(bench.HostInfo(runtime.NumCPU(), "none: one process on every core"))
	in := bench.NewSolveInputs(a.Seed, bench.SolveInstances)
	t := &opTimes{coverage: 1}
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < a.Window(); k++ {
		inst := in.Instance(k % bench.SolveInstances)
		// The untraced op goes first on even iterations and last on odd
		// ones, so drift in host speed falls on both alike.
		if k%2 == 0 {
			if err := t.untracedOp(inst); err != nil {
				return nil, err
			}
		}
		p, pl, err := t.tracedOp(l, inst)
		if err != nil {
			return nil, fmt.Errorf("instance %d: %w", k, err)
		}
		if k%2 == 1 {
			if err := t.untracedOp(inst); err != nil {
				return nil, err
			}
		}
		// Map has built the graph's lazy adjacency caches; FromComm is
		// timed on a fresh graph, as Map meets it.
		st, err := stages(l, inst.Problem(), pl, in.Seeds[k%len(in.Seeds)], runtime.GOMAXPROCS(0), "")
		if err != nil {
			return nil, fmt.Errorf("instance %d: %w", k, err)
		}
		if k == 0 {
			// Instance 0 is the run seed's own problem: its counts repeat
			// exactly on every run of the seed.
			setStats(l, st)
			l.metrics["comm.edges"] = float64(p.Comm.EdgeCount())
		}
	}
	if t.coverage < minCoverage {
		return nil, fmt.Errorf("layer spans cover %.1f%% of a traced op, want at least %.0f%%", 100*t.coverage, 100*minCoverage)
	}
	l.metrics["trace.span_coverage"] = t.coverage
	l.metrics["trace.overhead_frac"] = stats.Percentile(t.traced, 50)/stats.Percentile(t.plain, 50) - 1
	l.notes["plain_op_ms"] = t.plain
	l.notes["traced_op_ms"] = t.traced
	for _, name := range []string{
		"comm.build", "core.validate", "core.map", "core.cost", "core.group",
		"multilevel.csr", "multilevel.solve", "multilevel.refine_idle",
	} {
		l.medianMs(name+"_ms", name)
	}
	t.rt.report(l)
	return l, nil
}

// opTimes collects the untraced and traced op times, the runtime
// counters around traced ops and the lowest share of a traced op its
// layer spans cover.
type opTimes struct {
	plain, traced []float64
	rt            runtimeDelta
	coverage      float64
}

func (t *opTimes) untracedOp(inst *bench.Instance) error {
	runtime.GC()
	t0 := time.Now()
	_, err := inst.Op()
	t.plain = append(t.plain, bench.Ms(time.Since(t0)))
	return err
}

// tracedOp runs one op with a span around each layer call plus a
// Problem.Validate call of its own, and checks its output.
func (t *opTimes) tracedOp(l *ledger, inst *bench.Instance) (*core.Problem, core.Placement, error) {
	runtime.GC()
	r0 := readRuntime()
	op := l.begin("op", "")
	var (
		p    *core.Problem
		pl   core.Placement
		cost float64
	)
	_, err := l.time("comm.build", "", func() error { p = inst.Problem(); return nil })
	if err == nil {
		_, err = l.time("core.validate", "", p.Validate)
	}
	if err == nil {
		_, err = l.time("core.map", "", func() (err error) { pl, err = inst.Mapper.Map(p); return err })
	}
	if err == nil {
		_, err = l.time("core.cost", "", func() error {
			lat, bw := p.CostParts(pl)
			cost = (lat + bw).Float()
			return nil
		})
	}
	opDur := l.end(op)
	if err != nil {
		return nil, nil, err
	}
	t.rt.add(r0, readRuntime())
	t.traced = append(t.traced, bench.Ms(opDur))
	if c := 1 - float64(l.selfTime(op))/float64(opDur); c < t.coverage {
		t.coverage = c
	}
	l.attempted++
	if err := (&bench.Solved{Problem: p, Placement: pl, Cost: cost}).Check(nil); err != nil {
		return nil, nil, err
	}
	return p, pl, nil
}

// stages runs MultilevelGeoMapper.Map's pipeline one exported call at a
// time on p, whose graph no solver has touched yet, and checks that it
// reproduces pl, Map's placement. The
// closing Refine repeats the finest level's sweep over a placement that
// sweep has already settled; its time is the idle sweep.
func stages(l *ledger, p *core.Problem, pl core.Placement, seed int64, workers int, class string) (multilevel.Stats, error) {
	var (
		groups [][]int
		g      *multilevel.Graph
		sol    []int
		st     multilevel.Stats
	)
	if _, err := l.time("core.group", class, func() (err error) { groups, err = core.GroupSites(p.PC, 4, seed); return err }); err != nil {
		return st, err
	}
	if _, err := l.time("multilevel.csr", class, func() error { g = multilevel.FromComm(p.Comm); return nil }); err != nil {
		return st, err
	}
	inst := &multilevel.Instance{
		G: g, LT: p.LT, BT: p.BT, Capacity: p.Capacity,
		Pin: p.Constraint, Allowed: p.Allowed, Groups: groups,
	}
	opt := multilevel.Options{Workers: workers}
	if _, err := l.time("multilevel.solve", class, func() (err error) { sol, st, err = multilevel.Solve(inst, opt); return err }); err != nil {
		return st, err
	}
	if !core.Placement(sol).Equal(pl) {
		return st, fmt.Errorf("multilevel.Solve placement differs from MultilevelGeoMapper.Map's")
	}
	if _, err := l.time("multilevel.refine_idle", class, func() error { return multilevel.Refine(inst, sol, opt) }); err != nil {
		return st, err
	}
	return st, nil
}

// setStats reports multilevel.Stats counts.
func setStats(l *ledger, st multilevel.Stats) {
	l.metrics["multilevel.levels"] = float64(st.Levels)
	l.metrics["multilevel.coarsest_n"] = float64(st.CoarsestN)
	l.metrics["multilevel.initial_level"] = float64(st.InitialLevel)
	l.metrics["multilevel.passes"] = float64(st.Passes)
	l.metrics["multilevel.moves"] = float64(st.Moves)
	l.metrics["multilevel.swaps"] = float64(st.Swaps)
	if st.Passes > 0 {
		l.metrics["multilevel.steps_per_pass"] = float64(st.Moves+st.Swaps) / float64(st.Passes)
	}
}
