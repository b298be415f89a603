package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"geoprocmap/internal/core"
	"geoprocmap/internal/stats"
)

// The solve_large instance: the largest cell of the multilevel experiment.
const (
	LargeN = 100000
	LargeM = 32
)

// SolveInstances is how many instances a run derives from its seed. A
// run times them in whole rounds, instance 0 to SolveInstances-1 each
// round, so every run of a seed, on any host and at any commit, times the
// same problems equally often; the cost metric averages them.
const SolveInstances = 4

// SolveInputs are the solve_large inputs of one seed: a sequence of
// instance seeds, the first being the run seed itself, so seed 1 is the
// committed results/multilevel.json cell. Instances differ in how hard
// they are to refine; solving several per run keeps one instance's luck
// out of the run's figures.
type SolveInputs struct {
	Seeds []int64
	Cloud *core.Problem // everything but Comm; shared by every instance
}

// NewSolveInputs derives the instance seeds for seed.
func NewSolveInputs(seed int64, instances int) *SolveInputs {
	rng := stats.NewRand(seed)
	seeds := []int64{seed}
	for len(seeds) < instances {
		seeds = append(seeds, rng.Int63())
	}
	return &SolveInputs{Seeds: seeds, Cloud: SyntheticCloud(LargeN, LargeM)}
}

// Instance is one pre-generated solve_large problem.
type Instance struct {
	Edges  *Edges
	Cloud  *core.Problem
	Mapper core.Mapper
}

// Instance generates instance k.
func (in *SolveInputs) Instance(k int) *Instance {
	seed := in.Seeds[k]
	return &Instance{
		Edges:  Ring(LargeN, seed),
		Cloud:  in.Cloud,
		Mapper: &core.MultilevelGeoMapper{Kappa: 4, Seed: seed, Workers: runtime.GOMAXPROCS(0)},
	}
}

// Solved is the outcome of one solve_large op.
type Solved struct {
	Problem   *core.Problem
	Placement core.Placement
	Cost      float64 // the CostParts sum
}

// Problem returns a problem over a freshly built graph.
func (in *Instance) Problem() *core.Problem {
	p := *in.Cloud
	p.Comm = in.Edges.Graph()
	return &p
}

// Op is the timed unit of solve_large: graph build, Map, CostParts.
func (in *Instance) Op() (*Solved, error) {
	p := in.Problem()
	pl, err := in.Mapper.Map(p)
	if err != nil {
		return nil, err
	}
	lat, bw := p.CostParts(pl)
	return &Solved{Problem: p, Placement: pl, Cost: (lat + bw).Float()}, nil
}

// Check verifies one solve outside the timed window: the placement is
// feasible, its CostParts sum equals Problem.Cost bit for bit, and it is
// byte-identical to the reference solve of the same inputs (nil ref
// skips that comparison).
func (s *Solved) Check(ref *Solved) error {
	if err := s.Problem.CheckPlacement(s.Placement); err != nil {
		return fmt.Errorf("infeasible placement: %w", err)
	}
	if c := s.Problem.Cost(s.Placement).Float(); math.Float64bits(c) != math.Float64bits(s.Cost) {
		return fmt.Errorf("CostParts sum %v differs from Cost %v", s.Cost, c)
	}
	if ref != nil && !s.Placement.Equal(ref.Placement) {
		return fmt.Errorf("placement differs between solves of identical inputs")
	}
	return nil
}

// CheckCommittedCost compares cost with the multilevel cell of the same
// size in results/multilevel.json (seed 1, the experiment's default) to
// four significant figures — the artifact the tree must reproduce.
func CheckCommittedCost(cost float64) error {
	b, err := os.ReadFile("results/multilevel.json")
	if err != nil {
		return err
	}
	var rep struct {
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return fmt.Errorf("results/multilevel.json: %w", err)
	}
	sites, n := fmt.Sprint(LargeM), fmt.Sprint(LargeN)
	for _, row := range rep.Rows {
		if len(row) >= 4 && row[0] == sites && row[1] == n && row[2] == "multilevel" {
			if got := fmt.Sprintf("%.4g", cost); got != row[3] {
				return fmt.Errorf("seed 1 cost %s, results/multilevel.json has %s", got, row[3])
			}
			return nil
		}
	}
	return fmt.Errorf("results/multilevel.json has no multilevel row at %s sites, N=%s", sites, n)
}

// SolveRun holds the timed ops of one solve_large window; op k solved
// instance k % SolveInstances.
type SolveRun struct {
	Lat  []time.Duration // per timed op
	CPU  []time.Duration // process CPU per timed op
	Cost []float64       // per timed op
	Peak []float64       // VmHWM in MiB over each timed op
	// Probe holds the host-speed probes on every core, one before each op
	// and one after the last.
	Probe []time.Duration
}

// SetupRepeats is how many times a solve_large run sets up, once per
// instance; setup_s is their median.
const SetupRepeats = SolveInstances

// SetupSolve sets up SetupRepeats times: derive the instance seeds,
// generate an instance and solve it once as a warm-up, set-up r taking
// instance r % SolveInstances, so that setup_s's median is not one
// instance's luck. It returns the inputs, each set-up's duration and each
// instance's first warm-up solve, checked; every later solve of an
// instance must equal it byte for byte.
func SetupSolve(seed int64) (*SolveInputs, []time.Duration, []*Solved, error) {
	var (
		in     *SolveInputs
		setups []time.Duration
		refs   = make([]*Solved, SolveInstances)
	)
	for r := 0; r < SetupRepeats; r++ {
		i := r % SolveInstances
		t0 := time.Now()
		in = NewSolveInputs(seed, SolveInstances)
		s, err := in.Instance(i).Op()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("warm-up solve of instance %d: %w", i, err)
		}
		setups = append(setups, time.Since(t0))
		if err := s.Check(refs[i]); err != nil {
			return nil, nil, nil, fmt.Errorf("warm-up solve of instance %d: %w", i, err)
		}
		if refs[i] == nil {
			// Only the placement is kept; the graph is dropped before timing.
			s.Problem = nil
			refs[i] = s
		}
	}
	return in, setups, refs, nil
}

// RunSolve times whole rounds over the fixed instances, back to back,
// until a round ends after the window has passed. Each instance is
// generated, the heap collected, the host probed on every core and the
// peak resident set reset before its clock starts, and each solve is
// checked after its clock stops: it must repeat the instance's warm-up
// solve in refs exactly, or, for an instance set-up did not solve, the
// first round's.
func RunSolve(in *SolveInputs, refs []*Solved, window time.Duration) (*SolveRun, error) {
	cores, err := AllowedCPUs()
	if err != nil {
		return nil, err
	}
	run := &SolveRun{}
	first := append([]*Solved(nil), refs...)
	start := time.Now()
	for k := 0; k%len(in.Seeds) != 0 || time.Since(start) < window; k++ {
		i := k % len(in.Seeds)
		inst := in.Instance(i)
		runtime.GC()
		probe, err := Probe(cores)
		if err != nil {
			return nil, err
		}
		run.Probe = append(run.Probe, probe)
		if err := ResetPeakRSS(os.Getpid()); err != nil {
			return nil, err
		}
		c0, t0 := SelfCPU(), time.Now()
		s, err := inst.Op()
		if err != nil {
			return nil, err
		}
		run.Lat = append(run.Lat, time.Since(t0))
		run.CPU = append(run.CPU, SelfCPU()-c0)
		peak, err := PeakRSSMB(os.Getpid())
		if err != nil {
			return nil, err
		}
		run.Peak = append(run.Peak, peak)
		if err := s.Check(first[i]); err != nil {
			return nil, fmt.Errorf("instance %d: %w", i, err)
		}
		if first[i] == nil {
			s.Problem = nil
			first[i] = s
		}
		run.Cost = append(run.Cost, s.Cost)
	}
	probe, err := Probe(cores)
	if err != nil {
		return nil, err
	}
	run.Probe = append(run.Probe, probe)
	return run, nil
}

// MeanCost averages the instances' costs over the first round.
func (r *SolveRun) MeanCost() float64 { return stats.Mean(r.Cost[:SolveInstances]) }
