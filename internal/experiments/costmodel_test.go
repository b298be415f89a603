package experiments

import (
	"fmt"
	"math"
	"testing"

	"geoprocmap/internal/baselines"
	"geoprocmap/internal/core"
	"geoprocmap/internal/multilevel"
)

// TestCostModelsAgree is the differential check between the two
// implementations of the objective: core.Problem.Cost, which the flat
// mappers search with and every report prints, and multilevel.Instance.Cost,
// which the multilevel refiner optimizes. Both must price every mapper's
// placement alike on seeded instances with pins and two-site allowed sets.
// Problem.Cost sums the latency and bandwidth terms separately
// (CostParts) while Instance.Cost adds each edge's α–β term whole, so the
// two round differently and agree to a relative 1e-12, not bit for bit.
func TestCostModelsAgree(t *testing.T) {
	const relTol = 1e-12
	mappers := []core.Mapper{
		&core.GeoMapper{Seed: 3, Workers: 1},
		&core.MultilevelGeoMapper{Seed: 3, Workers: 1},
		&core.HierarchicalGeoMapper{Seed: 3, Workers: 1},
		&baselines.Greedy{},
		&baselines.MPIPP{Seed: 3},
		&baselines.Random{Seed: 3},
		&baselines.MonteCarlo{Seed: 3, Samples: 50},
	}
	for seed := int64(1); seed <= 3; seed++ {
		p := syntheticProblem(192, 7, seed)
		m := p.M()
		p.Allowed = make([][]int, p.N())
		for i := 0; i < p.N(); i++ {
			switch {
			case i%23 == int(seed):
				p.Constraint[i] = (i + int(seed)) % m
			case i%11 == 0:
				p.Allowed[i] = []int{i % m, (i + 3) % m}
			}
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		in := &multilevel.Instance{
			G:        multilevel.FromComm(p.Comm),
			LT:       p.LT,
			BT:       p.BT,
			Capacity: p.Capacity,
			Pin:      p.Constraint,
			Allowed:  p.Allowed,
		}
		for _, mp := range mappers {
			name := fmt.Sprintf("seed %d %s", seed, mp.Name())
			pl, err := mp.Map(p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := p.CheckPlacement(pl); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			flat, ml := p.Cost(pl).Float(), in.Cost(pl).Float()
			if math.Abs(flat-ml) > relTol*math.Max(math.Abs(flat), math.Abs(ml)) {
				t.Errorf("%s: core cost %v, multilevel cost %v (relative gap %.3g)", name, flat, ml, math.Abs(flat-ml)/math.Abs(flat))
			}
		}
	}
}
