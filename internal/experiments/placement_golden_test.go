package experiments

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"geoprocmap/internal/apps"
	"geoprocmap/internal/baselines"
	"geoprocmap/internal/core"
	"geoprocmap/internal/faults"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenCase is one (problem, mapper) cell of the placement golden file.
type goldenCase struct {
	name string
	prob *core.Problem
	run  func(p *core.Problem) (core.Placement, error)
}

// placementDigest hashes a placement's sites (little-endian int64 each)
// followed by the IEEE-754 bits of the problem's cost for it.
func placementDigest(p *core.Problem, pl core.Placement) string {
	h := sha256.New()
	var buf [8]byte
	for _, s := range pl {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(s)))
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(float64(p.Cost(pl))))
	h.Write(buf[:])
	return hex.EncodeToString(h.Sum(nil))
}

// goldenLU is the paper-scale LU instance of TestSeedDeterminism:
// 64 processes on four EC2 regions with 20% pinned processes.
func goldenLU(t *testing.T) *core.Problem {
	t.Helper()
	cloud, err := PaperCloudForScale(64, 42)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := BuildInstance(cloud, apps.NewLU(), 64, 10, 0.2, 42)
	if err != nil {
		t.Fatal(err)
	}
	return inst.Problem
}

// goldenSynthetic is the multilevel experiment's 4096-process, 16-site
// ring/stride/butterfly instance with a sprinkling of pins and two-site
// allowed sets, so every mapper's constraint handling is in the digest.
func goldenSynthetic(t *testing.T) *core.Problem {
	t.Helper()
	p := syntheticProblem(4096, 16, 1)
	m := p.M()
	p.Allowed = make([][]int, p.N())
	for i := 0; i < p.N(); i++ {
		switch {
		case i%97 == 0 && i%m != 1: // site 1 dies in the remap case
			p.Constraint[i] = i % m
		case i%131 == 0:
			p.Allowed[i] = []int{i % m, (i + 5) % m}
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// remapFrom runs core.Remap on the placement of a base mapper after the
// (0, 2) link degrades and, where the other sites can absorb its
// processes, site 1 dies.
func remapFrom(base core.Mapper) func(p *core.Problem) (core.Placement, error) {
	return func(p *core.Problem) (core.Placement, error) {
		pl, err := base.Map(p)
		if err != nil {
			return nil, err
		}
		rep := &faults.Report{DegradedPairs: [][2]int{{0, 2}}}
		if p.Capacity.Sum()-p.Capacity[1] >= p.N() {
			rep.DeadSites = []int{1}
		}
		res, err := core.Remap(p, pl, rep, core.RemapOptions{MoveDegraded: true})
		if err != nil {
			return nil, err
		}
		return res.Placement, nil
	}
}

func mapWith(m core.Mapper) func(p *core.Problem) (core.Placement, error) { return m.Map }

// TestPlacementGolden pins the placement and the bit pattern of the cost
// every mapper produces on two fixed instances. TestSeedDeterminism only
// compares two runs of one build; this test compares against digests
// checked in from an earlier build, so a refactor that shifts a single
// placement or the last bit of a cost fails here. Run with -update to
// regenerate testdata/placement.golden.txt after an intended change.
func TestPlacementGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("maps a 4096-process instance with every mapper")
	}
	lu, syn := goldenLU(t), goldenSynthetic(t)
	var cases []goldenCase
	for _, pc := range []struct {
		name string
		p    *core.Problem
	}{{"lu64", lu}, {"synthetic4096", syn}} {
		mpipp := &baselines.MPIPP{Seed: 7}
		if pc.p.N() > 1024 {
			mpipp = &baselines.MPIPP{Seed: 7, Restarts: 1, MaxPasses: 1}
		}
		cases = append(cases,
			goldenCase{pc.name + "/geo-w1", pc.p, mapWith(&core.GeoMapper{Kappa: 4, Seed: 42, Workers: 1})},
			goldenCase{pc.name + "/geo-w3", pc.p, mapWith(&core.GeoMapper{Kappa: 4, Seed: 42, Workers: 3})},
			goldenCase{pc.name + "/multilevel", pc.p, mapWith(&core.MultilevelGeoMapper{Seed: 42, Workers: 2})},
			goldenCase{pc.name + "/hierarchical", pc.p, mapWith(&core.HierarchicalGeoMapper{Seed: 42, Workers: 1})},
			goldenCase{pc.name + "/greedy", pc.p, mapWith(&baselines.Greedy{})},
			goldenCase{pc.name + "/mpipp", pc.p, mapWith(mpipp)},
			goldenCase{pc.name + "/remap", pc.p, remapFrom(&core.GeoMapper{Kappa: 4, Seed: 42, Workers: 1})},
		)
	}

	var got bytes.Buffer
	for _, c := range cases {
		pl, err := c.run(c.prob)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := c.prob.CheckPlacement(pl); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&got, "%s %s\n", c.name, placementDigest(c.prob, pl))
	}

	golden := filepath.Join("testdata", "placement.golden.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	want := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 {
			want[f[0]] = f[1]
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(got.String()), "\n") {
		f := strings.Fields(line)
		if w, ok := want[f[0]]; !ok {
			t.Errorf("%s: no golden digest (run with -update)", f[0])
		} else if w != f[1] {
			t.Errorf("%s: placement/cost digest %s, golden %s", f[0], f[1], w)
		}
	}
	if len(want) != len(cases) {
		t.Errorf("golden file has %d digests, test produced %d", len(want), len(cases))
	}
}
