package bench

import (
	"encoding/json"
	"fmt"
	"math"

	"geoprocmap/internal/apps"
	"geoprocmap/internal/comm"
	"geoprocmap/internal/core"
	"geoprocmap/internal/service"
)

// Check rebuilds every distinct 200 answer of the session through
// MapRequest.Problem against the matrices the benchmark published under
// the answer's snapshot version, and requires a feasible placement, the
// digest service.PlacementDigest gives, and a cost equal bit for bit to
// the CostParts sum. It then requires the answer to be the right one: an
// item gets one placement per snapshot version, and it is the placement
// a fresh solve of the request gives, with one solver worker.
// geomapd's placements are byte-identical at any worker count, so a
// fallback, a cheaper placement under load or a cache slip fails the
// check. It returns how many answers it checked.
func (s *Session) Check() (int, error) {
	snaps := map[uint64]*service.Snapshot{}
	for _, p := range s.Pubs {
		snaps[p.Version] = s.In.Snapshot(p.Pub)
	}
	graphFor := GraphMemo{}.Graph
	checked := 0
	for item, bodies := range s.Resps.Bodies {
		req := &s.In.Items[item].Req
		answered := map[uint64]*service.MapResponse{}
		for _, body := range bodies {
			var r service.MapResponse
			if err := json.Unmarshal(body, &r); err != nil {
				return checked, fmt.Errorf("item %d: decoding answer: %w", item, err)
			}
			snap, ok := snaps[r.SnapshotVersion]
			if !ok {
				return checked, fmt.Errorf("item %d: answer names snapshot v%d, which the benchmark did not publish (published %v)",
					item, r.SnapshotVersion, s.sortedVersions())
			}
			// Bodies of one answer differ in their cached, deduped and
			// solve_ms fields; the placement and cost must not.
			if first, ok := answered[r.SnapshotVersion]; ok {
				if r.Digest != first.Digest || math.Float64bits(r.Cost) != math.Float64bits(first.Cost) {
					return checked, fmt.Errorf("item %d (%s): two answers at snapshot v%d, digests %s and %s",
						item, s.In.Items[item].Class, r.SnapshotVersion, first.Digest, r.Digest)
				}
				checked++
				continue
			}
			answered[r.SnapshotVersion] = &r
			if err := checkAnswer(req, &r, snap, graphFor); err != nil {
				return checked, fmt.Errorf("item %d (%s) at snapshot v%d: %w", item, s.In.Items[item].Class, r.SnapshotVersion, err)
			}
			checked++
		}
	}
	return checked, nil
}

// GraphMemo profiles each workload preset once, as geomapd's memo does;
// its Graph method is a service.GraphFunc.
type GraphMemo map[string]*comm.Graph

// Graph returns the memoized profile, profiling it on first use.
func (m GraphMemo) Graph(workload string, procs, iters int) (*comm.Graph, error) {
	key := fmt.Sprintf("%s/%d/%d", workload, procs, iters)
	if g, ok := m[key]; ok {
		return g, nil
	}
	app, err := apps.ByName(workload)
	if err != nil {
		return nil, err
	}
	g, err := apps.Graph(app, procs, iters)
	if err != nil {
		return nil, err
	}
	m[key] = g
	return g, nil
}

func checkAnswer(req *service.MapRequest, r *service.MapResponse, snap *service.Snapshot, graphFor service.GraphFunc) error {
	p, err := req.Problem(snap, graphFor)
	if err != nil {
		return fmt.Errorf("rebuilding the problem: %w", err)
	}
	pl := core.Placement(r.Placement)
	if err := p.CheckPlacement(pl); err != nil {
		return fmt.Errorf("infeasible placement: %w", err)
	}
	if d := service.PlacementDigest(pl); d != r.Digest {
		return fmt.Errorf("digest %s, placement hashes to %s", r.Digest, d)
	}
	lat, bw := p.CostParts(pl)
	if math.Float64bits((lat + bw).Float()) != math.Float64bits(r.Cost) {
		return fmt.Errorf("cost %v, CostParts sum %v", r.Cost, (lat + bw).Float())
	}
	mapper, err := req.Mapper(1)
	if err != nil {
		return err
	}
	want, err := mapper.Map(p)
	if err != nil {
		return fmt.Errorf("solving the request again: %w", err)
	}
	if d := service.PlacementDigest(want); d != r.Digest {
		return fmt.Errorf("digest %s, a fresh solve of the request gives %s", r.Digest, d)
	}
	return nil
}
