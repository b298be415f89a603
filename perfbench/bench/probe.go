package bench

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"geoprocmap/internal/stats"
)

// The host-speed probe.
//
// The benchmark runs on a few cores of a shared host, and the other
// tenants' load changes how fast those cores run by a third for minutes
// at a time: on a 2-core host the same serve_hot run read 69 and then 93
// requests per second a few minutes apart, the daemon's CPU time per
// request moving from 14.4 to 10.5 ms with it. No statistic over one
// run's own samples removes a swing that lasts the whole run, so each run
// also times this probe: a fixed computation that uses the standard
// library only, so no change to the program moves it. It runs on the
// cores the timed work runs on, between timed ops and never beside them,
// and every timed figure of the run is scaled by ProbeRef over the run's
// mean probe time. The raw figures and the probe times are printed
// ahead of the result.

// ProbeRef is the probe's time per core on the 2-core Xeon host the
// benchmark was written on, in a quiet period. Scaled figures read as
// times on that host.
const ProbeRef = 6 * time.Millisecond

// probeData is the probe's fixed input, made once per process: a JSON
// edge list to decode and hash, like a request body and its fingerprint,
// keys to sort, like the fingerprint's edge sort, and one random cycle
// through 8 MB to walk, like a graph's adjacency.
type probeData struct {
	doc          []byte
	edges        []probeEdge // decode target, reused so decoding does not allocate
	keys, sorted []uint64
	chain        []int32
	sink         float64
}

type probeEdge struct {
	Src, Dst     int
	Volume, Msgs float64
}

var (
	probeOnce sync.Once
	theProbe  *probeData
)

func probeInput() *probeData {
	probeOnce.Do(func() {
		rng := stats.NewRand(20170612)
		p := &probeData{keys: make([]uint64, 16000), chain: make([]int32, 1<<21)}
		edges := make([]probeEdge, 1500)
		for i := range edges {
			edges[i] = probeEdge{Src: rng.Intn(4096), Dst: rng.Intn(4096), Volume: 2e6 * rng.Float64(), Msgs: float64(1 + rng.Intn(20))}
		}
		var err error
		if p.doc, err = json.Marshal(edges); err != nil {
			panic(err) // a fixed slice of plain structs always encodes
		}
		p.edges = make([]probeEdge, len(edges))
		for i := range p.keys {
			p.keys[i] = rng.Uint64()
		}
		p.sorted = make([]uint64, len(p.keys))
		perm := rng.Perm(len(p.chain))
		for i := range perm {
			p.chain[perm[i]] = int32(perm[(i+1)%len(perm)])
		}
		theProbe = p
	})
	return theProbe
}

// step runs the probe's computation once on the calling thread: JSON
// decode and SHA-256 of the edge list, a sort, a dependent walk through
// memory, and a chain of floating-point multiply-adds. It returns how long
// that took.
func (p *probeData) step() time.Duration {
	t0 := time.Now()
	if err := json.Unmarshal(p.doc, &p.edges); err != nil {
		panic(err) // the document was encoded from the same type
	}
	sum := sha256.Sum256(p.doc)
	copy(p.sorted, p.keys)
	slices.Sort(p.sorted)
	at := int32(0)
	for i := 0; i < 1<<13; i++ {
		at = p.chain[at]
	}
	x := float64(at)
	for i := 0; i < 500000; i++ {
		x = x*1.0000001 + 1e-9
	}
	d := time.Since(t0)
	p.sink += x + float64(p.sorted[len(p.sorted)/2]) + p.edges[0].Volume + float64(sum[0]) // keeps the work live
	return d
}

// probeReps is how many timed steps one probe takes per core, after one
// untimed step that warms the core's caches; the probe of a core is their
// median.
const probeReps = 3

// Probe moves the calling thread onto each of cores in turn, times the
// probe there, and returns the mean over the cores. It must not run while
// timed work does.
func Probe(cores []int) (time.Duration, error) {
	p := probeInput()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	orig, err := getAffinity()
	if err != nil {
		return 0, err
	}
	var total time.Duration
	reps := make([]float64, probeReps)
	for _, c := range cores {
		if err := setAffinity([]int{c}); err != nil {
			return 0, err
		}
		p.step()
		for r := range reps {
			reps[r] = float64(p.step())
		}
		total += time.Duration(stats.Percentile(reps, 50))
	}
	if err := setAffinity(orig); err != nil {
		return 0, err
	}
	return total / time.Duration(len(cores)), nil
}

// HostScale is ProbeRef over the mean of a run's probe times: the factor
// that turns the run's times into times on the reference host. The mean,
// not the median: the host flips between fast and slow spells shorter
// than an op, and the mean follows the share of slow spells in the run,
// where the median jumps from one speed to the other.
func HostScale(probes []time.Duration) float64 {
	ms := make([]float64, len(probes))
	for i, d := range probes {
		ms[i] = Ms(d)
	}
	return Ms(ProbeRef) / stats.Mean(ms)
}

type cpuMask [16]uint64 // 1024 cores

func getAffinity() ([]int, error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", e)
	}
	var cores []int
	for c := 0; c < len(m)*64; c++ {
		if m[c/64]&(1<<(c%64)) != 0 {
			cores = append(cores, c)
		}
	}
	return cores, nil
}

func setAffinity(cores []int) error {
	var m cpuMask
	for _, c := range cores {
		m[c/64] |= 1 << (c % 64)
	}
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return fmt.Errorf("sched_setaffinity %v: %w", cores, e)
	}
	return nil
}
