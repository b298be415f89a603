// Command geomapd serves process mappings over HTTP: POST a comm
// matrix or a named workload preset to /v1/map and get back a
// placement, its cost split, and the version of the network snapshot it
// was solved against. Solves run on a bounded worker pool, identical
// requests are deduplicated in flight and answered from an LRU result
// cache, and operators feed fresh calibration matrices or fault reports
// through POST /admin/snapshot without restarting the daemon. Each solve
// may itself parallelize the geo mapper's group-order search
// (-solver-workers); the pool size × per-solve product is clamped to
// GOMAXPROCS so the daemon never oversubscribes the machine.
//
// With -regauge the daemon also runs the closed calibration loop
// (internal/regauge): periodic reduced-budget probes of the modeled
// cloud — optionally against a -faults schedule — publish drift-refreshed
// snapshots into the store and re-map cached placements when the
// predicted saving amortizes the migration cost. /healthz reports the
// loop's mode and the snapshot's age, degrading to 503 past
// -max-staleness.
//
// Usage:
//
//	geomapd                                    # paper's 4-region EC2 cloud, :8080
//	geomapd -addr 127.0.0.1:0 -addr-file /tmp/geomapd.addr
//	geomapd -regions us-east,eu-west -nodes 32 -workers 8
//	geomapd -calib -days 3                     # bootstrap snapshot from calibration
//	geomapd -regauge -faults FlakyWAN -regauge-timescale 300
//	geomapd -addr :8081 -self http://127.0.0.1:8081 \
//	        -peers http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083
//
// With -peers the daemon joins a sharded fleet: request routing keys are
// consistent-hashed across the peer list, a shard miss consults the
// owning peer before solving locally, and every snapshot publication —
// admin posts and re-gauging alike — replicates to all peers
// version-ordered, so replays are idempotent.
//
// SIGTERM or SIGINT starts a graceful drain: the listener stops
// accepting, in-flight requests finish, the solve queue empties, and
// then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"geoprocmap/internal/buildinfo"
	"geoprocmap/internal/calib"
	"geoprocmap/internal/faults"
	"geoprocmap/internal/netmodel"
	"geoprocmap/internal/regauge"
	"geoprocmap/internal/service"
	"geoprocmap/internal/units"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address (use 127.0.0.1:0 for an ephemeral port)")
		addrFile    = flag.String("addr-file", "", "write the bound address to this file once listening")
		provider    = flag.String("provider", "ec2", "cloud provider: ec2 or azure")
		regions     = flag.String("regions", strings.Join(netmodel.PaperEC2Regions, ","), "comma-separated regions")
		instance    = flag.String("instance", "m4.xlarge", "instance type")
		nodes       = flag.Int("nodes", 16, "nodes per site")
		seed        = flag.Int64("seed", 1, "random seed for the modeled cloud")
		useCalib    = flag.Bool("calib", false, "bootstrap the snapshot from a calibration run instead of ground truth")
		days        = flag.Int("days", 1, "calibration days (with -calib)")
		samples     = flag.Int("samples", 5, "calibration samples per day per pair (with -calib)")
		workers     = flag.Int("workers", 4, "solver pool size")
		solverWkrs  = flag.Int("solver-workers", 0, "order-search goroutines per solve (0 = derive from GOMAXPROCS/workers; pool×per-solve is clamped to GOMAXPROCS)")
		queueDepth  = flag.Int("queue", 0, "pending-solve bound before shedding (default 4×workers)")
		cacheSize   = flag.Int("cache", 1024, "result cache entries")
		maxProcs    = flag.Int("max-procs", 4096, "largest accepted process count")
		deadline    = flag.Duration("deadline", 30*time.Second, "default per-request solve deadline")
		showVersion = flag.Bool("version", false, "print version and exit")

		peers       = flag.String("peers", "", "comma-separated base URLs of the whole fleet including this daemon (enables cluster mode; every daemon must get the same list)")
		selfURL     = flag.String("self", "", "this daemon's own base URL as it appears in -peers (required with -peers)")
		peerTimeout = flag.Duration("peer-timeout", 10*time.Second, "per-peer HTTP timeout for result fetches and snapshot replication")

		faultSpec   = flag.String("faults", "", "fault schedule the re-gauging probes run against: preset name (FlakyWAN, SiteBlackout, DiurnalDrift) or JSON file")
		maxStale    = flag.Duration("max-staleness", 0, "snapshot age past which /healthz answers 503 (0 = report age only)")
		regaugeOn   = flag.Bool("regauge", false, "run the closed-loop re-gauging control loop")
		rgInterval  = flag.Duration("regauge-interval", 30*time.Second, "schedule time between gauge passes")
		rgTimescale = flag.Float64("regauge-timescale", 1, "schedule seconds per wall second (e.g. 300 ticks a 30 s interval every 100 ms)")
		rgDrift     = flag.Float64("regauge-drift", 0.15, "relative per-pair change that counts as drift")
		rgCooldown  = flag.Duration("regauge-cooldown", 0, "per-placement cooldown after a triggered remap (0 = 3× interval)")
		rgSafety    = flag.Float64("regauge-safety", 2, "remap only when predicted saving > migration time × this factor")
		rgSamples   = flag.Int("regauge-samples", 3, "per-pair probe budget of one gauge pass")
		rgWindow    = flag.Int("regauge-window", 3, "per-pair smoothing window (passes)")
		rgMaxFail   = flag.Int("regauge-max-failures", 3, "consecutive failed passes before publication freezes")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(buildinfo.Version("geomapd"))
		return
	}

	var p *netmodel.Provider
	switch *provider {
	case "ec2":
		p = netmodel.AmazonEC2
	case "azure":
		p = netmodel.WindowsAzure
	default:
		fatal(fmt.Errorf("unknown provider %q", *provider))
	}
	cloud, err := netmodel.EvenCloud(p, *instance, strings.Split(*regions, ","), *nodes, netmodel.Options{Seed: *seed})
	if err != nil {
		fatal(err)
	}

	snap := service.SnapshotFromCloud(cloud)
	if *useCalib {
		res, err := calib.Calibrate(cloud, calib.Options{Seed: *seed, Days: *days, SamplesPerDay: *samples})
		if err != nil {
			fatal(err)
		}
		if snap, err = service.SnapshotFromCalibration(cloud, res); err != nil {
			fatal(err)
		}
	}
	store, err := service.NewStore(snap)
	if err != nil {
		fatal(err)
	}
	sched, err := faults.FromSpec(*faultSpec, cloud.M(), *seed)
	if err != nil {
		fatal(err)
	}

	logger := log.New(os.Stderr, "geomapd: ", log.LstdFlags)

	// -peers switches on cluster mode: the fleet shares one consistent-hash
	// ring over request routing keys, snapshot publications replicate to
	// every peer, and shard misses consult the owning peer before solving
	// locally. The regauge loop publishes through the replicator so its
	// refreshed models reach the whole fleet.
	var cluster *service.Cluster
	var publisher regauge.SnapshotPublisher = store
	if *peers != "" {
		if *selfURL == "" {
			fatal(fmt.Errorf("-peers requires -self (this daemon's URL as listed in -peers)"))
		}
		cluster, err = service.NewCluster(service.ClusterConfig{
			Self:    *selfURL,
			Peers:   strings.Split(*peers, ","),
			Timeout: *peerTimeout,
			Logf:    logger.Printf,
		})
		if err != nil {
			fatal(err)
		}
		publisher = service.NewReplicator(store, cluster)
		logger.Printf("cluster: %d-node fleet, self %s", cluster.Ring().Size(), cluster.Self())
	}

	srv, err := service.NewServer(service.Config{
		Store:           store,
		Cluster:         cluster,
		Workers:         *workers,
		SolverWorkers:   *solverWkrs,
		QueueDepth:      *queueDepth,
		CacheSize:       *cacheSize,
		MaxProcs:        *maxProcs,
		DefaultDeadline: *deadline,
		MaxStaleness:    *maxStale,
		Logf:            logger.Printf,
	})
	if err != nil {
		fatal(err)
	}

	// The re-gauging loop runs until drain: its context is cancelled after
	// the HTTP listener shuts down, and the final counters are not printed
	// until it has stopped touching the cache.
	gaugeStop := func() {}
	if *regaugeOn {
		g, err := regauge.New(regauge.Config{
			Cloud:          cloud,
			Store:          publisher,
			Source:         regauge.ServerSource{Server: srv},
			Faults:         sched,
			Seed:           *seed,
			Interval:       units.Seconds(rgInterval.Seconds()),
			Samples:        *rgSamples,
			DriftThreshold: *rgDrift,
			Window:         *rgWindow,
			SafetyFactor:   *rgSafety,
			Cooldown:       units.Seconds(rgCooldown.Seconds()),
			SolverWorkers:  *solverWkrs,
			MaxFailures:    *rgMaxFail,
			Timescale:      *rgTimescale,
			Logf:           logger.Printf,
		})
		if err != nil {
			fatal(err)
		}
		srv.RegisterStatus("regauge", g.StatusProbe)
		gctx, gcancel := context.WithCancel(context.Background())
		gdone := make(chan struct{})
		go func() {
			defer close(gdone)
			g.Run(gctx)
		}()
		gaugeStop = func() {
			gcancel()
			<-gdone
			logger.Printf("regauge: stopped")
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	if *addrFile != "" {
		// Written atomically-enough for the smoke harness: the rename
		// makes the file appear only with its full contents.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			fatal(err)
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			fatal(err)
		}
	}
	logger.Printf("listening on %s (%d sites × %d nodes, snapshot v%d from %s)",
		ln.Addr(), cloud.M(), *nodes, store.Current().Version, store.Current().Source)

	hs := newHTTPServer(srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-stop:
		logger.Printf("received %s, draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			logger.Printf("shutdown: %v", err)
		}
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}
	// The listener is closed and in-flight handlers have returned; stop
	// the gauging loop and drain whatever the pool still holds before
	// reporting final counters.
	gaugeStop()
	srv.Close()
	v := srv.Metrics().Snapshot(0, 0)
	logger.Printf("drained: %d requests (%d solves, %d cache hits, %d deduped, %d shed)",
		v.Requests, v.Solves, v.CacheHits, v.Deduped, v.Rejected)
}

// Connection timeouts of the HTTP server. A client gets readHeaderTimeout
// to send its request header and readTimeout for the whole request, body
// included, so a slow or stalled client cannot hold a connection (and its
// goroutine) open forever; an idle keep-alive connection is closed after
// idleTimeout. There is deliberately no write timeout: a large solve may
// answer long after its request arrived, and its deadline is the
// per-request -deadline, not the connection's.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 60 * time.Second
	idleTimeout       = 120 * time.Second
)

// newHTTPServer returns the daemon's http.Server for handler h.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "geomapd:", err)
	os.Exit(1)
}
