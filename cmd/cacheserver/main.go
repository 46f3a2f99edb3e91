// Command cacheserver runs a mobile-device clip cache behind an HTTP API —
// a minimal service harness showing the library embedded in a long-running
// program rather than a batch simulation.
//
// The cache is a hash-partitioned pool of engines (-shards, default
// GOMAXPROCS): each shard owns a slice of the clip-ID space, its own
// replacement-policy instance and its own lock, so concurrent requests for
// clips on different shards proceed in parallel. -shards 1 reproduces the
// single serialized engine of earlier versions exactly, decision for
// decision.
//
// With -segment the cache tracks residency per fixed-size segment instead of
// per whole clip: GET /v1/clips/{id} becomes a partial-content API (a Range
// header selects a byte range, serviced at segment granularity with 206 +
// Content-Range; unsatisfiable and multi-range requests answer 416), misses
// fetch only the missing segments, and -prefix pins the first N segments of
// every clip so eviction trims tails first — the prefix-caching behaviour
// that hides streaming startup latency. Without -segment every wire response
// is byte-identical to pre-segment servers.
//
// With -ttl every cached clip expires after that many virtual ticks:
// expired clips are invalidated lazily on access and by an amortized sweep
// riding the engine's existing drain points, so the lock-reduced hit path
// stays lock-free. DELETE /v1/clips/{id} invalidates a clip on demand —
// the catalog-churn operation a publisher issues when a clip is replaced.
// Invalidations are neither requests nor evictions: they never perturb the
// hit/miss identities. Without -ttl and without DELETEs every response is
// byte-identical to pre-churn servers.
//
// With -node-id the server joins a cooperative cluster tier: -peers names
// the other ring members, and a consistent-hash ring assigns every clip
// -replicas owners. On a local miss the clip's remote owners are consulted
// over hedged peer reads (the next replica is tried after -hedge) before
// the origin fetch is booked; a peer win charges startup latency to the
// -peer-alloc node-to-node link instead of the origin link. Cached peer
// residency digests, refreshed every -digest-interval, veto most fruitless
// probes without a round trip. See GET /v1/cluster for ring and
// cooperative state. Without -node-id every response is byte-identical to
// pre-cluster servers.
//
// Endpoints (v1):
//
//	GET  /v1/clips/{id}  service a reference to clip id; returns the outcome,
//	                     whether it hit, and the startup latency the device
//	                     would observe at the configured link bandwidth.
//	                     Honors single-range Range headers (206/200/416) and
//	                     reports cached bytes in X-Cache-Resident-Bytes
//	HEAD /v1/clips/{id}  the clip's Content-Length, Accept-Ranges and current
//	                     X-Cache-Resident-Bytes without touching the cache
//	DELETE /v1/clips/{id} invalidate the clip's cached bytes immediately
//	                     (204; idempotent; X-Cache-Invalidated-Bytes reports
//	                     the freed bytes) without touching request statistics
//	GET  /v1/stats       accumulated cache statistics, aggregated over all
//	                     shards under one consistent snapshot (plus segment
//	                     counters on segmented servers)
//	GET  /v1/resident    resident clips with per-clip detail; supports
//	                     ?limit=/?offset= pagination, ?format=ids for the
//	                     bare-ID shape, and ?format=extents for each clip's
//	                     cached byte runs
//	GET  /v1/shards      per-shard requests, hits, occupancy and capacity
//	POST /v1/reset       clear the cache, statistics and policy state
//	GET  /v1/snapshot    gob-encoded persistent cache state (portable across
//	                     shard counts)
//	POST /v1/restore     restore a previously captured snapshot
//	GET  /v1/policies    policy specs the registry can build
//	GET  /v1/cluster     ring membership, per-peer breaker/digest state and
//	                     cooperative counters (clustered servers only)
//	GET  /v1/cluster/digest     this node's residency digest for peers
//	GET  /v1/cluster/clips/{id} peer-serve read: 200 iff fully resident
//	                     here; never touches local request statistics
//	GET  /v1/metrics     Prometheus text exposition: engine counters,
//	                     per-shard gauges, per-route HTTP latency histograms,
//	                     sweep-pool gauges
//	GET  /v1/healthz     liveness plus the used ≤ capacity invariant
//	GET  /v1/version     API version, go version, policy and build info
//
// Errors — including unmatched paths and wrong methods — are returned as a
// uniform JSON envelope {"error": "..."}; 405s carry an Allow header. Every
// response carries an X-Request-ID (propagated from the request when
// present), and each request is access-logged through log/slog. With -pprof
// the net/http/pprof profiles mount under /debug/pprof/.
//
// The failure and degradation layer (all off by default): -faults injects
// a deterministic, seed-replayable fault schedule into the clip route
// (errors → 502, stalls → 504 after the profile's hold, partial deliveries
// → 502, plus injected latency); -maxinflight sheds requests with 429 and
// a Retry-After hint once too many are in flight; -memlimit bypasses cache
// admission (stream, don't cache) while the process heap exceeds the
// bound. Injected faults, shed requests and the degraded-mode flag are all
// visible in /v1/metrics.
//
// Usage:
//
//	cacheserver -addr :8377 -policy dynsimple:2 -ratio 0.125 -alloc 4000000 [-shards 8]
//	            [-segment 268435456] [-prefix 2] [-ttl 5000] [-pprof] [-trace]
//	            [-faults p=0.05] [-maxinflight 256] [-memlimit 1073741824]
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime"

	"mediacache/internal/cluster"
	"mediacache/internal/fault"
	"mediacache/internal/media"
	"mediacache/internal/sim"
	"mediacache/internal/vtime"
	"mediacache/internal/zipf"
)

func main() {
	fs := flag.NewFlagSet("cacheserver", flag.ExitOnError)
	addr := fs.String("addr", ":8377", "listen address")
	policy := fs.String("policy", "dynsimple:2", "replacement policy spec")
	ratio := fs.Float64("ratio", 0.125, "cache size as a fraction of the repository")
	alloc := fs.Int64("alloc", 4_000_000, "per-stream network bandwidth in bits/second")
	admission := fs.Float64("admission", 0.5, "admission-control overhead in seconds")
	seed := fs.Uint64("seed", sim.DefaultSeed, "policy tie-break seed")
	shards := fs.Int("shards", runtime.GOMAXPROCS(0), "cache shard count (1 = the single serialized engine)")
	segment := fs.Int64("segment", 0, "segment size in bytes for segment-granular residency (0 = whole-clip caching)")
	prefix := fs.Int("prefix", 0, "pin the first N segments of every clip (requires -segment)")
	ttl := fs.Int64("ttl", 0, "clip time-to-live in virtual ticks; expired clips are invalidated (0 = no expiry)")
	pprofFlag := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	trace := fs.Bool("trace", false, "log every cache event (hit/miss/eviction/bypass/restore) at debug level")
	reqlogPath := fs.String("reqlog", "", "append an NDJSON request log (one api.RequestLogEntry per serviced clip reference) to this file, for cmd/traceql (\"\" disables, \"-\" = stdout)")
	faultsFlag := fs.String("faults", "", `fault-injection profile for the clip route, e.g. "p=0.05" or "error=0.1,timeout=0.05,latency=20ms" ("" or "off" disables)`)
	maxInFlight := fs.Int("maxinflight", 0, "shed requests with 429 once this many are in flight (0 = unbounded)")
	memLimit := fs.Uint64("memlimit", 0, "bypass cache admission while process heap exceeds this many bytes (0 = off)")
	nodeID := fs.String("node-id", "", "this node's cluster ring ID; joins the cooperative tier (\"\" = standalone)")
	peersFlag := fs.String("peers", "", `comma-separated ring peers as id=url pairs, e.g. "n2=http://10.0.0.2:8377,n3=http://10.0.0.3:8377"`)
	replicas := fs.Int("replicas", cluster.DefaultReplicas, "ring owners consulted per clip")
	hedge := fs.Duration("hedge", cluster.DefaultHedgeDelay, "delay before a peer read is hedged to the next replica")
	digestInterval := fs.Duration("digest-interval", cluster.DefaultDigestInterval, "period of the peer residency-digest refresh loop")
	peerAlloc := fs.Int64("peer-alloc", 100_000_000, "node-to-node link bandwidth in bits/second for peer-served misses")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	profile, err := fault.ParseProfile(*faultsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cacheserver: %v\n", err)
		os.Exit(2)
	}
	peers, err := parsePeers(*peersFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cacheserver: %v\n", err)
		os.Exit(2)
	}
	if *nodeID == "" && len(peers) > 0 {
		fmt.Fprintln(os.Stderr, "cacheserver: -peers requires -node-id")
		os.Exit(2)
	}

	level := slog.LevelInfo
	if *trace {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	var reqlog io.Writer
	if *reqlogPath == "-" {
		reqlog = os.Stdout
	} else if *reqlogPath != "" {
		f, err := os.OpenFile(*reqlogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cacheserver: opening reqlog: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		reqlog = f
	}

	srv, err := newServer(config{
		policy:         *policy,
		ratio:          *ratio,
		alloc:          media.BitsPerSecond(*alloc),
		admission:      *admission,
		seed:           *seed,
		shards:         *shards,
		segmentSize:    media.Bytes(*segment),
		prefixSegments: *prefix,
		ttl:            vtime.Duration(*ttl),
		logger:         logger,
		trace:          *trace,
		pprof:          *pprofFlag,
		reqlog:         reqlog,
		faults:         profile,
		maxInFlight:    *maxInFlight,
		memLimit:       *memLimit,
		cluster: clusterConfig{
			nodeID:         *nodeID,
			peers:          peers,
			replicas:       *replicas,
			hedgeDelay:     *hedge,
			digestInterval: *digestInterval,
			peerAlloc:      media.BitsPerSecond(*peerAlloc),
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cacheserver: %v\n", err)
		os.Exit(1)
	}
	if srv.cluster != nil {
		stop := srv.cluster.StartDigestLoop()
		defer stop()
	}
	logger.Info("cacheserver listening",
		slog.String("policy", srv.pool.PolicyName()),
		slog.String("addr", *addr),
		slog.String("cache", srv.pool.Capacity().String()),
		slog.Int("shards", srv.pool.NumShards()),
		slog.String("link", srv.alloc.String()),
		slog.Bool("pprof", *pprofFlag),
	)
	if err := http.ListenAndServe(*addr, srv); err != nil {
		logger.Error("cacheserver exited", slog.Any("err", err))
		os.Exit(1)
	}
}

// pmfFor computes the true request frequencies the off-line Simple policy
// needs; on-line policies ignore it.
func pmfFor(repo *media.Repository) ([]float64, error) {
	dist, err := zipf.New(repo.N(), zipf.DefaultMean)
	if err != nil {
		return nil, err
	}
	return dist.PMF(), nil
}
