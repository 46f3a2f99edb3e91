package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"mediacache/internal/api"
	"mediacache/internal/cluster"
	"mediacache/internal/core"
	"mediacache/internal/fault"
	"mediacache/internal/media"
	"mediacache/internal/metrics"
	"mediacache/internal/netsim"
	"mediacache/internal/obs"
	"mediacache/internal/policy/registry"
	"mediacache/internal/shard"
	"mediacache/internal/sim"
	"mediacache/internal/vtime"
)

// config bundles everything newServer needs. Zero values are invalid for
// policy/ratio/alloc; logger nil means "discard"; shards <= 0 means one
// shard (the single-engine layout every pre-sharding deployment ran).
type config struct {
	policy    string
	ratio     float64
	alloc     media.BitsPerSecond
	admission float64
	seed      uint64
	shards    int // cache shard count; <= 0 means 1
	// segmentSize > 0 switches every shard to segment-granular residency
	// (clips divide into fixed-size segments, Range requests are serviced
	// per segment); prefixSegments pins the first N segments of every clip.
	segmentSize    media.Bytes
	prefixSegments int
	// ttl > 0 gives every cached clip a time-to-live of that many virtual
	// ticks: expired clips are invalidated lazily on access and by an
	// amortized sweep, and DELETE /v1/clips/{id} drops a clip immediately.
	// 0 disables expiry (the pre-churn behaviour).
	ttl    vtime.Duration
	logger *slog.Logger // access log + event traces; nil discards
	trace  bool         // log every cache event at debug level
	pprof  bool         // mount net/http/pprof under /debug/pprof/
	// reqlog receives the NDJSON request log (-reqlog); nil disables it.
	reqlog io.Writer

	// Failure and degradation layer (degrade.go). The zero values disable
	// all three mechanisms.
	faults      fault.Profile // injected fault schedule on the clip route
	maxInFlight int           // shed requests beyond this bound (0 = unbounded)
	memLimit    uint64        // bypass admission above this heap size (0 = off)

	// Cooperative cluster tier (cluster.go). Zero nodeID = standalone.
	cluster clusterConfig
}

// server wires a device cache into an http.Handler. The cache is a
// hash-partitioned pool of single-threaded engines (internal/shard): each
// shard owns a slice of the clip-ID space, its own policy instance and its
// own lock, so requests for clips on different shards proceed in parallel
// while each engine keeps the paper's one-device semantics. With -shards 1
// the pool degenerates to exactly the single serialized engine earlier
// versions ran. Engine events flow through the core observer hook into the
// metrics registry (and, with -trace, into slog).
type server struct {
	pool       *shard.Pool
	alloc      media.BitsPerSecond
	admission  netsim.Seconds
	policySpec string
	reg        *metrics.Registry
	log        *slog.Logger
	mux        *http.ServeMux
	handler    http.Handler // middleware-wrapped mux
	chaos      *chaos       // nil when fault injection is off
	shed       *shedder
	guard      *memGuard
	cluster    *cluster.Cluster // nil when -node-id is unset (standalone)
	peerAlloc  media.BitsPerSecond
	digestSeq  atomic.Uint64
	reqlog     *reqLogger // nil when -reqlog is unset
}

// newServer builds the cache pool per the CLI configuration and mounts the
// API.
func newServer(cfg config) (*server, error) {
	if cfg.alloc <= 0 {
		return nil, fmt.Errorf("link bandwidth must be positive, got %v", cfg.alloc)
	}
	if cfg.ratio <= 0 || cfg.ratio >= 1 {
		return nil, fmt.Errorf("cache ratio must be in (0, 1), got %v", cfg.ratio)
	}
	repo := media.PaperRepository()
	pmf, err := pmfFor(repo)
	if err != nil {
		return nil, err
	}
	log := cfg.logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if err := cfg.faults.Validate(); err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	guard := newMemGuard(cfg.memLimit, reg)
	// Every shard shares the registry-backed counters (registration is
	// idempotent) but owns its observer instance, whose unexported state is
	// guarded by that shard's lock.
	shardOptions := func(int) []core.Option {
		observer := core.Observer(obs.NewCacheMetrics(reg))
		if cfg.trace {
			observer = core.CombineObservers(observer, obs.NewTracer(log))
		}
		opts := []core.Option{core.WithObserver(observer)}
		if cfg.memLimit > 0 {
			opts = append(opts, core.WithAdmission(guard.admission))
		}
		return opts
	}
	pool, err := shard.New(shard.Config{
		Policy:         cfg.policy,
		Repo:           repo,
		PMF:            pmf,
		Capacity:       repo.CacheSizeForRatio(cfg.ratio),
		Seed:           cfg.seed,
		Shards:         cfg.shards,
		SegmentSize:    cfg.segmentSize,
		PrefixSegments: cfg.prefixSegments,
		TTL:            cfg.ttl,
		ShardOptions:   shardOptions,
	})
	if err != nil {
		return nil, err
	}
	s := &server{
		pool:       pool,
		alloc:      cfg.alloc,
		admission:  netsim.Seconds(cfg.admission),
		policySpec: cfg.policy,
		reg:        reg,
		log:        log,
		mux:        http.NewServeMux(),
		shed:       newShedder(cfg.maxInFlight, reg),
		guard:      guard,
	}
	if cfg.reqlog != nil {
		s.reqlog = newReqLogger(cfg.reqlog, pool.PolicyName())
	}
	if cfg.faults.Enabled() {
		s.chaos = newChaos(cfg.faults, cfg.seed, reg)
	}
	s.registerCacheGauges()
	// Register the sweep-pool gauges and adopt the process-wide pool
	// observer: a server embedding batch sweeps (warmup, offline analysis)
	// reports them through the same /v1/metrics page. Idle servers expose
	// the family at zero.
	sim.SetPoolObserver(obs.NewPoolMetrics(reg))
	// Versioned API. Method+wildcard patterns give automatic 405s (with an
	// Allow header) for wrong methods on a known path; the JSON-error
	// middleware rewrites those, and 404s, into the uniform envelope.
	routes := []struct {
		pattern string
		handler http.HandlerFunc
	}{
		{"GET /clips/{id}", s.handleClip},
		{"HEAD /clips/{id}", s.handleHeadClip},
		{"DELETE /clips/{id}", s.handleDeleteClip},
		{"POST /batch", s.handleBatch},
		{"GET /stats", s.handleStats},
		{"GET /resident", s.handleResident},
		{"POST /reset", s.handleReset},
		{"GET /snapshot", s.handleSnapshot},
		{"POST /restore", s.handleRestore},
		{"GET /policies", s.handlePolicies},
		{"GET /shards", s.handleShards},
		{"GET /metrics", s.handleMetrics},
		{"GET /healthz", s.handleHealthz},
		{"GET /version", s.handleVersion},
	}
	for _, rt := range routes {
		method, path, _ := strings.Cut(rt.pattern, " ")
		v1 := method + " " + api.Version + path
		handler := rt.handler
		if s.chaos != nil && rt.pattern == "GET /clips/{id}" {
			// The flaky link only affects clip fetches; the control and
			// observability routes stay reliable. Instrumenting outside the
			// chaos wrapper keeps injected latency visible in the route's
			// latency histogram.
			handler = s.chaos.wrap(handler)
		}
		s.mux.Handle(v1, s.instrument(v1, handler))
	}
	if cfg.cluster.nodeID != "" {
		if err := s.initCluster(cfg.cluster); err != nil {
			return nil, err
		}
	}
	if cfg.pprof {
		s.mountPprof()
	}
	s.handler = withRequestID(withAccessLog(log, s.withHTTPMetrics(s.shed.wrap(withJSONErrors(s.mux)))))
	return s, nil
}

// ServeHTTP implements http.Handler through the middleware chain:
// request-id → access log → HTTP metrics → load shed → JSON 404/405
// rewrite → mux.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// writeError reports an error as the uniform JSON envelope.
func writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	writeErrorHeaderless(w, status, format, args...)
}

// writeErrorHeaderless is writeError for callers that have already set the
// content type (the 404/405 rewriter, whose header map is shared with the
// wrapped writer).
func writeErrorHeaderless(w http.ResponseWriter, status int, format string, args ...interface{}) {
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(api.Error{Error: fmt.Sprintf(format, args...)})
}

// handleClip services GET /v1/clips/{id}, the partial-content clip API. A
// Range header selects a byte range: valid single ranges are serviced at
// segment granularity (206 + Content-Range; 200 when the range spans a fully
// resident clip), unsatisfiable or multi-range requests answer 416 with
// Content-Range: bytes */size, and malformed or non-bytes ranges are ignored
// per RFC 9110 (full response, 200). A Range combined with If-Range is also
// ignored — the simulator has no validators to compare, and RFC 9110 §13.1.5
// says to ignore If-Range (and serve the full representation) when its
// validator cannot match.
func (s *server) handleClip(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	raw := r.PathValue("id")
	id, err := strconv.Atoi(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad clip id %q", raw)
		return
	}
	clip, ok := s.pool.Repository().Lookup(media.ClipID(id))
	if !ok {
		writeError(w, http.StatusNotFound, "clip %d not in repository", id)
		return
	}
	if hdr := r.Header.Get("Range"); hdr != "" && r.Header.Get("If-Range") == "" {
		rng, rerr := parseRange(hdr, clip.Size)
		if rerr != nil {
			w.Header().Set("Content-Range", fmt.Sprintf("bytes */%d", clip.Size))
			writeError(w, http.StatusRequestedRangeNotSatisfiable, "%v: %q", rerr, hdr)
			return
		}
		if rng != nil {
			s.serveClipRange(w, r, clip, *rng, start)
			return
		}
		// Malformed or non-bytes range: fall through to the full response.
	}
	// Clustered nodes consult the clip's ring owners before the local engine
	// books the miss: the engine's accounting is identical either way, but a
	// peer win charges startup latency to the peer link, not the origin.
	peer, peerHit := s.consultPeers(r, clip)
	out, err := s.pool.Request(clip.ID)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	resp := api.Clip{
		Clip:      clip.ID,
		Kind:      clip.Kind.String(),
		SizeBytes: int64(clip.Size),
		Outcome:   out.String(),
		Hit:       out.IsHit(),
	}
	if !out.IsHit() {
		alloc := s.alloc
		if peerHit {
			resp.Peer = peer
			alloc = s.peerAlloc
		}
		lat, err := netsim.StartupLatency(clip, alloc, s.admission)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		resp.LatencySeconds = float64(lat)
	}
	s.decorateSegmented(&resp, clip)
	s.decorateTTL(&resp, clip.ID)
	s.logClip(r, clip, nil, resp.Outcome, resp.Hit, http.StatusOK, resp.LatencySeconds, resp.Peer, start)
	w.Header().Set("Accept-Ranges", "bytes")
	writeJSON(w, resp)
}

// decorateTTL attaches the clip's expiry tick on TTL-enabled servers. A
// no-op otherwise — and for non-resident clips, whose deadline is zero and
// therefore omitted — so pre-churn responses stay byte-identical.
func (s *server) decorateTTL(resp *api.Clip, id media.ClipID) {
	if s.pool.TTL() > 0 {
		resp.ExpiresAtTick = int64(s.pool.DeadlineOf(id))
	}
}

// handleDeleteClip services DELETE /v1/clips/{id}: drop the clip's cached
// bytes immediately — the catalog invalidation a publisher issues when a
// clip is replaced or withdrawn. Invalidation is not a request and not an
// eviction: it leaves the request counters and the hit/miss identities
// untouched. Idempotent — deleting a non-resident clip answers 204 with
// zero freed bytes; only an id outside the repository is 404. The freed
// byte count is reported in X-Cache-Invalidated-Bytes.
func (s *server) handleDeleteClip(w http.ResponseWriter, r *http.Request) {
	raw := r.PathValue("id")
	id, err := strconv.Atoi(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad clip id %q", raw)
		return
	}
	if _, ok := s.pool.Repository().Lookup(media.ClipID(id)); !ok {
		writeError(w, http.StatusNotFound, "clip %d not in repository", id)
		return
	}
	freed := s.pool.Invalidate(media.ClipID(id))
	w.Header().Set("X-Cache-Invalidated-Bytes", strconv.FormatInt(int64(freed), 10))
	w.WriteHeader(http.StatusNoContent)
}

// handleStats services GET /v1/stats: every shard's counters aggregated
// under one consistent snapshot. The shards field appears only on sharded
// pools, keeping single-shard responses byte-identical to pre-sharding
// servers.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	var (
		st       core.Stats
		resident int
		segments int
		used     media.Bytes
		capacity media.Bytes
	)
	for _, sh := range s.pool.ShardStats() {
		st = st.Add(sh.Stats)
		resident += sh.NumResident
		segments += sh.ResidentSegments
		used += sh.UsedBytes
		capacity += sh.Capacity
	}
	resp := api.Stats{
		Policy:         s.pool.PolicyName(),
		Requests:       st.Requests,
		Hits:           st.Hits,
		HitRate:        st.HitRate(),
		ByteHitRate:    st.ByteHitRate(),
		Evictions:      st.Evictions,
		BytesFetched:   int64(st.BytesFetched),
		BytesFailed:    int64(st.BytesFailed),
		DegradedMisses: st.FetchFailed,
		ResidentClips:  resident,
		UsedBytes:      int64(used),
		CapacityBytes:  int64(capacity),
		BypassedMisses: st.Bypassed,
		VictimCalls:    st.VictimCalls,
	}
	if n := s.pool.NumShards(); n > 1 {
		resp.Shards = n
	}
	// The segment fields appear only on segmented servers, keeping the
	// pre-segment wire shape byte-identical (the compat golden test).
	if segSize := s.pool.SegmentSize(); segSize > 0 {
		resp.SegmentSizeBytes = int64(segSize)
		resp.PrefixSegments = s.pool.PrefixSegments()
		resp.ResidentSegments = segments
		resp.PartialHits = st.PartialHits
		resp.SegmentsFetched = st.SegmentsFetched
		resp.SegmentsEvicted = st.SegmentsEvicted
	}
	// Catalog-dynamics counters: omitempty hides them on TTL-off servers
	// that never invalidated, keeping the pre-churn wire shape
	// byte-identical (TestPreChurnWireCompat in internal/api).
	resp.Invalidated = st.Invalidated
	resp.Expired = st.Expired
	resp.BytesInvalidated = int64(st.BytesInvalidated)
	if ttl := s.pool.TTL(); ttl > 0 {
		resp.TTLTicks = int64(ttl)
	}
	writeJSON(w, resp)
}

// handleShards services GET /v1/shards: the pool's per-shard occupancy and
// hit statistics, in shard-index order, from one consistent snapshot.
func (s *server) handleShards(w http.ResponseWriter, r *http.Request) {
	stats := s.pool.ShardStats()
	resp := api.Shards{Shards: make([]api.Shard, len(stats))}
	for i, sh := range stats {
		resp.Shards[i] = api.Shard{
			Shard:            sh.Index,
			Requests:         sh.Stats.Requests,
			Hits:             sh.Stats.Hits,
			HitRate:          sh.Stats.HitRate(),
			ResidentClips:    sh.NumResident,
			ResidentSegments: sh.ResidentSegments,
			UsedBytes:        int64(sh.UsedBytes),
			CapacityBytes:    int64(sh.Capacity),
		}
	}
	writeJSON(w, resp)
}

// queryInt parses a non-negative integer query parameter, with def for
// absent.
func queryInt(r *http.Request, name string, def int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad %s %q: want a non-negative integer", name, raw)
	}
	return v, nil
}

// handleResident services GET /v1/resident with ?limit=/?offset= pagination.
// The default format lists per-clip detail (id, kind, sizeBytes); ?format=ids
// serves the bare-ID shape pre-pagination clients expect; ?format=extents
// lists each resident clip's cached byte runs — the segment-aware view, where
// partially resident clips show exactly which extents are cached.
func (s *server) handleResident(w http.ResponseWriter, r *http.Request) {
	limit, err := queryInt(r, "limit", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	offset, err := queryInt(r, "offset", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	format := r.URL.Query().Get("format")
	switch format {
	case "", "ids", "detail", "extents":
	default:
		writeError(w, http.StatusBadRequest, "bad format %q: want \"ids\", \"detail\" or \"extents\"", format)
		return
	}

	// One consistent pool snapshot, merged ascending by ID; byte occupancy
	// derives from the same snapshot so used+free always equals capacity.
	// Used bytes count resident bytes, not clip sizes: on a segmented pool
	// a partially resident clip occupies only its cached segments.
	all, used := s.pool.Residency()
	free := s.pool.Capacity() - used
	total := len(all)
	// Page in ascending-ID order. offset past the end is an empty page,
	// not an error, so clients can walk until exhaustion.
	if offset > total {
		offset = total
	}
	page := all[offset:]
	if limit > 0 && limit < len(page) {
		page = page[:limit]
	}

	switch format {
	case "ids":
		ids := make([]media.ClipID, len(page))
		for i, c := range page {
			ids[i] = c.Clip.ID
		}
		writeJSON(w, api.ResidentIDs{Clips: ids, UsedBytes: int64(used), FreeBytes: int64(free)})
	case "extents":
		clips := make([]api.ClipExtents, len(page))
		for i, c := range page {
			exts := make([]api.ResidentExtent, len(c.Extents))
			for j, e := range c.Extents {
				exts[j] = api.ResidentExtent{OffsetBytes: int64(e.Start), LengthBytes: int64(e.Length)}
			}
			clips[i] = api.ClipExtents{
				ID:            c.Clip.ID,
				SizeBytes:     int64(c.Clip.Size),
				BytesResident: int64(c.Bytes),
				Extents:       exts,
			}
		}
		writeJSON(w, api.ResidentExtents{
			Clips:            clips,
			Total:            total,
			Offset:           offset,
			Limit:            limit,
			SegmentSizeBytes: int64(s.pool.SegmentSize()),
			UsedBytes:        int64(used),
			FreeBytes:        int64(free),
		})
	default:
		clips := make([]api.ResidentClip, len(page))
		for i, c := range page {
			clips[i] = api.ResidentClip{ID: c.Clip.ID, Kind: c.Clip.Kind.String(), SizeBytes: int64(c.Clip.Size)}
		}
		writeJSON(w, api.Resident{
			Clips:     clips,
			Total:     total,
			Offset:    offset,
			Limit:     limit,
			UsedBytes: int64(used),
			FreeBytes: int64(free),
		})
	}
}

// handleReset services POST /v1/reset.
func (s *server) handleReset(w http.ResponseWriter, r *http.Request) {
	s.pool.Reset()
	w.WriteHeader(http.StatusNoContent)
}

// handleSnapshot services GET /v1/snapshot: the pool's persistent state as
// a gob-encoded core.Snapshot, suitable for POSTing back to /v1/restore
// after a restart (the FMC device's disk-backed cache surviving a power
// cycle). Snapshots are portable across shard counts: restore re-partitions
// the resident set by the routing hash.
func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	snap := s.pool.Snapshot()
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := snap.WriteSnapshot(w); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// handleRestore services POST /v1/restore with a gob snapshot body.
func (s *server) handleRestore(w http.ResponseWriter, r *http.Request) {
	snap, err := core.ReadSnapshot(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.pool.Restore(snap); err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handlePolicies services GET /v1/policies: the policy specs the registry
// can build (including any registered out-of-tree) and the one this server
// is running.
func (s *server) handlePolicies(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, api.Policies{
		Current:  s.pool.PolicyName(),
		Policies: registry.Usages(),
	})
}

// writeJSON encodes v with an application/json content type.
func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	writeJSONBody(w, v)
}

// writeJSONBody encodes v after headers have been decided.
func writeJSONBody(w http.ResponseWriter, v interface{}) {
	if err := json.NewEncoder(w).Encode(v); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}
