GO ?= go
BENCH_DATE := $(shell date +%Y-%m-%d)

.PHONY: build test vet race racecheck alloccheck rangecheck loadcheck churncheck clustercheck tracecheck benchcheck check bench loadbench benchcmp fuzz-smoke

# Each fuzz target gets a short smoke budget; go test allows only one
# -fuzz pattern per invocation, so targets run sequentially.
FUZZTIME ?= 10s

# run-matched runs `go test $(4) -run $(1)` over the packages $(2), after
# checking with `go test -list` that the pattern names at least $(3) tests
# (default 1) in every one of them: a gate must fail, not shrink, when a test
# it selects by regex is renamed. $(4) is optional extra flags (-race).
define run-matched
	@for pkg in $(2); do \
		n=$$($(GO) test -list $(1) $$pkg | grep -c '^Test'); \
		if [ "$$n" -lt $(or $(3),1) ]; then \
			echo "$@: pattern matches $$n tests in $$pkg, want at least $(or $(3),1)" >&2; exit 1; \
		fi; \
	done
	$(GO) test $(4) -run $(1) -count=1 $(2)
endef

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# racecheck reruns the concurrency-heavy packages — the sharded pool, its
# metrics adapter and the server's chaos drives (fault injection and the
# concurrent GET/DELETE/expiry churn drive) — under the race detector
# with fresh state each time, to shake out order-dependent interleavings
# a single pass can miss. `race` already covers every package once.
racecheck:
	$(GO) test -race -count=2 ./internal/shard ./internal/obs ./cmd/cacheserver

# alloccheck asserts the allocation guarantees: with no observer installed,
# core.Cache.Request allocates nothing on the request path (an attached
# observer adds none either), a full cache's evicting miss allocates
# nothing, and in an eviction-heavy steady state every ranked policy serves
# a hit and selects victims without allocating.
alloccheck:
	$(call run-matched,'TestRequestZeroAllocsNilObserver|TestRequestAllocsUnchangedWithObserver|TestEvictingMissZeroAllocs|TestVictimsZeroAllocsSteadyState',./internal/core,4)

# rangecheck runs the partial-content conformance surface: the HTTP Range
# suite (206/200/416, HEAD, extents), the segmented engine and pool tests,
# and the per-segment byte-identity property under faults.
rangecheck:
	$(call run-matched,'Range|Segment|HeadClip|Extents|Coalescing',./internal/core ./internal/shard ./cmd/cacheserver)

# loadcheck is the open-loop load smoke: a short fixed-seed loadgen run
# (in-process pool, batched arrivals, 10% fault profile) that must sustain
# nonzero throughput and leave the engine statistics satisfying the
# counting and byte identities.
loadcheck:
	$(GO) run ./cmd/loadgen -check

# churncheck runs the catalog-churn conformance surface: the churn grammar
# and generator, the invalidation/TTL property suite over every registry
# policy, the 1-shard-equals-bare differential with TTL, the DELETE route
# and its client fallback, and the churn experiment's determinism.
churncheck:
	$(call run-matched,'Churn|Invalidate|TTL|Expir|Delete',./internal/workload ./internal/core \
		./internal/shard ./internal/sim ./internal/cacheclient ./cmd/cacheserver)

# clustercheck runs the cooperative-tier conformance surface under the race
# detector: the consistent-hash ring, digest verdicts, hedged peer reads,
# the retry/breaker client (incl. Retry-After parsing), snapshot rebalance
# across shard counts, the cooperative in-process model's fault accounting,
# and the multi-node chaos drive (node loss + partition + slow peers).
clustercheck:
	$(call run-matched,'Cluster|Ring|Digest|Hedge|RetryAfter|Rebalance|Coop|UnionCoverage|PartialPeer|Degraded',./internal/cluster \
		./internal/cacheclient ./internal/shard ./internal/coop ./cmd/cacheserver,,-race)

# tracecheck runs the sessionized-analytics conformance surface (ISSUE 10):
# the trace v2 schema round-trips and golden bytes, the Source-face
# byte-identity regressions, the query engine goldens, the traceql CLI, and
# the measure→model→replay loop — reqlog → traceql -fit → replay matching
# the recorded per-session hit rate and inter-arrival percentiles.
tracecheck:
	$(call run-matched,'Source|Trace|Session|Query|Report|Fit|ReqLog|ClientID|Golden',./internal/workload ./internal/trace \
		./internal/sim ./cmd/traceql ./cmd/tracegen ./cmd/loadgen ./cmd/cacheserver)

# benchcheck vets and tests the repository benchmark. bench/ is a module of
# its own (it replaces mediacache with this checkout), so `go build ./...`
# and `go test ./...` at the root never compile it, yet it calls the
# internal/core and internal/shard API directly.
benchcheck:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# check is the tier-1 gate plus static analysis, the race detector, the
# request-path allocation assertion, the Range-conformance surface, the
# open-loop load smoke, the catalog-churn surface, the cooperative cluster
# surface, the sessionized-analytics surface and the nested benchmark
# module. vet and test cover every package of the root module, including
# internal/metrics and internal/obs.
check: build vet test race alloccheck rangecheck loadcheck churncheck clustercheck tracecheck benchcheck

# bench runs the full benchmark suite and archives the run as test2json
# events (one dated file per day; reruns overwrite).
bench:
	$(GO) test -run '^$$' -bench=. -benchmem -json . | tee BENCH_$(BENCH_DATE).json

# loadbench sweeps the open-loop generator across offered rates and
# archives the latency table next to the benchmark archives (the -load
# suffix keeps it from clobbering the same-day `make bench` file).
LOADRATES ?= 2000,10000,50000,200000
loadbench:
	$(GO) run ./cmd/loadgen -rates $(LOADRATES) -duration 2s -batch 8 -error-rate 0.05 \
		-json BENCH_$(BENCH_DATE)-load.json

# benchcmp summarizes the newest archived run (baseline-vs-indexed speedup
# table), or compares two archives: make benchcmp OLD=BENCH_a.json NEW=BENCH_b.json
BENCHFILE ?= $(lastword $(sort $(wildcard BENCH_*.json)))
benchcmp:
	$(GO) run ./cmd/benchcmp $(if $(OLD),$(OLD) $(NEW),$(BENCHFILE))

# fuzz-smoke gives every fuzz target a short randomized shake-out beyond
# its checked-in seed corpus. CI runs this on every push.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime $(FUZZTIME) ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime $(FUZZTIME) ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzParseChurn$$' -fuzztime $(FUZZTIME) ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzReadRepositoryCSV$$' -fuzztime $(FUZZTIME) ./internal/media
	$(GO) test -run '^$$' -fuzz '^FuzzParseProfile$$' -fuzztime $(FUZZTIME) ./internal/fault
	$(GO) test -run '^$$' -fuzz '^FuzzParseFit$$' -fuzztime $(FUZZTIME) ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzParseQuery$$' -fuzztime $(FUZZTIME) ./internal/trace
