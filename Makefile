# Tier-1 verification and CI targets.
#
#   make tier1       build + vet + test          (the ROADMAP tier-1 gate)
#   make lint        gofmt -l empty + go vet (+ staticcheck when installed)
#   make race        full suite under -race      (guards the parallel runner)
#   make ci          tier1 + race
#   make bench       paper-regeneration + scheduler benchmarks
#   make race-live   loopback server/client under -race (live network path)
#   make profile     cpu.pprof + mem.pprof of a full-matrix run (go tool pprof)
#   make bench-json  run committed benchmarks, write $(BENCH_JSON) trajectory
#   make bench-diff  compare $(BENCH_OLD) vs $(BENCH_NEW), fail on allocs/op regression
#   make fuzz-smoke  run every fuzz target briefly (native Go fuzzing)
#   make cover       whole-repo coverage.out + enforce the faults/sweep/fleet floors
#   make sweep-smoke kill a sweep with SIGKILL, resume it, diff vs uninterrupted
#   make fleet-load  10k-session loadgen under -race with a heap ceiling
#   make fleet-cluster  root + 3 collectors over the wire, SIGKILL one mid-run
#   make sweep-shard-cluster  coordinator + 3 shard workers over loopback,
#                             SIGKILL one mid-run, merged export must be
#                             byte-identical to the single-process sweep

GO ?= go

.PHONY: all build vet test lint race race-core race-live tier1 ci bench profile bench-json bench-diff fuzz-smoke cover sweep-smoke fleet-load fleet-cluster sweep-shard-cluster

all: tier1

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# lint fails when any file needs gofmt, then vets. staticcheck runs only
# when present on PATH (CI images without it skip with a note rather than
# requiring a network install).
lint:
	@fmtout="$$(gofmt -l .)"; \
	if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (gofmt + go vet ran)"; \
	fi

# race runs everything under the race detector; race-core is the quick
# loop for the parallel study scheduler.
race:
	$(GO) test -race ./...

race-core:
	$(GO) test -race ./internal/core/...

# race-live exercises the real-socket path (loopback only): the live
# measurement server, its drain/observability wiring and the client
# drivers, with a timeout so a hung drain fails fast instead of wedging CI.
race-live:
	$(GO) test -race -timeout 180s ./internal/server/... ./internal/liveclient/...

tier1: build vet test

ci: tier1 race

bench:
	$(GO) test -bench=. -benchmem .

# profile captures pprof CPU and allocation profiles of a representative
# full-matrix study (the Figure 3 workload the allocation work targets).
# Inspect with `go tool pprof -top mem.pprof` or the pprof web UI; the
# allocation war is fought from the alloc_objects view of mem.pprof.
PROFILE_RUNS ?= 20
profile:
	$(GO) run ./cmd/appraise -fig 3 -runs $(PROFILE_RUNS) \
		-cpuprofile cpu.pprof -memprofile mem.pprof >/dev/null
	@echo "wrote cpu.pprof and mem.pprof (inspect: go tool pprof -top mem.pprof)"

# bench-json runs every committed benchmark and converts the output into
# the perf-trajectory snapshot BENCH_<pr>.json (ns/op, B/op, allocs/op
# per benchmark). BENCHTIME=3x trades a little CI time for numbers that
# are not single-iteration noise; override with BENCHTIME=100ms (or more)
# for lower-variance local runs. The setting is recorded in the snapshot
# header so downstream diffs know what they are looking at.
BENCH_JSON ?= BENCH_ci.json
BENCHTIME ?= 3x
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) ./... > bench.out
	$(GO) run ./cmd/benchjson -in bench.out -benchtime $(BENCHTIME) -out $(BENCH_JSON)
	@rm -f bench.out

# bench-diff compares two trajectory snapshots and exits non-zero when
# any benchmark's allocs/op regressed past 20% or ns/op past 25% (above
# the 1µs noise floor). Baseline discovery lives in benchdiff itself
# (numerically highest committed BENCH_<n>.json, loud error when none
# exists — the logic is unit-tested in cmd/benchdiff); override with
# BENCH_OLD=.... On GitHub runners benchdiff also appends a Markdown
# delta table to $GITHUB_STEP_SUMMARY.
BENCH_OLD ?=
BENCH_NEW ?= BENCH_ci.json
bench-diff:
	$(GO) run ./cmd/benchdiff $(if $(BENCH_OLD),-old $(BENCH_OLD)) -new $(BENCH_NEW)

# fuzz-smoke runs each native fuzz target briefly. Go allows one -fuzz
# target per invocation, so the budget is split across the eight. The
# weekly extended run (.github/workflows/fuzz-weekly.yml) uses the same
# target with FUZZTIME=100s.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -fuzz '^FuzzPacketParse$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/netsim/
	$(GO) test -fuzz '^FuzzParseRequest$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/httpsim/
	$(GO) test -fuzz '^FuzzParseResponse$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/httpsim/
	$(GO) test -fuzz '^FuzzManifestParse$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/sweep/
	$(GO) test -fuzz '^FuzzCellDecode$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/sweep/
	$(GO) test -fuzz '^FuzzWireDecode$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/fleetwire/
	$(GO) test -fuzz '^FuzzControlDecode$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/shard/
	$(GO) test -fuzz '^FuzzAppendMs$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/stats/

# cover writes the whole-repo profile to coverage.out (the CI artifact)
# and enforces the statement-coverage floors on the fault-injection
# layer, the sweep cache, and the fleet aggregation plane (whose
# correctness claims rest on their tests).
FAULTS_COVER_MIN ?= 85
SWEEP_COVER_MIN ?= 85
FLEET_COVER_MIN ?= 85
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) test -coverprofile=coverage_faults.out ./internal/faults/
	@total="$$($(GO) tool cover -func=coverage_faults.out | awk '/^total:/ {gsub(/%/, "", $$3); print $$3}')"; \
	echo "internal/faults coverage: $$total% (floor $(FAULTS_COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(FAULTS_COVER_MIN)" 'BEGIN { exit (t+0 >= min+0) ? 0 : 1 }' || \
		{ echo "internal/faults coverage below floor"; exit 1; }
	@rm -f coverage_faults.out
	$(GO) test -coverprofile=coverage_sweep.out ./internal/sweep/
	@total="$$($(GO) tool cover -func=coverage_sweep.out | awk '/^total:/ {gsub(/%/, "", $$3); print $$3}')"; \
	echo "internal/sweep coverage: $$total% (floor $(SWEEP_COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(SWEEP_COVER_MIN)" 'BEGIN { exit (t+0 >= min+0) ? 0 : 1 }' || \
		{ echo "internal/sweep coverage below floor"; exit 1; }
	@rm -f coverage_sweep.out
	$(GO) test -coverprofile=coverage_fleet.out ./internal/fleet/
	@total="$$($(GO) tool cover -func=coverage_fleet.out | awk '/^total:/ {gsub(/%/, "", $$3); print $$3}')"; \
	echo "internal/fleet coverage: $$total% (floor $(FLEET_COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(FLEET_COVER_MIN)" 'BEGIN { exit (t+0 >= min+0) ? 0 : 1 }' || \
		{ echo "internal/fleet coverage below floor"; exit 1; }
	@rm -f coverage_fleet.out

# sweep-smoke proves the kill/resume contract end to end on the real CLI:
# a cold sweep is SIGKILLed mid-flight (no chance to clean up), resumed
# from its manifest, and the resumed CSV must be byte-identical to an
# uninterrupted sweep of the same configuration in a fresh cache. The runs
# count is sized so the cold sweep takes tens of seconds — long enough
# that the 2 s SIGKILL reliably lands mid-sweep.
SWEEP_SMOKE_DIR ?= sweep-smoke.tmp
SWEEP_SMOKE_RUNS ?= 2500
SWEEP_SMOKE_FLAGS = -sweep -runs $(SWEEP_SMOKE_RUNS) -seed 42 -faults clean,lossy1pct
sweep-smoke:
	rm -rf $(SWEEP_SMOKE_DIR)
	mkdir -p $(SWEEP_SMOKE_DIR)
	$(GO) build -o $(SWEEP_SMOKE_DIR)/appraise ./cmd/appraise
	-timeout -s KILL 2 $(SWEEP_SMOKE_DIR)/appraise $(SWEEP_SMOKE_FLAGS) \
		-cache-dir $(SWEEP_SMOKE_DIR)/killed >/dev/null 2>&1
	test -f $(SWEEP_SMOKE_DIR)/killed/manifest.jsonl
	$(SWEEP_SMOKE_DIR)/appraise $(SWEEP_SMOKE_FLAGS) -resume \
		-cache-dir $(SWEEP_SMOKE_DIR)/killed -csv $(SWEEP_SMOKE_DIR)/resumed.csv >/dev/null
	$(SWEEP_SMOKE_DIR)/appraise $(SWEEP_SMOKE_FLAGS) \
		-cache-dir $(SWEEP_SMOKE_DIR)/cold -csv $(SWEEP_SMOKE_DIR)/cold.csv >/dev/null
	cmp $(SWEEP_SMOKE_DIR)/resumed.csv $(SWEEP_SMOKE_DIR)/cold.csv
	@echo "sweep-smoke: resumed export is byte-identical to an uninterrupted sweep"
	@rm -rf $(SWEEP_SMOKE_DIR)

# fleet-load is the CI-sized live-observability load proof: 10k concurrent
# synthetic sessions ingested under the race detector, with loadgen's own
# assertions (session floor, sample conservation, /metrics byte-stability)
# plus a live-heap ceiling. The full 100k-session shape documented in
# EXPERIMENTS.md is the same binary without -race and with the defaults.
FLEET_SESSIONS ?= 10000
FLEET_ROUNDS ?= 3
FLEET_HEAP_MB ?= 192
fleet-load:
	$(GO) run -race ./cmd/loadgen -sessions $(FLEET_SESSIONS) -rounds $(FLEET_ROUNDS) \
		-assert-heap-mb $(FLEET_HEAP_MB)

# fleet-cluster proves the multi-node observability plane end to end on
# real binaries: a bmagg root plus three loadgen collectors shipping
# delta-sketch frames over HTTP, all built with -race. One collector is
# SIGKILLed mid-run; the root must keep serving /readyz, /metrics (byte-
# stable double scrape) and /live/history with the survivors' frames
# still merging. The in-process proofs run first under -race: cluster
# rows exactly equal to each collector's local snapshot regardless of
# frame arrival order, duplicate/gap/version fault paths, and the
# never-block uplink contract.
FLEET_CLUSTER_DIR ?= fleet-cluster.tmp
FLEET_CLUSTER_PORT ?= 19410
fleet-cluster:
	$(GO) test -race -count=1 -run 'TestCluster|TestAggregator|TestUplink|TestFourNode' \
		./internal/fleet/ ./internal/fleetwire/
	rm -rf $(FLEET_CLUSTER_DIR)
	mkdir -p $(FLEET_CLUSTER_DIR)
	$(GO) build -race -o $(FLEET_CLUSTER_DIR)/bmagg ./cmd/bmagg
	$(GO) build -race -o $(FLEET_CLUSTER_DIR)/loadgen ./cmd/loadgen
	@set -e; \
	root=http://127.0.0.1:$(FLEET_CLUSTER_PORT); \
	$(FLEET_CLUSTER_DIR)/bmagg -addr 127.0.0.1:$(FLEET_CLUSTER_PORT) -interval 300ms \
		>$(FLEET_CLUSTER_DIR)/root.log 2>&1 & AGG=$$!; \
	trap 'kill $$AGG 2>/dev/null || true' EXIT; \
	sleep 1; \
	code=$$(curl -s -m 5 -o /dev/null -w '%{http_code}' $$root/readyz); \
	[ "$$code" = 503 ] || { echo "fleet-cluster: /readyz before any frame = $$code, want 503"; exit 1; }; \
	for n in c1 c2 c3; do \
		$(FLEET_CLUSTER_DIR)/loadgen -sessions 1500 -rounds 6 -fanin 150ms -round-delay 500ms \
			-uplink $$root/ingest -node $$n >$(FLEET_CLUSTER_DIR)/$$n.log 2>&1 & \
		eval "$$n=$$!"; \
	done; \
	sleep 2; kill -9 $$c3 2>/dev/null || true; \
	wait $$c1; wait $$c2; wait $$c3 2>/dev/null || true; \
	sleep 1; \
	code=$$(curl -s -m 5 -o /dev/null -w '%{http_code}' $$root/readyz); \
	[ "$$code" = 200 ] || { echo "fleet-cluster: /readyz after the kill = $$code, want 200"; exit 1; }; \
	stable=; i=0; \
	while [ $$i -lt 5 ]; do \
		curl -s -m 5 $$root/metrics >$(FLEET_CLUSTER_DIR)/m1.prom; \
		curl -s -m 5 $$root/metrics >$(FLEET_CLUSTER_DIR)/m2.prom; \
		if cmp -s $(FLEET_CLUSTER_DIR)/m1.prom $(FLEET_CLUSTER_DIR)/m2.prom; then stable=1; break; fi; \
		i=$$((i+1)); \
	done; \
	[ -n "$$stable" ] || { echo "fleet-cluster: root /metrics never byte-stable across a double scrape"; exit 1; }; \
	grep -q '^fleet_agg_nodes 3$$' $(FLEET_CLUSTER_DIR)/m1.prom || \
		{ echo "fleet-cluster: root did not see 3 nodes"; grep '^fleet_agg' $(FLEET_CLUSTER_DIR)/m1.prom; exit 1; }; \
	grep -q '^fleet_agg_frames_rejected_total{reason="corrupt"} 0$$' $(FLEET_CLUSTER_DIR)/m1.prom || \
		{ echo "fleet-cluster: root rejected frames from healthy collectors"; exit 1; }; \
	curl -s -m 5 "$$root/live/history?since=0" >$(FLEET_CLUSTER_DIR)/history.json; \
	grep -q '"node":"c1"' $(FLEET_CLUSTER_DIR)/history.json || \
		{ echo "fleet-cluster: history has no rows for surviving node c1"; exit 1; }; \
	grep -q '"node":"c2"' $(FLEET_CLUSTER_DIR)/history.json || \
		{ echo "fleet-cluster: history has no rows for surviving node c2"; exit 1; }; \
	grep -q '^loadgen: PASS$$' $(FLEET_CLUSTER_DIR)/c1.log || \
		{ echo "fleet-cluster: collector c1 failed"; tail -20 $(FLEET_CLUSTER_DIR)/c1.log; exit 1; }; \
	grep -q '^loadgen: PASS$$' $(FLEET_CLUSTER_DIR)/c2.log || \
		{ echo "fleet-cluster: collector c2 failed"; tail -20 $(FLEET_CLUSTER_DIR)/c2.log; exit 1; }; \
	kill $$AGG 2>/dev/null; wait $$AGG 2>/dev/null || true; trap - EXIT; \
	echo "fleet-cluster: root survived a SIGKILLed collector; cluster view stayed live and byte-stable"
	@rm -rf $(FLEET_CLUSTER_DIR)

# sweep-shard-cluster proves the distributed shard runner end to end on
# real processes: a coordinator plus three workers over loopback execute
# the same sweep a single process runs first, one worker is SIGKILLed
# mid-run (its leases must expire and be reassigned), and the merged
# stdout report and CSV must be byte-identical to the single-process
# artifacts. The in-process equivalence/crash/lease proofs run first
# under -race. The runs count is sized so the worker phase takes several
# seconds — long enough that the 2 s SIGKILL reliably lands while the
# victim still holds leases; the kill failing because the worker already
# exited fails the target (an un-exercised crash path is not a pass).
SHARD_CLUSTER_DIR ?= shard-cluster.tmp
SHARD_CLUSTER_PORT ?= 19420
SHARD_CLUSTER_RUNS ?= 2500
SHARD_CLUSTER_FLAGS = -runs $(SHARD_CLUSTER_RUNS) -seed 42 -faults clean,lossy1pct
sweep-shard-cluster:
	$(GO) test -race -count=1 -run 'TestShard|TestWire|TestPartition' ./internal/shard/
	rm -rf $(SHARD_CLUSTER_DIR)
	mkdir -p $(SHARD_CLUSTER_DIR)
	$(GO) build -o $(SHARD_CLUSTER_DIR)/appraise ./cmd/appraise
	$(SHARD_CLUSTER_DIR)/appraise -sweep $(SHARD_CLUSTER_FLAGS) \
		-cache-dir $(SHARD_CLUSTER_DIR)/solo -csv $(SHARD_CLUSTER_DIR)/solo.csv \
		>$(SHARD_CLUSTER_DIR)/solo.txt 2>$(SHARD_CLUSTER_DIR)/solo.log
	@set -e; \
	addr=127.0.0.1:$(SHARD_CLUSTER_PORT); \
	$(SHARD_CLUSTER_DIR)/appraise -shard-coordinator $$addr $(SHARD_CLUSTER_FLAGS) \
		-shard-count 16 -shard-lease-ttl 2s \
		-cache-dir $(SHARD_CLUSTER_DIR)/cluster -csv $(SHARD_CLUSTER_DIR)/cluster.csv \
		>$(SHARD_CLUSTER_DIR)/cluster.txt 2>$(SHARD_CLUSTER_DIR)/coord.log & COORD=$$!; \
	trap 'kill $$COORD 2>/dev/null || true' EXIT; \
	sleep 1; \
	for n in w1 w2 w3; do \
		$(SHARD_CLUSTER_DIR)/appraise -shard-worker $$addr -shard-name $$n \
			$(SHARD_CLUSTER_FLAGS) -cache-dir $(SHARD_CLUSTER_DIR)/cluster \
			>$(SHARD_CLUSTER_DIR)/$$n.log 2>&1 & \
		eval "$$n=$$!"; \
	done; \
	sleep 2; \
	if kill -9 $$w2 2>/dev/null; then \
		echo "sweep-shard-cluster: SIGKILLed worker w2 mid-run"; \
	else \
		echo "sweep-shard-cluster: w2 finished before the kill — raise SHARD_CLUSTER_RUNS"; exit 1; \
	fi; \
	wait $$w1 || { echo "sweep-shard-cluster: worker w1 failed"; tail -20 $(SHARD_CLUSTER_DIR)/w1.log; exit 1; }; \
	wait $$w3 || { echo "sweep-shard-cluster: worker w3 failed"; tail -20 $(SHARD_CLUSTER_DIR)/w3.log; exit 1; }; \
	wait $$w2 2>/dev/null || true; \
	wait $$COORD || { echo "sweep-shard-cluster: coordinator failed"; tail -20 $(SHARD_CLUSTER_DIR)/coord.log; exit 1; }; \
	trap - EXIT; \
	cmp $(SHARD_CLUSTER_DIR)/solo.csv $(SHARD_CLUSTER_DIR)/cluster.csv || \
		{ echo "sweep-shard-cluster: merged CSV differs from the single-process sweep"; exit 1; }; \
	cmp $(SHARD_CLUSTER_DIR)/solo.txt $(SHARD_CLUSTER_DIR)/cluster.txt || \
		{ echo "sweep-shard-cluster: merged report differs from the single-process sweep"; exit 1; }; \
	echo "sweep-shard-cluster: merged export byte-identical to the single-process sweep after a SIGKILLed worker"
	@rm -rf $(SHARD_CLUSTER_DIR)
