GO ?= go

.PHONY: all build vet lint lint-fix test race bench bench-check microbench

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/herdlint ./...

# Apply the suggested fixes herdlint attaches to its diagnostics
# (Sprintf-of-a-literal on a hot path, stale //lint:allow comments).
# CI runs this and requires `git diff --exit-code` afterwards.
lint-fix:
	$(GO) run ./cmd/herdlint -fix ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Scale-out comparison: single server vs 4-shard sharded vs 4-shard R=2
# fleet. Prints the table and writes BENCH_fleet.json. The overload
# sweep (goodput + p99 vs offered load, with and without the overload
# controller) rides along and writes BENCH_overload.json, and the
# client-scaling sweep (the Figure 12 cliff with and without the
# endpoint multiplexing tier) writes BENCH_clients.json, and the
# durability comparison (warm WAL rejoin vs cold re-replication after a
# mid-flush crash) writes BENCH_durability.json, and the hot-key
# survival comparison (near cache + leases + widening vs plain fleet on
# the skewed workload) writes BENCH_hotkey.json, and the nemesis
# consistency comparison (first-ack divergence vs versioned read
# repair) writes BENCH_consistency.json.
bench:
	$(GO) run ./cmd/herdbench -warmup 50 -span 150 -benchjson BENCH_fleet.json fleet-bench
	$(GO) run ./cmd/herdbench -warmup 50 -span 150 -overloadjson BENCH_overload.json overload
	$(GO) run ./cmd/herdbench -warmup 50 -span 150 -clientsjson BENCH_clients.json clients-sweep
	$(GO) run ./cmd/herdbench -warmup 50 -span 150 -durabilityjson BENCH_durability.json durability
	$(GO) run ./cmd/herdbench -warmup 50 -span 150 -hotkeyjson BENCH_hotkey.json hotkey
	$(GO) run ./cmd/herdbench -warmup 50 -span 150 -consistencyjson BENCH_consistency.json consistency

# Bench ratchet: regenerate the ratcheted benchmarks and diff their
# throughput leaves against the committed baselines in baselines/;
# any >5% drop fails (see cmd/benchcheck). The simulator is
# deterministic, so a failure is a real slowdown, not noise.
bench-check:
	$(GO) run ./cmd/herdbench -warmup 50 -span 150 -benchjson BENCH_fleet.json fleet-bench
	$(GO) run ./cmd/herdbench -warmup 50 -span 150 -hotkeyjson BENCH_hotkey.json hotkey
	$(GO) run ./cmd/herdbench -warmup 50 -span 150 -consistencyjson BENCH_consistency.json consistency
	$(GO) run ./cmd/benchcheck -max-regress 0.05 baselines/BENCH_fleet.json BENCH_fleet.json
	$(GO) run ./cmd/benchcheck -max-regress 0.05 baselines/BENCH_hotkey.json BENCH_hotkey.json
	$(GO) run ./cmd/benchcheck -max-regress 0.05 baselines/BENCH_consistency.json BENCH_consistency.json

# Paper-figure benchmarks, plus the simulator substrate's per-event
# microbenchmarks (engine schedule+step, Server job, PIO write, packet
# send), which report allocs/op and should all read 0.
microbench:
	$(GO) test -bench=. -benchmem -run='^$$' . ./internal/sim/ ./internal/pcie/ ./internal/wire/
