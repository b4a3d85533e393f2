GO ?= go

.PHONY: all build vet lint lint-fix test race bench bench-check tables microbench loc unrun

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

# Every target that measures something writes its BENCH_<name>.json
# here (schema in EXPERIMENTS.md).
BENCH = $(GO) run ./cmd/herdbench -warmup 50 -span 150 -json . all

bench:
	$(BENCH)

# Bench ratchet: regenerate every report and compare each gated metric
# against the committed baselines/ (see cmd/benchcheck). Stale reports
# go first, since a report without a baseline fails. The simulator is
# deterministic, so a failure is a real regression, not noise.
bench-check:
	rm -f BENCH_*.json
	$(BENCH)
	$(GO) run ./cmd/benchcheck baselines .

# Every target's table at the shortened windows, without the wall-clock
# "generated in" lines, so a refactor's "output unchanged" check is one
# diff of this output from two commits.
tables:
	@$(GO) run ./cmd/herdbench -warmup 50 -span 150 all | sed '/ generated in /d'

# Paper-figure benchmarks, plus the simulator substrate's per-event
# microbenchmarks (engine schedule+step, one event against a standing
# queue shaped like fleet-write's, Server job, PIO write, packet send),
# the MICA index's Get/Put, its bulk load (BenchmarkLoad: ns per key
# through Put against Load, on a herd-read-sized partition) and the mux
# endpoint's scheduler at 64, 2,048 and 65,536 channels, which report
# allocs/op and should all read 0.
microbench:
	$(GO) test -bench=. -benchmem -run='^$$' . ./internal/sim/ ./internal/pcie/ ./internal/wire/ ./internal/mica/ ./internal/mux/

# Non-test Go lines per package, then the module total, so a change
# that deletes code can report before/after counts (run it on both
# commits and diff).
loc:
	@$(GO) list -f '{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}' ./... | \
	while read pkg dir files; do \
		[ -z "$$files" ] || printf '%6d %s\n' $$(cd $$dir && cat $$files | wc -l) $$pkg; \
	done | awk '{ print; n += $$1 } END { printf "%6d total\n", n }'

# Every internal/ function outside internal/lint that no measured run
# executes: herdbench and the bench binary are built with coverage into
# a temp dir, every herdbench target runs on both clusters, one more
# herdbench pass writes the telemetry outputs (-metrics -trace -perqp on
# the anatomy target), every bench workload runs for a second, and the
# merged profile's 0.0% functions are printed. The bench/ lines are
# dropped because `go tool cover` cannot resolve that nested module's
# files from here. An audit aid for code no figure or workload reaches
# (about a minute), not a gate.
UNRUN_WORKLOADS = herd-read fleet-write hot-cached mux-open

unrun:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; mkdir "$$tmp/cov"; \
	$(GO) build -cover -coverpkg=herdkv/... -o "$$tmp/herdbench" ./cmd/herdbench; \
	(cd bench && $(GO) build -cover -coverpkg=herdkv/... -o "$$tmp/bench" .); \
	for c in apt susitna; do \
		GOCOVERDIR="$$tmp/cov" "$$tmp/herdbench" -cluster $$c -warmup 50 -span 150 all >/dev/null; \
	done; \
	GOCOVERDIR="$$tmp/cov" "$$tmp/herdbench" -warmup 50 -span 150 -metrics "$$tmp/metrics.txt" \
		-trace "$$tmp/trace.json" -perqp anatomy >/dev/null; \
	for w in $(UNRUN_WORKLOADS); do \
		GOCOVERDIR="$$tmp/cov" "$$tmp/bench" --workload $$w --seconds 1 >/dev/null; \
	done; \
	$(GO) tool covdata textfmt -i="$$tmp/cov" -o="$$tmp/all.txt"; \
	grep -v '^herdkv/bench/' "$$tmp/all.txt" >"$$tmp/herdkv.txt"; \
	$(GO) tool cover -func="$$tmp/herdkv.txt" | \
		awk '$$NF == "0.0%" && $$1 ~ /^herdkv\/internal\// && $$1 !~ /^herdkv\/internal\/lint\//'
