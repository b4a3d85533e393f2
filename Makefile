GO ?= go

.PHONY: all build vet lint lint-fix test race bench bench-check tables microbench loc

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
# microbenchmarks (engine schedule+step, Server job, PIO write, packet
# send), the MICA index's Get/Put and the mux endpoint's scheduler at
# 64, 2,048 and 65,536 channels, which report allocs/op and should all
# read 0.
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
