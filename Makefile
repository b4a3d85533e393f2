GO ?= go

.PHONY: all build vet lint lint-fix test race bench bench-check microbench loc

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

# Extension-experiment reports: every target below writes its
# BENCH_<name>.json here (schema in EXPERIMENTS.md).
BENCH = $(GO) run ./cmd/herdbench -warmup 50 -span 150 -json . \
	fleet-bench overload clients-sweep durability hotkey consistency

bench:
	$(BENCH)

# Bench ratchet: regenerate every report and compare each gated metric
# against the committed baselines/ (see cmd/benchcheck). The simulator
# is deterministic, so a failure is a real regression, not noise.
bench-check:
	$(BENCH)
	$(GO) run ./cmd/benchcheck baselines .

# Paper-figure benchmarks, plus the simulator substrate's per-event
# microbenchmarks (engine schedule+step, Server job, PIO write, packet
# send), which report allocs/op and should all read 0.
microbench:
	$(GO) test -bench=. -benchmem -run='^$$' . ./internal/sim/ ./internal/pcie/ ./internal/wire/

# Non-test Go lines per package, so a change that deletes code can
# report before/after counts (run it on both commits and diff).
loc:
	@$(GO) list -f '{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}' ./... | \
	while read pkg dir files; do \
		[ -z "$$files" ] || printf '%6d %s\n' $$(cd $$dir && cat $$files | wc -l) $$pkg; \
	done
