GO ?= go

.PHONY: all build vet lint test race bench bench-check tables metrics same results results-check microbench loc unrun unrun-check sensitivity

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/herdlint ./...

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

# The -metrics dump of every target at the same windows, so a
# refactor's "dump unchanged" check is one diff of this output from two
# commits.
metrics:
	@set -e; tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	$(GO) run ./cmd/herdbench -warmup 50 -span 150 -metrics "$$tmp" all >/dev/null; \
	cat "$$tmp"

# The pure-refactor check in one step: build herdbench from REF
# (default HEAD, checked out into a temporary git worktree) and from
# this tree, run every target once on each at the shortened windows
# with -json and -metrics, then diff the tables (without the
# "generated in" lines), the -metrics dumps and every BENCH_*.json.
# Prints each difference and fails on any. About a minute.
REF ?= HEAD

same:
	@set -e; tmp=$$(mktemp -d); \
	trap 'git worktree remove --force "$$tmp/tree" 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	git worktree add -q --detach "$$tmp/tree" $(REF); \
	(cd "$$tmp/tree" && $(GO) build -o "$$tmp/ref.bin" ./cmd/herdbench); \
	$(GO) build -o "$$tmp/cur.bin" ./cmd/herdbench; \
	for side in ref cur; do \
		mkdir "$$tmp/$$side.json"; \
		"$$tmp/$$side.bin" -warmup 50 -span 150 -json "$$tmp/$$side.json" \
			-metrics "$$tmp/$$side.metrics" all >"$$tmp/$$side.out"; \
		sed '/ generated in /d' "$$tmp/$$side.out" >"$$tmp/$$side.tables"; \
	done; \
	bad=0; \
	diff -u "$$tmp/ref.tables" "$$tmp/cur.tables" || bad=1; \
	diff -u "$$tmp/ref.metrics" "$$tmp/cur.metrics" || bad=1; \
	diff -r "$$tmp/ref.json" "$$tmp/cur.json" || bad=1; \
	[ $$bad = 0 ] || { echo "same: output differs from $(REF)"; exit 1; }; \
	echo "same: tables, metrics dump and $$(ls "$$tmp/cur.json" | wc -l) BENCH files match $(REF)"

# The canonical results files: every target's table at the default
# windows on each preset, without the wall-clock "generated in" lines.
# `make results` rewrites them (into RESULTS_DIR, docs/ by default);
# results-check regenerates them into a temp dir and diffs, so a change
# that moves a modeled number must commit the files it moves.
RESULTS_DIR ?= docs

results:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/herdbench" ./cmd/herdbench; \
	"$$tmp/herdbench" all >"$$tmp/apt.txt"; \
	"$$tmp/herdbench" -cluster susitna all >"$$tmp/susitna.txt"; \
	sed '/ generated in /d' "$$tmp/apt.txt" >"$(RESULTS_DIR)/results-apt.txt"; \
	sed '/ generated in /d' "$$tmp/susitna.txt" >"$(RESULTS_DIR)/results-susitna.txt"

results-check:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(MAKE) --no-print-directory -s results RESULTS_DIR="$$tmp"; \
	diff -u docs/results-apt.txt "$$tmp/results-apt.txt"; \
	diff -u docs/results-susitna.txt "$$tmp/results-susitna.txt"

# Paper-figure benchmarks, plus the simulator substrate's per-event
# microbenchmarks (engine schedule+step, one event against a standing
# queue shaped like fleet-write's, Server job, PIO write, packet send),
# the MICA index's Get/Put, its bulk load (BenchmarkLoad: ns per key
# through Put against Load, and PutNewer against LoadNewer, on a
# herd-read-sized partition) and the mux
# endpoint's scheduler at 64, 2,048 and 65,536 channels, which report
# allocs/op and should all read 0, the WAL's durable-path preload
# (BenchmarkAppendDurable: ns and allocs per record over fleet-write's
# 131,072-record per-shard preload), and a whole server's preload
# (BenchmarkPreload: ns per key of 1 Mi keys into herd-read's
# six-partition server, its partitions loading in parallel).
microbench:
	$(GO) test -bench=. -benchmem -run='^$$' . ./internal/sim/ ./internal/pcie/ ./internal/wire/ ./internal/mica/ ./internal/mux/ ./internal/wal/ ./internal/core/

# Non-test Go lines per package, then the module total, so a change
# that deletes code can report before/after counts (run it on both
# commits and diff).
loc:
	@$(GO) list -f '{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}' ./... | \
	while read pkg dir files; do \
		[ -z "$$files" ] || printf '%6d %s\n' $$(cd $$dir && cat $$files | wc -l) $$pkg; \
	done | awk '{ print; n += $$1 } END { printf "%6d total\n", n }'

# Every internal/ function outside internal/lint that no run of the
# CLIs, bench or examples executes: herdbench, the bench binary and
# every example are built with coverage into a temp dir,
# every herdbench target runs on both clusters (the Apt pass writes
# every BENCH_*.json into the temp dir), one more herdbench pass
# writes the telemetry outputs (-metrics -trace -perqp on the anatomy
# target), one runs the chaos target under a script that uses every
# fault keyword and writes its metrics dump, every bench workload runs
# for a second, each example runs once, and the merged
# profile's 0.0% functions are printed. The bench/ lines are dropped
# because `go tool cover` cannot resolve that nested module's files from
# here. An audit of code nothing reaches (about a minute and a half);
# unrun-check below is the gate.
UNRUN_WORKLOADS = herd-read fleet-write hot-cached mux-open
UNRUN_FAULTS = internal/fault/testdata/every-keyword.faults

unrun:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; mkdir "$$tmp/cov"; \
	for p in ./cmd/herdbench ./examples/*; do \
		$(GO) build -cover -coverpkg=herdkv/... -o "$$tmp/bin/$$(basename $$p)" $$p; \
	done; \
	(cd bench && $(GO) build -cover -coverpkg=herdkv/... -o "$$tmp/bench" .); \
	mkdir "$$tmp/json"; \
	GOCOVERDIR="$$tmp/cov" "$$tmp/bin/herdbench" -cluster apt -warmup 50 -span 150 -json "$$tmp/json" all >/dev/null; \
	GOCOVERDIR="$$tmp/cov" "$$tmp/bin/herdbench" -cluster susitna -warmup 50 -span 150 all >/dev/null; \
	GOCOVERDIR="$$tmp/cov" "$$tmp/bin/herdbench" -warmup 50 -span 150 -metrics "$$tmp/metrics.txt" \
		-trace "$$tmp/trace.json" -perqp anatomy >/dev/null; \
	GOCOVERDIR="$$tmp/cov" "$$tmp/bin/herdbench" -metrics "$$tmp/chaos-metrics.txt" \
		-faults $(UNRUN_FAULTS) chaos >/dev/null; \
	for w in $(UNRUN_WORKLOADS); do \
		GOCOVERDIR="$$tmp/cov" "$$tmp/bench" --workload $$w --seconds 1 >/dev/null; \
	done; \
	for e in examples/*; do \
		GOCOVERDIR="$$tmp/cov" "$$tmp/bin/$$(basename $$e)" >/dev/null; \
	done; \
	$(GO) tool covdata textfmt -i="$$tmp/cov" -o="$$tmp/all.txt"; \
	grep -v '^herdkv/bench/' "$$tmp/all.txt" >"$$tmp/herdkv.txt"; \
	$(GO) tool cover -func="$$tmp/herdkv.txt" | \
		awk '$$NF == "0.0%" && $$1 ~ /^herdkv\/internal\// && $$1 !~ /^herdkv\/internal\/lint\//'

# The unrun ratchet: every function `make unrun` names must be listed,
# with a reason, in docs/UNRUN.txt, and every function listed there
# must still be named. Fails naming each file and function out of step.
unrun-check:
	@set -e; tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	$(MAKE) --no-print-directory -s unrun >"$$tmp"; \
	awk 'FNR == NR { if (NF && $$1 !~ /^#/) listed[$$1 " " $$2] = 1; next } \
		{ f = $$1; sub(/^herdkv\//, "", f); sub(/:[0-9]+:$$/, "", f); k = f " " $$2; named[k] = 1; \
		  if (!(k in listed)) { print "unrun: " k " is not in docs/UNRUN.txt (add it with a reason)"; bad = 1 } } \
		END { for (k in listed) if (!(k in named)) { print "unrun: " k " is listed in docs/UNRUN.txt but no longer unrun (drop it)"; bad = 1 } \
		      exit bad }' docs/UNRUN.txt "$$tmp"

# The parameter sensitivity matrix, docs/SENSITIVITY.md: every report
# target at the shortened windows on both presets, once as defined and
# once with each numeric cluster.Spec field scaled x0.9 and x1.1, each
# metric diffed against the unperturbed run. About 30 minutes on a
# 2-core host, so not part of `make test`; TestSensitivityRows (tier-1)
# checks that the committed matrix covers every field.
sensitivity:
	$(GO) test -tags sensitivity -run '^TestSensitivity$$' -count=1 -timeout 0 -v ./internal/experiments/
