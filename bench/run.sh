#!/usr/bin/env bash
# Builds the herdkv benchmark from source and runs it with the given
# arguments, for example:
#
#   bash bench/run.sh --workload herd-read --seed 1 --seconds 10 --trace 0
#
# The build cache, Go's own state and the binary stay in .bench_build at
# the repository root, so the run reads and writes nothing outside the
# checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(cd "$here/.." && pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/herdkv-bench" .)
exec "$out/herdkv-bench" "$@"
