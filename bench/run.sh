#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh --workload hot_batch --seed 1 --seconds 14 --trace 0
#
# Everything it writes stays under bench/: the Go build cache, the go
# command's own counters and the binary in bench/.build, segment stores and
# trace files in bench/out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here"
GOCACHE="$here/.build/gocache" XDG_CONFIG_HOME="$here/.build/config" GOTOOLCHAIN=local \
	go build -o .build/liferaft-bench .
exec .build/liferaft-bench "$@"
