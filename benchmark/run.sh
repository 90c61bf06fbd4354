#!/usr/bin/env bash
# Builds the benchmark and runs it.
#
#   run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is the result object
#       (this is the command in BENCHMARK.json)
#   run.sh [--seed N] [--seconds S] [--runs K] [--traced] [--out FILE]
#       a full set: every workload, each run in its own process, merged
#       into one ledger (default benchmark/out/ledger.json)
#   run.sh --smoke
#       tiny units of every workload plus the injected-failure self-test
#   run.sh compare A.json B.json
#       two ledgers against the benchmark's own bounds
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Cargo reads a relative CARGO_TARGET_DIR against the current directory;
# pin it so the binary is found wherever this script is called from.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# --offline: every dependency is a path inside this repository. Not
# --locked: a change that adds a crate to the program may not edit the
# benchmark, so Cargo must be free to refresh benchmark/Cargo.lock.
started=$(date +%s.%N)
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
finished=$(date +%s.%N)
BUILD_SECONDS=$(awk -v a="$started" -v b="$finished" 'BEGIN { printf "%.3f", b - a }')
export BUILD_SECONDS

exec "$target/release/ursa-benchmark" "$@"
