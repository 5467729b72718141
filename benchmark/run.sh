#!/usr/bin/env bash
# The repository's benchmark, one command:
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--seconds S] [--trace [0|1]]
#                    [--repeat K] [--check] [--smoke] [--selftest]
#
# Builds the shipped release binaries and the harness (build time is outside
# every metric), then runs the harness from the repository root. With
# --workload it makes one run and prints the result as the last line of
# standard output; without, it runs every workload and writes
# benchmark/out/results.json. See benchmark/README.md.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"
if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
  echo "benchmark/run.sh: $ROOT is not the repository (no Cargo.toml, no crates/)" >&2
  exit 3
fi

# One target directory for both builds, so the harness is compiled against
# the same library artifacts' sources the binaries come from. The driver
# names it relative to the checkout.
TARGET="${CARGO_TARGET_DIR:-target}"
case "$TARGET" in /*) ;; *) TARGET="$ROOT/$TARGET" ;; esac
export CARGO_TARGET_DIR="$TARGET"

# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --manifest-path Cargo.toml --bins >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2

exec "$TARGET/release/sketchml-benchmark" \
  --bin-dir "$TARGET/release" \
  --out-dir benchmark/out \
  --contract BENCHMARK.json \
  --rustc "$(rustc --version 2>/dev/null || echo unknown)" \
  --commit "$(git rev-parse HEAD 2>/dev/null || echo none)" \
  "$@"
