#!/bin/bash
# Write the --quick output of the figure harnesses into DIR (default
# results/quick): DIR/<name>.txt holds the stdout of `figure <name>` and
# DIR/json/<name>.json its --json export. Each harness runs inside DIR with
# `--json json`, so the `wrote json/<name>.json` line is the same wherever
# DIR is and two runs can be compared byte for byte.
#
#   ./quick_results.sh [--deep] [DIR]
#
# The default set is every figure harness except `fairness`, whose quick pass
# takes ~100 s; --deep adds it. results/quick/ is the checked-in reference
# (written with --deep); ci.sh regenerates into a scratch DIR and cmps each
# file against it. See EXPERIMENTS.md "Refreshing the quick figure
# outputs".
set -e
cd "$(dirname "$0")"

NAMES="table1 fig12 fig2b fig8 fig9 fig10 ipc ablations swmr mesh_vs_ring fig11 resilience"
DIR=results/quick
for arg in "$@"; do
  case "$arg" in
    --deep) NAMES="$NAMES fairness" ;;
    -*)
      echo "quick_results.sh: unknown argument '$arg' (supported: --deep, DIR)" >&2
      exit 2
      ;;
    *) DIR="$arg" ;;
  esac
done

cargo build --release -q -p pnoc-bench --offline --bin figure
FIGURE=$(cd "${CARGO_TARGET_DIR:-target}/release" && pwd)/figure
mkdir -p "$DIR/json"
for name in $NAMES; do
  (cd "$DIR" && "$FIGURE" "$name" --quick --json json > "$name.txt")
done
