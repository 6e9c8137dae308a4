#!/bin/bash
# Run every paper-reproduction harness at full fidelity, saving text output,
# rendered SVG figures, and JSON results. Stops at the first harness that
# fails and exits with its status.
cd "$(dirname "$0")"
./ci.sh || exit 1
FIGURE="${CARGO_TARGET_DIR:-target}/release/figure"
mkdir -p results results/json
for name in table1 fig12 fig2b fig8 fig9 fig10 ipc ablations swmr mesh_vs_ring fig11 resilience fairness; do
  echo "== running $name =="
  "$FIGURE" "$name" --svg results --json results/json > "results/$name.txt" 2>&1
  rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "== $name failed rc=$rc (output in results/$name.txt) ==" >&2
    exit "$rc"
  fi
  echo "== $name done =="
done
echo ALL_HARNESSES_DONE
