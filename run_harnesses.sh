#!/bin/bash
# Run every paper-reproduction harness at full fidelity, saving text output,
# rendered SVG figures, and JSON results.
cd "$(dirname "$0")"
./ci.sh || exit 1
mkdir -p results results/json
for bin in table1 fig12 fig2b fig8 fig9 fig10 ipc ablations swmr mesh_vs_ring fig11 resilience fairness; do
  echo "== running $bin =="
  ./target/release/$bin --svg results --json results/json > results/$bin.txt 2>&1
  echo "== $bin done rc=$? =="
done
echo ALL_HARNESSES_DONE
