#!/usr/bin/env bash
# Record the gated runs and tier-1 under tools/reach.py's call hook, then
# regenerate results/REACH.txt (its dispositions are kept).  Run from the
# repo root: tools/reach.sh DUMP_DIR   (about 15 min on 2 cores)
#
# The gated set is what CI and the benchmark run: the figure-shape tests,
# all twelve bench tables, the service figures, the scan figure, traced
# bench and faultcheck runs and the obs CLI over their traces, the
# faultcheck matrix, the four tier soak pins, perfbench's traced pass on its
# four workloads, and the five examples.  Everything runs with --workers 1:
# forked pool workers never reach atexit, so their calls would be lost.
set -euo pipefail
out=${1:?usage: tools/reach.sh DUMP_DIR}
mkdir -p "$out"
export PYTHONPATH=tools:src
run() { REACH_DIR="$out/$1" "${@:2}" > /dev/null; }

run gated python -m pytest benchmarks -q --benchmark-disable -p no:cacheprovider
REPRO_SCALE=0.2 run gated python -m repro.bench --workers 1 --digest
REPRO_SCALE=0.4 run gated python -m repro.bench fig8 --workers 1 --digest
run gated python -m repro.bench queue_depth degraded_cost --workers 1 --digest
REPRO_SCALE=0.08 run gated python -m repro.bench fig6a fig11 --workers 1 --digest \
  --trace-out "$out/bench_trace.jsonl" --timing-out "$out/bench_timing.json"
run gated python -m repro.faultcheck --lsm-points 12 --hyperdb-points 10 --workers 1 --digest
run gated python -m repro.faultcheck --lsm-points 4 --hyperdb-points 4 --skip-transient \
  --workers 1 --digest --trace-out "$out/fc_trace.jsonl"
run gated python -m repro.obs summarize "$out/bench_trace.jsonl"
run gated python -m repro.obs timeline "$out/bench_trace.jsonl" --buckets 32
run gated python -m repro.obs diff "$out/bench_trace.jsonl" "$out/fc_trace.jsonl"
for pin in tier-smoke tier-scrub@600 tier tier@600; do
  suite=${pin%@*}; ops=(); [[ $pin == *@* ]] && ops=(--ops "${pin#*@}")
  run gated python -m repro.chaos "$suite" "${ops[@]}" --workers 1 --digest \
    --trace-out "$out/soak_trace.jsonl"
done
for w in write_tight read_roomy scan_mixed write_tight_rocksdb; do
  run gated python3 perfbench/run.py --workload "$w" --seed 7 --trace 1
done
for ex in examples/*.py; do run gated python "$ex"; done
run tests python -m pytest -q -p no:cacheprovider
python tools/reach.py "$out/gated" --tests "$out/tests" --out results/REACH.txt
