#!/bin/sh
# Run the perf-tracking benchmarks and leave machine-readable trails:
#   E23 -> BENCH_eval.json   (naive vs compiled eval, sequential vs parallel EF)
#   E24 -> BENCH_games.json  (orbit pruning x parallel fan-out grid)
#   E25 -> BENCH_budget.json (budget poll overhead on the rigid-order EF
#                             workload and on E23's compiled eval workloads)
#   E26 -> BENCH_engine.json (engine-ported solver timings, C^k vs k-WL
#                             agreement grid, CFI certificate)
#   E27 -> BENCH_serve.json  (closed-loop serve load, faults on/off:
#                             p50/p99/throughput/shed/degraded, zero
#                             wrong verdicts, drain time)
#   E28 -> BENCH_locality.json (streaming Hanf census + sharded 1-WL,
#                             ns/node from 10^4 to 10^6; pass
#                             `--max-n 100000` for CI smoke)
#   E29 -> BENCH_durability.json (journal overhead on the serve mix:
#                             memory vs interval vs always fsync, plus
#                             journal-replay and snapshot-load recovery)
#   E30 -> BENCH_planner.json (naive interpreter vs cost-based physical
#                             plans on multi-join queries, plus delta
#                             maintenance vs full re-evaluation)
# --games-only skips the E23/E25 re-timing and refreshes only the game
# trails (BENCH_games.json + BENCH_engine.json). Extra arguments are
# passed through to bench/main.exe; notably `--workers N` caps the
# worker-scaling grid in E24/E26 at N domains (the curve becomes
# {1,2,..,N}), for CI smoke runs on small machines.
#
# Every section runs under a per-case deadline (FMTK_BENCH_DEADLINE
# seconds, default 600) so one pathological case cannot stall the run;
# a section that overruns is reported as skipped and the next one runs.
set -eu
cd "$(dirname "$0")/.."

: "${FMTK_BENCH_DEADLINE:=600}"

games_only=false
passthrough=""
for arg in "$@"; do
  case "$arg" in
  --games-only) games_only=true ;;
  *) passthrough="$passthrough $arg" ;;
  esac
done

# shellcheck disable=SC2086 # word splitting of passthrough is intended
if [ "$games_only" = false ]; then
  dune exec bench/main.exe -- --only E23 --json BENCH_eval.json \
    --deadline "$FMTK_BENCH_DEADLINE" $passthrough
  dune exec bench/main.exe -- --only E25 --json BENCH_budget.json \
    --deadline "$FMTK_BENCH_DEADLINE" $passthrough
fi
if [ "$games_only" = false ]; then
  dune exec bench/main.exe -- --only E27 --json BENCH_serve.json \
    --deadline "$FMTK_BENCH_DEADLINE" $passthrough
fi
if [ "$games_only" = false ]; then
  dune exec bench/main.exe -- --only E28 --json BENCH_locality.json \
    --deadline "$FMTK_BENCH_DEADLINE" $passthrough
fi
if [ "$games_only" = false ]; then
  dune exec bench/main.exe -- --only E29 --json BENCH_durability.json \
    --deadline "$FMTK_BENCH_DEADLINE" $passthrough
fi
if [ "$games_only" = false ]; then
  dune exec bench/main.exe -- --only E30 --json BENCH_planner.json \
    --deadline "$FMTK_BENCH_DEADLINE" $passthrough
fi
dune exec bench/main.exe -- --only E24 --json BENCH_games.json \
  --deadline "$FMTK_BENCH_DEADLINE" $passthrough
exec dune exec bench/main.exe -- --only E26 --json BENCH_engine.json \
  --deadline "$FMTK_BENCH_DEADLINE" $passthrough
