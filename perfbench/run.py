"""fmtk benchmark: `fmtk serve` read and write mixes and a batch of
one-shot `fmtk` commands, each answer checked against ground truth.

Run from the root of an fmtk checkout:

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 35 --trace 0

--workload  serve_read | serve_write | cli_batch | all
--seed      makes the inputs; the same seed gives the same inputs
--seconds   how long one run measures
--trace     0: end-to-end metrics of an untraced run;
            1: the same run, then an in-process replay of its ops with
               spans around each library module; per-layer metrics

The benchmark builds fmtk with dune first. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit code is 0 when every answer was right, 1 on a wrong or failed
answer, 2 when the benchmark could not run (no result line then).
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import math
import os
import shutil
import signal
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cli_batch  # noqa: E402
import common  # noqa: E402
import serve  # noqa: E402
import traced  # noqa: E402
from common import BenchError, median, percentile  # noqa: E402

WORKLOADS = ["serve_read", "serve_write", "cli_batch"]

# The metrics of the JSON line with --trace 0: every workload has them.
# ops_per_s is printed but not on the line: a closed loop's throughput is
# the inverse of its mean latency, tail included, and moved most with the
# host's steal time (29-32% IQR over ten serve_write runs). The timings
# on the line are 10th percentiles (LOW_Q): host steal moves a median of
# the same runs two to three times as far (README, "Noise"). p50_ms and
# p99_ms stay in the report.
END_TO_END = [("setup_s", "s"), ("p10_ms", "ms"), ("eval_ms", "ms"),
              ("eval_ra_ms", "ms")]
LOW_Q = 10

# Report-only end-to-end metrics: the per-class latencies a workload has,
# plus the tail and failure share.
SERVE_CLASSES = [("eval_ms", "eval"), ("eval_ra_ms", "eval_ra"),
                 ("game_ms", "game"), ("equiv_ms", "equiv"),
                 ("update_ms", "update"), ("load_ms", "load")]
CLI_CLASSES = [("eval_ms", "eval"), ("eval_ra_ms", "eval_ra"),
               ("game_ms", "game"), ("datalog_ms", "datalog"),
               ("ifp_ms", "ifp"), ("locality_ms", "locality"),
               ("zeroone_ms", "zeroone")]


def class_latencies(samples, classes):
    """samples: (cls, shape, ms). For each class that occurs: the
    geometric mean, over the class's shapes, of each shape's 10th
    percentile latency. Every shape then counts the same however often the
    mix draws it, and a change to any one shape moves its class figure."""
    out = []
    for metric, cls in classes:
        by_shape = {}
        for c, shape, ms in samples:
            if c == cls:
                by_shape.setdefault(shape, []).append(ms)
        if by_shape:
            logs = [math.log(percentile(xs, LOW_Q)) for xs in by_shape.values()]
            out.append((metric, math.exp(sum(logs) / len(logs)), "ms"))
    return out


def window_rate(recs, width=1.0):
    """Median over whole 1 s windows of the ops completed per second: a
    burst of host contention moves a few windows, not the median."""
    ends = sorted(r[3] + r[4] / 1000.0 for r in recs)
    start, stop = recs[0][3], ends[-1]
    counts = [0] * max(1, int((stop - start) // width))
    for t in ends:
        k = int((t - start) // width)
        if k < len(counts):
            counts[k] += 1
    return median(counts) / width


def run_serve(name, seed, rundir, seconds, ops, trace):
    res = serve.run(name, seed, rundir, seconds=None if ops else seconds,
                    ops_per_conn=ops)
    recs = sorted(res["records"], key=lambda r: r[3])
    stats = res["stats"]
    # A shed or error reply fails its op's check, so shed ops are in here.
    failed = sum(1 for r in recs if not r[6]) + res["warmup_failed"]
    attempted = len(recs) + len(res["warmup"])
    samples = [(r[2].cls, r[2].shape, r[4]) for r in recs]
    rtts = [r[4] for r in recs]
    rows = [("setup_s", median(res["setup_s"]), "s"),
            ("ops_per_s", window_rate(recs), "1/s"),
            ("p10_ms", percentile(rtts, LOW_Q), "ms"),
            ("p50_ms", median(rtts), "ms"),
            ("p99_ms", percentile(rtts, 99), "ms"),
            ("failed_frac", failed / attempted, "ratio")]
    rows += class_latencies(samples, SERVE_CLASSES)
    print("config: workload=%s seed=%d git=%s nproc=%d connections=%d workers=%s "
          "sync=%s snapshot_threshold=%s ops=%d samples_beyond_p99=%d "
          "host_steal_pct=%.1f" % (
              name, seed, common.git_rev(), common.nproc(), res["conns"],
              stats.get("workers"), stats.get("sync", "in-memory"),
              serve.SNAPSHOT_THRESHOLD if name == "serve_write" else "-",
              len(recs), len(recs) // 100, res["steal_pct"]))
    common.print_metrics("%s end-to-end" % name, rows)
    common.print_metrics("%s server stats" % name,
                         [(k, stats.get(k, 0), "count")
                          for k in ["received", "ok", "degraded", "error"] + traced.STATS_KEYS]
                         + [("journal_bytes", stats.get("journal_bytes", 0), "bytes")])
    correct = failed == 0 and stats.get("shed", 0) == 0
    out = {"rows": rows, "stats": stats, "attempted": attempted,
           "failed": failed, "correct": correct}
    if trace:
        wl = res["workload"]
        setup = (wl.trace_setup(wl.fresh_data_dir("trace"))
                 if name == "serve_write" else wl.trace_setup())
        prefix = traced.serve_prefix(name, recs)
        print("traced replay: %d ops (the first %d of each connection)"
              % (len(prefix), traced.SERVE_PREFIX[name]))
        # Warm-up ops replay first (op ids past the measured ones), so the
        # replay's caches start the timed ops in the same state.
        warm_ids = range(len(prefix), len(prefix) + len(res["warmup"]))
        lines = [setup] + [{"kind": "req", "op": i, "line": op.line.decode()}
                           for i, op in zip(warm_ids, res["warmup"])]
        lines += [{"kind": "req", "op": i, "line": r[2].line.decode()}
                  for i, r in enumerate(prefix)]
        tr = traced.replay(lines, rundir)
        bad = 0
        for i, r in enumerate(prefix):
            text = tr.results.get(i)
            try:
                ok = text is not None and r[2].check(json.loads(text))
            except ValueError:
                ok = False
            bad += not ok
        if bad:
            print("traced replay: %d of %d responses wrong" % (bad, len(prefix)))
            out["correct"] = False
            out["failed"] += bad
        live = {i: (r[2].cls, r[4], r[5]) for i, r in enumerate(prefix)}
        rates = traced.server_rates(res["stats0"], stats, len(recs))
        out.update(report_trace(name, tr, live, rates))
    return out


def run_cli(seed, rundir, seconds, rounds, trace):
    res = cli_batch.run(seed, rundir, seconds=None if rounds else seconds,
                        rounds=rounds)
    recs = res["records"]
    failed = sum(1 for r in recs if not r[2])
    samples = [(r[0].cls, r[0].shape, r[1]) for r in recs]
    rows = [("setup_s", median(res["setup_s"]), "s"),
            ("ops_per_s", len(recs) / res["wall_s"], "1/s"),
            ("p10_ms", percentile([r[1] for r in recs], LOW_Q), "ms"),
            ("p50_ms", median([r[1] for r in recs]), "ms"),
            ("failed_frac", failed / max(1, len(recs)), "ratio")]
    rows += class_latencies(samples, CLI_CLASSES)
    print("config: workload=cli_batch seed=%d git=%s nproc=%d children=1 "
          "commands=%d rounds=%d host_steal_pct=%.1f" % (
              seed, common.git_rev(), common.nproc(), len(recs), res["rounds"],
              res["steal_pct"]))
    common.print_metrics("cli_batch end-to-end", rows)
    out = {"rows": rows, "stats": {}, "attempted": len(recs), "failed": failed,
           "correct": failed == 0}
    if trace:
        prefix = traced.cli_prefix(recs)
        print("traced replay: %d commands (the first %d rounds)"
              % (len(prefix), traced.CLI_ROUNDS))
        lines = [{"kind": "cli", "op": i, "argv": r[0].argv}
                 for i, r in enumerate(prefix)]
        tr = traced.replay(lines, rundir)
        live = {i: (r[0].cls, r[1], None) for i, r in enumerate(prefix)}
        out.update(report_trace("cli_batch", tr, live, {}, res["startup_ms"]))
    return out


def report_trace(name, tr, live, rates, startup_ms=None):
    metrics, report = traced.layer_metrics(tr, live, rates, startup_ms)
    common.print_metrics("%s per-layer (traced replay)" % name,
                         [(k, metrics[k][0], metrics[k][1])
                          for k, _ in traced.PER_LAYER])
    common.print_metrics("%s layer times (traced replay)" % name, report)
    print("== %s coverage: layer self time per op class" % name)
    for line in traced.coverage(tr, live):
        print(line)
    sys.stdout.flush()
    return {"layers": metrics}


def run_one(name, seed, seconds, ops, trace):
    rundir = os.path.join(common.WORK, "run-" + name)
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    try:
        if name == "cli_batch":
            return run_cli(seed, rundir, seconds, ops, trace)
        return run_serve(name, seed, rundir, seconds, ops, trace)
    finally:
        common.reap_all()
        shutil.rmtree(rundir, ignore_errors=True)


def json_metrics(res, trace):
    if trace:
        return {k: (float(res["layers"][k][0]), u) for k, u in traced.PER_LAYER}
    rows = {n: v for n, v, _ in res["rows"]}
    return {k: (float(rows[k]), u) for k, u in END_TO_END}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--ops", type=int, default=None,
                    help="fixed size instead of --seconds: ops per connection "
                         "(serve) or rounds (cli_batch); used by smoke.py")
    args = ap.parse_args(argv)

    def stop(signum, _frame):
        common.reap_all()
        sys.exit(128 + signum)
    signal.signal(signal.SIGTERM, stop)

    try:
        common.build(trace=args.trace == 1 or args.workload == "all")
        if args.workload == "all":
            correct, attempted, failed, metrics = True, 0, 0, {}
            for name in WORKLOADS:
                for trace in (0, 1):
                    res = run_one(name, args.seed, args.seconds, args.ops, trace)
                    correct &= res["correct"]
                    attempted += res["attempted"]
                    failed += res["failed"]
                    for k, v in json_metrics(res, trace).items():
                        metrics["%s.%s" % (name, k)] = v
        else:
            res = run_one(args.workload, args.seed, args.seconds, args.ops,
                          args.trace)
            correct, attempted, failed = res["correct"], res["attempted"], res["failed"]
            metrics = json_metrics(res, args.trace)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    finally:
        common.reap_all()
    print(common.result_line(correct and attempted > 0, attempted, failed, metrics))
    return 0 if correct and attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
