"""Smoke check of the benchmark itself, at reduced size.

Run from the root of an fmtk checkout:

    python3 perfbench/smoke.py [--seed N]

For every workload it runs perfbench/run.py twice with the same seed and
a fixed op count (--ops), then once with --trace 1, and checks that:

- each run exits 0 with "correct": true and "failed": 0 (failed_frac 0);
- the result line holds exactly the end_to_end metrics of BENCHMARK.json
  (the per_layer ones with --trace 1), each with its declared unit;
- the report prints every end-to-end metric the workload has, with a unit;
- the `stats` counts that should repeat for a fixed op count do repeat.

Exits 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import serve  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
BENCH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# Report-only metrics each workload prints besides the JSON ones.
REPORTED = {
    "serve_read": ["ops_per_s", "p99_ms", "failed_frac", "game_ms", "equiv_ms"],
    "serve_write": ["ops_per_s", "p99_ms", "failed_frac", "update_ms", "load_ms"],
    "cli_batch": ["ops_per_s", "failed_frac", "game_ms", "datalog_ms", "ifp_ms",
                  "locality_ms", "zeroone_ms"],
}
OPS = {"serve_read": 150, "serve_write": 150, "cli_batch": 1}


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--ops", str(OPS[workload]), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, lines, result, proc.stderr


def section(lines, title):
    """(name, value, unit) rows printed under '== title'."""
    rows, inside = {}, False
    for line in lines:
        if line.startswith("== "):
            inside = line[3:] == title
        elif inside and line.startswith("  "):
            parts = line.split()
            if len(parts) == 3:
                rows[parts[0]] = (float(parts[1]), parts[2])
    return rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    with open(BENCH) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []

    def expect(cond, msg):
        if not cond:
            problems.append(msg)
            print("FAIL: " + msg)

    for wl in [w["name"] for w in bench["workloads"]]:
        stats = []
        for attempt in (1, 2):
            code, lines, res, err = run(wl, args.seed, 0)
            tag = "%s run %d" % (wl, attempt)
            expect(code == 0, "%s exited %d: %s" % (tag, code, err[-500:]))
            if res is None:
                continue
            expect(res["correct"] and res["failed"] == 0,
                   "%s: correct=%s failed=%s" % (tag, res["correct"], res["failed"]))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == e2e, "%s: result metrics %s != BENCHMARK.json %s"
                   % (tag, got, e2e))
            report = section(lines, "%s end-to-end" % wl)
            for name in list(e2e) + REPORTED[wl]:
                expect(name in report, "%s: report lacks %s" % (tag, name))
            expect(report.get("failed_frac", (1, ""))[0] == 0.0,
                   "%s: failed_frac is not 0" % tag)
            for name, unit in e2e.items():
                expect(report.get(name, (0, None))[1] == unit,
                       "%s: %s printed without unit %s" % (tag, name, unit))
            stats.append(section(lines, "%s server stats" % wl))
        if len(stats) == 2 and wl in serve.REPEATABLE_STATS:
            for key in serve.REPEATABLE_STATS[wl]:
                a, b = stats[0].get(key), stats[1].get(key)
                expect(a is not None and a == b,
                       "%s: stats %s differs across same-seed runs: %s vs %s"
                       % (wl, key, a, b))
        code, lines, res, err = run(wl, args.seed, 1)
        expect(code == 0, "%s traced run exited %d: %s" % (wl, code, err[-500:]))
        if res is not None:
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == layers, "%s traced: metrics %s != BENCHMARK.json per_layer"
                   % (wl, sorted(set(got) ^ set(layers))))
            expect(res["correct"] and res["failed"] == 0,
                   "%s traced: correct=%s failed=%s" % (wl, res["correct"], res["failed"]))
        print("%s: %s" % (wl, "ok" if not problems else "checked"))
    print("smoke: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
