"""Shared plumbing for the perfbench workloads: building fmtk, running
child processes, timing statistics and metric output."""

import json
import os
import shutil
import subprocess
import sys
import time

# Everything the benchmark writes lives under this directory of the
# checkout (paths stay relative: Unix socket paths are capped at ~100
# characters, and a checkout can sit anywhere).
WORK = os.path.join(".bench_build", "perfbench")
BIN = os.path.join("_build", "default", "bin", "fmtk_cli.exe")
TRACE_SRC = os.path.join("perfbench", "_trace")
# A scanned copy of TRACE_SRC, present only while the helper builds.
TRACE_COPY = os.path.join("perfbench", "trace_build")
TRACE_BIN = os.path.join(WORK, "fmtk_trace.exe")

# Every op is sent with this deadline: far above any op's latency, so a
# latency measures work and never a timer. It is the server's default
# max_timeout.
OP_TIMEOUT_S = 60


class BenchError(Exception):
    """The benchmark could not run (missing sources, failed build, a
    server that would not start). The run exits non-zero without a
    result line."""


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_rev():
    """The checkout's commit, or "unknown" outside a git work tree (git
    is not allowed to look above the checkout for one)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def now():
    return time.perf_counter()


def cpu_ticks():
    """Aggregate /proc/stat CPU ticks (None where there is no /proc)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_pct(before, after):
    """Share of CPU time the hypervisor gave to other guests between two
    cpu_ticks() readings. On a shared host this moves every timing."""
    if not before or not after or len(before) < 8:
        return float("nan")
    d = [b - a for a, b in zip(before, after)]
    return 100.0 * d[7] / max(1, sum(d))


# ---- statistics ----

def median(xs):
    xs = sorted(xs)
    if not xs:
        return 0.0
    n = len(xs)
    mid = n // 2
    return float(xs[mid]) if n % 2 else (xs[mid - 1] + xs[mid]) / 2.0


def percentile(xs, q):
    """Nearest-rank percentile, q in (0, 100]."""
    xs = sorted(xs)
    if not xs:
        return 0.0
    k = max(0, min(len(xs) - 1, -(-len(xs) * q // 100) - 1))
    return float(xs[int(k)])


def mean(xs):
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


# ---- building ----

def _dune(args):
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet"] + args,
        capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise BenchError("dune build %s failed:\n%s" % (
            " ".join(args), (proc.stdout + proc.stderr)[-3000:]))


def build(trace):
    """Build the fmtk binary from the checkout's sources; with [trace],
    also the in-process replay helper."""
    for need in ("dune-project", os.path.join("bin", "fmtk_cli.ml"),
                 os.path.join("lib", "server", "server.ml")):
        if not os.path.exists(need):
            raise BenchError("not an fmtk checkout: %s is missing" % need)
    if shutil.which("dune") is None:
        raise BenchError("dune is not on PATH")
    os.makedirs(WORK, exist_ok=True)
    _dune([BIN])
    if trace:
        shutil.rmtree(TRACE_COPY, ignore_errors=True)
        try:
            shutil.copytree(TRACE_SRC, TRACE_COPY)
            exe = os.path.join(TRACE_COPY, "fmtk_trace.exe")
            _dune([exe])
            shutil.copyfile(os.path.join("_build", "default", exe), TRACE_BIN)
            os.chmod(TRACE_BIN, 0o755)
        finally:
            shutil.rmtree(TRACE_COPY, ignore_errors=True)


# ---- child processes ----

_children = []


def spawn(argv, **kw):
    proc = subprocess.Popen(argv, **kw)
    _children.append(proc)
    return proc


def reap(proc, grace=15.0):
    """SIGTERM (the server's graceful drain), then SIGKILL after [grace]."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc in _children:
        _children.remove(proc)
    return proc.returncode


def reap_all():
    for proc in list(_children):
        reap(proc, grace=5.0)


# ---- output ----

def fmt_value(v):
    return repr(float(v)) if isinstance(v, float) else str(v)


def print_metrics(title, rows):
    """rows: (name, value, unit) triples, printed one per line."""
    print("== %s" % title)
    for name, value, unit in rows:
        print("  %-28s %14s %s" % (name, fmt_value(value), unit))
    sys.stdout.flush()


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
