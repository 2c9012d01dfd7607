"""The traced run: replays a workload's operations in-process through
fmtk_trace (perfbench/_trace), which records a span around every call
into a library module, then turns the spans into per-layer metrics.

A layer's self time is its span minus the spans nested in it.
`trace.unattributed_ms` is, per op, the untraced end-to-end latency
minus the summed self times of every traced layer, as a median: wire,
queueing and process start-up stay visible there instead of vanishing.

The replay takes a fixed-size prefix of the timed run (the first
SERVE_PREFIX ops of each connection; on serve_write enough journal for
a compaction, the first CLI_ROUNDS rounds), so
its counts do not grow with how many ops the timed run got through.
Counts are reported per 1000 ops (unit count/kop) all the same, as are
the server's own `stats` counts, taken over the timed phase.
"""

import json
import os
import subprocess
from collections import defaultdict

import common
from common import BenchError, mean, median

SERVE_PREFIX = {"serve_read": 2000, "serve_write": 6000}  # ops per connection
CLI_ROUNDS = 3

# Reported by every workload with --trace 1. A module a workload never
# reaches reports 0: that zero is the predicted non-mover.
PER_LAYER = [
    ("structure.build_ms", "ms"),
    ("parser.parse_us", "us"),
    ("trace.unattributed_ms", "ms"),
    ("protocol.response_bytes", "bytes"),
    ("qcache.hit_rate", "ratio"),
    ("qcache.compiles", "count/kop"),
    ("pcache.hit_rate", "ratio"),
    ("pcache.maintained", "count/kop"),
    ("planner.qerror", "ratio"),
    ("physical.rows", "count"),
    ("journal.bytes_per_mutation", "bytes"),
    ("journal.write_amp", "ratio"),
    ("snapshot.compactions", "count/kop"),
    ("games.positions", "count"),
    ("games.memo_hits", "count"),
    ("decide.positions", "count"),
    ("eval.work", "count"),
    ("datalog.join_steps", "count"),
    ("datalog.iterations", "count"),
    ("fixpoint.stages", "count"),
    ("zeroone.draws", "count"),
    ("server.cache_hits", "count/kop"),
    ("server.cache_misses", "count/kop"),
    ("server.plan_hits", "count/kop"),
    ("server.plan_misses", "count/kop"),
    ("server.plans_maintained", "count/kop"),
    ("server.shed", "count/kop"),
    ("server.journaled", "count/kop"),
    ("server.compactions", "count/kop"),
]

# Counters of the server's `stats`, reported per 1000 timed ops.
# `journal_bytes` is printed with the raw stats only: it is the journal's
# current size, which each compaction resets, not a total.
STATS_KEYS = ["cache_hits", "cache_misses", "plan_hits", "plan_misses",
              "plans_maintained", "shed", "journaled", "compactions"]


class Trace:
    def __init__(self, path):
        self.spans = {}          # id -> (parent, op, name, dur_us)
        self.counters = defaultdict(list)   # name -> [(op, value)]
        self.results = {}        # op -> text
        with open(path) as f:
            for line in f:
                kind, rest = line[0], line[2:].rstrip("\n")
                if kind == "S":
                    sid, parent, op, name, t0, t1 = rest.split(" ")
                    self.spans[int(sid)] = (int(parent), int(op), name,
                                            float(t1) - float(t0))
                elif kind == "C":
                    op, name, value = rest.split(" ")
                    self.counters[name].append((int(op), float(value)))
                elif kind == "R":
                    op, _, text = rest.partition(" ")
                    self.results[int(op)] = text
        child = defaultdict(float)
        for parent, _, _, dur in self.spans.values():
            if parent >= 0:
                child[parent] += dur
        # (op, name, dur_us, self_us) per span
        self.rows = [(op, name, dur, dur - child[sid])
                     for sid, (parent, op, name, dur) in self.spans.items()]
        # name -> [(op, dur_us, self_us)]; op -> name -> summed dur / self
        self.by_name = defaultdict(list)
        self.op_dur = defaultdict(lambda: defaultdict(float))
        self.op_self = defaultdict(lambda: defaultdict(float))
        for op, name, dur, own in self.rows:
            self.by_name[name].append((op, dur, own))
            self.op_dur[op][name] += dur
            self.op_self[op][name] += own

    def op_ms(self, op, name="op"):
        return self.op_dur[op][name] / 1000.0

    def durs(self, name, ops=None):
        return [d for op, d, _ in self.by_name[name] if ops is None or op in ops]

    def selfs(self, name, ops=None):
        return [s for op, _, s in self.by_name[name] if ops is None or op in ops]

    def values(self, name, ops=None):
        return [v for op, v in self.counters.get(name, [])
                if ops is None or op in ops]

    def total(self, name, ops=None):
        return sum(self.values(name, ops))

    def ops_with(self, name, ops=None):
        return {op for op, v in self.counters.get(name, [])
                if v > 0 and (ops is None or op in ops)}


def serve_prefix(name, recs):
    """The records replayed: each connection's first SERVE_PREFIX[name]
    ops, in (seq, connection) order. records: (conn, seq, op, ...)."""
    return sorted((r for r in recs if r[1] < SERVE_PREFIX[name]),
                  key=lambda r: (r[1], r[0]))


def cli_prefix(recs):
    """records: (command, ms, good, round)."""
    return [r for r in recs if r[3] < CLI_ROUNDS]


def server_rates(before, after, ops):
    """The server's `stats` counts over the timed phase, per 1000 ops."""
    return {k: 1000.0 * (after.get(k, 0) - before.get(k, 0)) / max(1, ops)
            for k in STATS_KEYS}


def replay(ops_lines, rundir):
    ops_path = os.path.join(rundir, "trace-ops.jsonl")
    out_path = os.path.join(rundir, "trace-out.txt")
    with open(ops_path, "w") as f:
        for obj in ops_lines:
            f.write(json.dumps(obj) + "\n")
    proc = subprocess.run([common.TRACE_BIN, ops_path, out_path],
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError("traced replay failed:\n%s" % proc.stderr[-3000:])
    return Trace(out_path)


def _ms(us_list):
    return mean(us_list) / 1000.0


def layer_metrics(tr, live, rates, startup_ms=None):
    """live: op -> (cls, e2e_ms, server_ms or None) for the replayed
    timed ops (warm-up ops are replayed too, but not counted); rates:
    server_rates(), or {} without a server. Returns (json metrics,
    report-only layer times)."""
    ops = set(live)
    kop = 1000.0 / max(1, len(ops))
    compiled_calls = len(tr.durs("qcache.with_compiled", ops))
    qmiss = tr.ops_with("qcache.miss", ops)
    ra_calls = len(tr.durs("pcache.with_result", ops))
    pmiss = tr.ops_with("pcache.miss", ops)
    pcalls = {op for op, _, _ in tr.by_name["pcache.with_result"] if op in ops}
    compact_ops = tr.ops_with("snapshot.compactions")
    # Journal figures of single-tuple updates only; load/drop go to the
    # report (journal.churn_bytes).
    jbytes = tr.values("journal.update.bytes", ops)
    jpayload = tr.total("journal.update.payload_bytes", ops)
    qerr = []
    for (op, est), (_, rows) in zip(tr.counters.get("planner.est", []),
                                    tr.counters.get("physical.rows", [])):
        if est > 0 and rows > 0:
            qerr.append(max(est / rows, rows / est))
    gaps = [e2e - tr.op_ms(op) for op, (cls, e2e, _) in live.items()]

    def per(name):
        return mean(tr.values(name, ops))

    zeroone_ops = {op for op, _ in tr.counters.get("zeroone.draws", [])}
    metrics = {
        "structure.build_ms": (_ms(tr.durs("structure.build")), "ms"),
        "parser.parse_us": (mean(tr.durs("parser.parse")), "us"),
        "trace.unattributed_ms": (median(gaps), "ms"),
        "protocol.response_bytes": (per("protocol.response_bytes"), "bytes"),
        "qcache.hit_rate": ((1.0 - tr.total("qcache.miss", ops) / compiled_calls)
                            if compiled_calls else 0.0, "ratio"),
        "qcache.compiles": (kop * tr.total("qcache.miss", ops), "count/kop"),
        "pcache.hit_rate": ((1.0 - tr.total("pcache.miss", ops) / ra_calls)
                            if ra_calls else 0.0, "ratio"),
        "pcache.maintained": (kop * tr.total("pcache.maintained", ops), "count/kop"),
        "planner.qerror": (median(qerr), "ratio"),
        "physical.rows": (per("physical.rows"), "count"),
        "journal.bytes_per_mutation": (mean(jbytes), "bytes"),
        "journal.write_amp": ((sum(jbytes) / jpayload) if jpayload else 0.0, "ratio"),
        "snapshot.compactions": (kop * tr.total("snapshot.compactions", ops),
                                 "count/kop"),
        "games.positions": (per("games.positions"), "count"),
        "games.memo_hits": (per("games.memo_hits"), "count"),
        "decide.positions": (per("decide.positions"), "count"),
        "eval.work": (per("eval.work"), "count"),
        "datalog.join_steps": (per("datalog.join_steps"), "count"),
        "datalog.iterations": (per("datalog.iterations"), "count"),
        "fixpoint.stages": (per("fixpoint.stages"), "count"),
        "zeroone.draws": ((tr.total("zeroone.draws") / len(zeroone_ops))
                          if zeroone_ops else 0.0, "count"),
    }
    for k in STATS_KEYS:
        metrics["server." + k] = (float(rates.get(k, 0.0)), "count/kop")

    # Layer times a workload reaches only when it loads the module; they
    # go to the report, not the JSON line.
    upd = [d for op, d, _ in tr.by_name["store.update"] if op not in compact_ops]
    compacting = [d for name in ("store.update", "store.put", "store.remove")
                  for op, d, _ in tr.by_name[name] if op in compact_ops]
    served = [(op, v) for op, v in live.items() if v[2] is not None]
    hanf_ns = sum(tr.durs("locality.hanf")) * 1000.0
    nodes = tr.total("locality.nodes")
    report = [
        ("protocol.decode_us", mean(tr.durs("protocol.decode")), "us"),
        ("protocol.encode_us", mean(tr.durs("protocol.encode")), "us"),
        ("server.outside_ms", median([e2e - sms for _, (c, e2e, sms) in served]), "ms"),
        ("server.queue_wait_ms", median([
            sms - (tr.op_ms(op) - tr.op_ms(op, "protocol.decode")
                   - tr.op_ms(op, "protocol.encode"))
            for op, (c, e2e, sms) in served]), "ms"),
        ("compiled.compile_us", mean(tr.selfs("qcache.with_compiled", qmiss)), "us"),
        ("compiled.run_us", mean(tr.durs("compiled.run")), "us"),
        ("compiled.answers_ms", _ms(tr.durs("compiled.answers")), "ms"),
        ("pcache.hit_us", mean(tr.selfs("pcache.with_result", pcalls - pmiss)), "us"),
        ("delta.materialize_ms", _ms(tr.selfs("pcache.with_result", pmiss)), "ms"),
        ("delta.update_us", (sum(tr.durs("pcache.apply_update"))
                             / max(1.0, tr.total("pcache.maintained"))), "us"),
        ("store.update_us", median(upd), "us"),
        ("store.put_us", mean(tr.durs("store.put", ops)), "us"),
        ("store.recovery_ms", _ms(tr.durs("store.recovery")), "ms"),
        ("journal.churn_bytes", mean(tr.values("journal.churn.bytes", ops)), "bytes"),
        ("snapshot.compact_ms", (mean(compacting) - median(upd)) / 1000.0
         if compacting else 0.0, "ms"),
        ("planner.plan_us", mean(tr.durs("planner.plan")), "us"),
        ("physical.run_ms", _ms(tr.durs("physical.run")), "ms"),
        ("games.solve_ms", _ms(tr.durs("games.solve")), "ms"),
        ("decide.equiv_ms", _ms(tr.durs("decide.equiv")), "ms"),
        ("eval.answers_ms", _ms(tr.durs("eval.answers")), "ms"),
        ("datalog.seminaive_ms", _ms(tr.durs("datalog.seminaive")), "ms"),
        ("fixpoint.ifp_ms", _ms(tr.durs("fixpoint.ifp")), "ms"),
        ("locality.hanf_ms", _ms(tr.durs("locality.hanf")), "ms"),
        ("locality.ns_per_node", hanf_ns / nodes if nodes else 0.0, "ns"),
        ("zeroone.kec_ms", _ms(tr.durs("zeroone.kec")), "ms"),
    ]
    if startup_ms is not None:
        report.append(("cli.startup_ms", median(startup_ms), "ms"))
    return metrics, report


def coverage(tr, live):
    """Per op class: untraced e2e median, traced median, each layer's
    mean self time per op, and trace.unattributed_ms: the median over
    the class's ops of e2e latency minus the traced layers' summed self
    time (which is the traced op span)."""
    by_cls = defaultdict(list)
    for op, (cls, e2e, _) in live.items():
        by_cls[cls].append(op)
    lines = []
    for cls in sorted(by_cls):
        ops = by_cls[cls]
        e2e = median([live[op][1] for op in ops])
        traced = median([tr.op_ms(op) for op in ops])
        gap = median([live[op][1] - tr.op_ms(op) for op in ops])
        layers = defaultdict(float)
        for op in ops:
            for name, s in tr.op_self[op].items():
                layers[name] += s / 1000.0 / len(ops)
        lines.append("  %s: %d ops, e2e median %.4f ms, traced median %.4f ms, "
                     "trace.unattributed_ms %.4f" % (cls, len(ops), e2e, traced, gap))
        for name, ms in sorted(layers.items(), key=lambda kv: -kv[1]):
            if ms >= 0.0005:
                label = "(glue)" if name == "op" else name
                lines.append("      %-24s %10.4f ms self/op (mean)" % (label, ms))
    return lines
