"""The two `fmtk serve` workloads.

serve_read: an in-memory server with preloaded random graphs, a chain, a
cycle, linear orders and cycles for games. About 90% of requests come
from a fixed hot set that fits the 512-entry Qcache/Pcache; about 10%
carry a formula text never sent before, so the distinct texts of a run
outrun cache capacity.

serve_write: a durable server (--data-dir, sync always) recovering from
a pre-populated snapshot plus journal tail, then taking single-tuple
updates, maintained-plan RA evals and compiled evals of the updated
structures, and load/drop churn.

Both drive the server in a closed loop from one process with nproc
connections: each connection sends its next request when the previous
reply lands. Each connection owns its own op stream, so every expected
answer is known before the run starts.
"""

import gc
import json
import os
import random
import selectors
import shutil
import socket
import subprocess
import time

import common
import gen
from common import BenchError, now

SNAPSHOT_THRESHOLD = 4 * 1024 * 1024
SETUP_REPEATS = 15


# ---- server lifecycle ----

class Server:
    def __init__(self, rundir, extra_args):
        self.rundir = rundir
        self.sock = os.path.join(rundir, "s.sock")
        if os.path.exists(self.sock):
            os.unlink(self.sock)
        self.argv = [common.BIN, "serve", "--socket", self.sock, "--quiet"] + extra_args
        t0 = now()
        with open(os.path.join(rundir, "serve.log"), "ab") as log:
            self.proc = common.spawn(self.argv, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=log)
        deadline = t0 + 60
        while True:
            if self.proc.poll() is not None:
                raise BenchError("fmtk serve exited with %s at start-up (see %s)"
                                 % (self.proc.returncode, os.path.join(rundir, "serve.log")))
            try:
                conn = Conn(self.sock)
                reply = conn.call({"op": "ping"})
                if reply.get("status") == "ok":
                    self.setup_s = now() - t0
                    conn.close()
                    return
                conn.close()
            except OSError:
                pass
            if now() > deadline:
                raise BenchError("fmtk serve did not answer ping within 60 s")
            # Start-up takes a few ms: a coarser poll would quantise it.
            time.sleep(0.0002)

    def stats(self):
        conn = Conn(self.sock)
        try:
            return conn.call({"op": "stats"})["result"]
        finally:
            conn.close()

    def stop(self):
        code = common.reap(self.proc)
        if code != 0:
            raise BenchError("fmtk serve exited with %s on SIGTERM" % code)


def start_repeated(start):
    """Start a server SETUP_REPEATS times, stopping all but the last;
    returns the last one and every start-up time."""
    srv, times = None, []
    for _ in range(SETUP_REPEATS):
        if srv is not None:
            srv.stop()
        srv = start()
        times.append(srv.setup_s)
    return srv, times


class Conn:
    def __init__(self, path):
        self.s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.s.connect(path)
        except OSError:
            self.s.close()
            raise
        self.f = self.s.makefile("rwb")

    def call(self, req):
        self.f.write((json.dumps(req) + "\n").encode())
        self.f.flush()
        return json.loads(self.f.readline())

    def close(self):
        try:
            self.f.close()
        finally:
            self.s.close()


# ---- op records ----

class Op:
    """One request: its class and shape (for per-class latency), the
    exact line sent, and a check on the decoded response. The shape names
    the request up to what does not change its cost, e.g. the structure
    and formula template of an eval."""
    __slots__ = ("cls", "shape", "line", "check")

    def __init__(self, cls, shape, req, check):
        req = dict(req, timeout=common.OP_TIMEOUT_S)
        self.cls = cls
        self.shape = shape
        self.line = (json.dumps(req, separators=(",", ":")) + "\n").encode()
        self.check = check


def ok_result(check):
    def run(resp):
        return resp.get("status") == "ok" and check(resp.get("result", {}))
    return run


# ---- closed-loop driver ----

def drive(sock, streams, seconds=None, ops_per_conn=None):
    """Run one closed loop per stream until [seconds] pass or each
    connection has sent [ops_per_conn] ops. Returns (records, wall_s),
    records being (conn, seq, op, t_send, rtt_ms, server_ms, ok).

    One client thread multiplexes every connection with select(), and
    responses are decoded and checked after the loop: the client spends
    as little CPU, and as few thread hand-offs, as it can while the
    server is being timed."""
    conns = [Conn(sock) for _ in streams]
    sel = selectors.DefaultSelector()
    deadline = None if seconds is None else now() + seconds
    live = {}   # conn index -> (stream, op in flight, t_send, buffer)
    sent = [0] * len(streams)
    raw = []

    def send_next(i, stream):
        if deadline is not None and now() >= deadline:
            return False
        if ops_per_conn is not None and sent[i] >= ops_per_conn:
            return False
        op = next(stream, None)
        if op is None:
            return False
        sent[i] += 1
        t0 = now()
        conns[i].s.sendall(op.line)
        live[i] = (stream, op, t0, b"")
        return True

    start = now()
    for i, stream in enumerate(streams):
        stream = iter(stream)
        sel.register(conns[i].s, selectors.EVENT_READ, i)
        if not send_next(i, stream):
            sel.unregister(conns[i].s)
    gc.disable()
    try:
        while live:
            ready = sel.select(timeout=2 * common.OP_TIMEOUT_S)
            if not ready:
                raise BenchError("no reply within %d s" % (2 * common.OP_TIMEOUT_S))
            for key, _ in ready:
                i = key.data
                stream, op, t0, buf = live[i]
                chunk = conns[i].s.recv(1 << 16)
                if not chunk:
                    raise BenchError("server closed connection %d" % i)
                buf += chunk
                if not buf.endswith(b"\n"):
                    live[i] = (stream, op, t0, buf)
                    continue
                raw.append((i, op, t0, (now() - t0) * 1000.0, buf))
                del live[i]
                if not send_next(i, stream):
                    sel.unregister(conns[i].s)
    finally:
        gc.enable()
        sel.close()
        for c in conns:
            c.close()
    wall = now() - start
    records = []
    seqs = [0] * len(streams)
    for i, op, t0, rtt, line in raw:
        try:
            resp = json.loads(line)
            good, sms = bool(op.check(resp)), resp.get("ms")
        except ValueError:
            good, sms = False, None
        records.append((i, seqs[i], op, t0, rtt, sms, good))
        seqs[i] += 1
    return records, wall


# ---- serve_read ----

READ_GRAPHS = 4
READ_N, READ_M = 48, 140
# (left, right, rounds, weight) on preloaded orders/cycles; verdicts from
# Theorem 3.1 and the cycle bound.
GAMES = [("o7", "o9", 3, 2), ("o6", "o9", 3, 3), ("c12", "c13", 3, 1)]
DECIDES = [("o7", "o8", 3), ("o5", "o8", 3)]
# Requests per class in every block of 200 ("cold_*" carry a never-seen
# formula text). Fixed counts per block, not random draws: a run's mix
# then does not vary with the seed, and neither does its cost. The counts
# are synthetic: no recorded traffic gives them. The assumptions:
# - 180 hot : 20 cold, the 90%/10% split of the workload's definition;
# - every hot eval key (structure x template: 24 sentences, 12 queries,
#   18 RA) is equally popular, so "hot" draws them from one deck;
# - 10 in 200 are games or decide ladders: a decision procedure costs
#   10-100x an eval, so even at this share they take most of the
#   server's time (see the traced coverage table); among games, the
#   order pairs are drawn 5 times as often as c12/c13, which costs 2.5-5x
#   an order game in serve (no orbit pruning there);
# - fresh texts are mostly ad-hoc sentences; the 2 fresh RA texts per
#   block put a plan build (the misordered 3-path's among them) into
#   every timed block.
READ_BLOCK = [
    ("hot", 170), ("game", 6), ("decide", 4),
    ("cold_sentence", 14), ("cold_query", 4), ("cold_ra", 2),
]


class Deck:
    """Draws keys in shuffled passes, so every key recurs equally often."""

    def __init__(self, rng, keys):
        self.rng, self.keys, self.pile = rng, list(keys), []

    def draw(self):
        if not self.pile:
            self.pile = list(self.keys)
            self.rng.shuffle(self.pile)
        return self.pile.pop()


def blocks(rng, counts):
    """Endless classes: each block holds [counts] in shuffled order."""
    block = [c for c, k in counts for _ in range(k)]
    while True:
        rng.shuffle(block)
        yield from block


def _size(name):
    return int(name[1:])


def _game_truth(left, right, rounds):
    if left[0] == "o":
        return gen.orders_equiv(_size(left), _size(right), rounds)
    return gen.cycles_equiv(_size(left), _size(right), rounds)


class ReadWorkload:
    name = "serve_read"

    def __init__(self, seed, rundir):
        rng = random.Random(seed)
        self.seed = seed
        self.rundir = rundir
        self.graphs = {}
        for i in range(READ_GRAPHS):
            self.graphs["r%d" % i] = gen.gnm(rng, READ_N, READ_M)
        self.graphs["ch"] = gen.chain(rng, 40)[1]
        self.graphs["cy"] = gen.cycle(rng, 40)[1]
        self.preload = []
        for name, g in self.graphs.items():
            path = gen.write(os.path.join(rundir, "in", name + ".fmtk"), g.text())
            self.preload.append((name, path))
        for k in (5, 6, 7, 8, 9):
            self.preload.append(("o%d" % k, "order:%d" % k))
        for k in (12, 13):
            self.preload.append(("c%d" % k, "cycle:%d" % k))
        # Ground truth per (structure, template), computed once.
        self.truth = {}
        for sname, g in self.graphs.items():
            for t in gen.SENTENCES + gen.QUERIES + gen.RA_QUERIES:
                self.truth[(sname, t[0])] = t[3](g)
        self.hot_keys = {
            "sentence": [(s, t, False) for s in self.graphs for t in gen.SENTENCES],
            "query": [(s, t, False) for s in self.graphs for t in gen.QUERIES],
            "ra": [(s, t, True) for s in self.graphs for t in gen.RA_QUERIES],
        }
        self.game_keys = [g for g in GAMES for _ in range(g[3])]

    def server_args(self):
        args = []
        for name, spec in self.preload:
            args += ["--preload", "%s=%s" % (name, spec)]
        return args

    def trace_setup(self):
        return {"kind": "serve", "preload": [list(p) for p in self.preload],
                "data_dir": None}

    def eval_op(self, sname, t, suffix, ra):
        expected = self.truth[(sname, t[0])]
        shape = ("cold:%s" % t[0]) if suffix else "%s:%s" % (sname, t[0])
        req = {"op": "eval", "structure": sname, "formula": gen.render(t, suffix)}
        if ra:
            req["ra"] = True
        if not t[2]:
            check = ok_result(lambda r, e=expected: r.get("value") is e)
        else:
            check = ok_result(lambda r, v=t[2], e=expected: gen.answer_ok(r, v, e))
        return Op("eval_ra" if ra else "eval", shape, req, check)

    def game_op(self, key):
        left, right, rounds = key[:3]
        want = _game_truth(left, right, rounds)
        return Op("game", "%s/%s" % (left, right),
                  {"op": "game", "left": left, "right": right, "rounds": rounds},
                  ok_result(lambda r: r.get("equivalent") is want))

    def decide_op(self, key):
        left, right, rank = key
        want = "equivalent" if _game_truth(left, right, rank) else "distinguished"
        return Op("equiv", "%s/%s" % (left, right),
                  {"op": "decide", "left": left, "right": right, "rank": rank},
                  ok_result(lambda r: r.get("verdict") == want
                            and r.get("method") == "exact-game"))

    def warmup(self):
        """Every hot op once: fills the caches before timing starts."""
        ops = [self.eval_op(s, t, "", ra) for keys in self.hot_keys.values()
               for s, t, ra in keys]
        return ops + [self.game_op(g) for g in GAMES] + [self.decide_op(d) for d in DECIDES]

    def stream(self, conn):
        rng = random.Random(self.seed * 1009 + conn)
        hot = self.hot_keys
        decks = {
            "hot": Deck(rng, hot["sentence"] + hot["query"] + hot["ra"]),
            "cold_sentence": Deck(rng, hot["sentence"]),
            "cold_query": Deck(rng, hot["query"]), "cold_ra": Deck(rng, hot["ra"]),
            "game": Deck(rng, self.game_keys), "decide": Deck(rng, DECIDES),
        }
        fresh = 0
        for cls in blocks(rng, READ_BLOCK):
            key = decks[cls].draw()
            if cls == "game":
                yield self.game_op(key)
            elif cls == "decide":
                yield self.decide_op(key)
            else:
                suffix = ""
                if cls.startswith("cold_"):
                    fresh += 1
                    suffix = "_%d_%d" % (conn, fresh)
                yield self.eval_op(key[0], key[1], suffix, key[2])

    def setup(self):
        return start_repeated(lambda: Server(self.rundir, self.server_args()))


# ---- serve_write ----

WRITE_N, WRITE_M = 150, 480
BALLAST = 4
TAIL = 5  # journal records left after the pre-populated snapshot
CHURN_N, CHURN_M = 60, 150
CYCLE_OPS = 800
POOL = 12  # tuples toggled per side: present at start, absent at start
# Requests per class in every block of 16, shuffled within the block.
# The mutation share, 4 in 16, is E29's serve mix (2 mutations in 8;
# bench/main.ml, EXPERIMENTS.md). The rest is synthetic: of the
# mutations, 3 are single-tuple updates (the write path this workload is
# for) and 1 a load or drop (E29's kind of mutation, kept so load_ms is
# measured); the reads split evenly between maintained-plan RA evals
# and compiled evals, for want of any recorded ratio between them.
WRITE_BLOCK = [("update", 3), ("churn", 1), ("ra", 6), ("compiled", 6)]
WRITE_RA = [gen.TWO_PATH, gen.QUERIES[0]]  # two_path, asym
# Full scans (no early exit), so the class median sits inside one mode.
WRITE_COMPILED = gen.QUERIES


def _edge_pred(template):
    """Membership test of one answer tuple against an edge set."""
    name = template[0]
    if name == "two_path":
        return lambda E, t: (t[0], t[1]) in E and (t[1], t[2]) in E
    if name == "asym":
        return lambda E, t: (t[0], t[1]) in E and (t[1], t[0]) not in E
    raise ValueError(name)


def _count(template, g):
    name = template[0]
    if name == "two_path":
        return sum(len(g.inn[y]) * len(g.out[y]) for y in range(g.n))
    return len(template[3](g))


def _set_check(template, g):
    """Answer check for a query on state [g]: the exact count, and each
    sampled tuple tested against the edge set (building every state's
    full answer set up front would cost more than the run)."""
    if template[0] not in ("two_path", "asym"):
        expected = template[3](g)
        return lambda r: gen.answer_ok(r, template[2], expected)
    pred = _edge_pred(template)
    edges = g.edges
    count = _count(template, g)

    def check(r):
        vars_ = [gen.canonical_var(v) for v in r.get("vars", [])]
        if vars_ != list(template[2]) or r.get("count") != count:
            return False
        sample = r.get("tuples", [])
        return (len(sample) == min(50, count)
                and all(pred(edges, tuple(t)) for t in sample))
    return check


def _eval_op(sname, t, g, ra):
    req = {"op": "eval", "structure": sname, "formula": gen.render(t)}
    if ra:
        req["ra"] = True
    if not t[2]:
        want = t[3](g)
        check = ok_result(lambda r: r.get("value") is want)
    else:
        check = ok_result(_set_check(t, g))
    cls = "eval_ra" if ra else "eval"
    return Op(cls, "%s:%s" % (cls, t[0]), req, check)


class WriteWorkload:
    name = "serve_write"

    def __init__(self, seed, rundir):
        self.seed = seed
        self.rundir = rundir
        self.conns = common.nproc()
        rng = random.Random(seed)
        self.base = {"w%d" % i: gen.gnm(rng, WRITE_N, WRITE_M)
                     for i in range(self.conns)}
        self.ballast = {"b%d" % i: gen.gnm(rng, WRITE_N, WRITE_M)
                        for i in range(BALLAST)}
        self.churn = [[gen.gnm(rng, CHURN_N, CHURN_M) for _ in range(4)]
                      for _ in range(self.conns)]
        self.template_dir = os.path.join(rundir, "data.template")
        self.streams = [self._cycle(random.Random(seed * 7919 + i), i)
                        for i in range(self.conns)]

    def _cycle(self, rng, conn):
        """A state-neutral op cycle for one connection: it ends with the
        structure it started from, so it can repeat."""
        sname, tname = "w%d" % conn, "t%d" % conn
        g0 = self.base[sname]
        present = rng.sample(sorted(g0.edges), POOL)
        absent = []
        while len(absent) < POOL:
            u, v = rng.randrange(WRITE_N), rng.randrange(WRITE_N)
            if u != v and (u, v) not in g0.edges and (u, v) not in absent:
                absent.append((u, v))
        pool = present + absent
        edges = set(g0.edges)
        state = {"g": g0, "dirty": False}
        loaded = None
        ops = []

        def graph():
            if state["dirty"]:
                state["g"] = gen.Graph(WRITE_N, edges)
                state["dirty"] = False
            return state["g"]

        def toggle(t):
            add = t not in edges
            (edges.add if add else edges.discard)(t)
            state["dirty"] = True
            n = len(edges)
            action = "insert" if add else "delete"
            ops.append(Op("update", action,
                          {"op": "update", "structure": sname, "rel": "E",
                           "tuple": list(t), "action": action},
                          ok_result(lambda r, n=n: r.get("changed") is True
                                    and r.get("tuples") == n)))

        def churn(index):
            nonlocal loaded
            if loaded is None:
                cg = self.churn[conn][index % len(self.churn[conn])]
                loaded = cg
                ops.append(Op("load", "load", {"op": "load", "name": tname, "text": cg.text()},
                              ok_result(lambda r, g=cg: r.get("size") == g.n
                                        and r.get("tuples") == len(g.edges))))
            else:
                loaded = None
                ops.append(Op("load", "drop", {"op": "drop", "name": tname},
                              ok_result(lambda r: r.get("dropped") is True)))

        for i, cls in zip(range(CYCLE_OPS), blocks(rng, WRITE_BLOCK)):
            if cls == "update":
                toggle(rng.choice(pool))
            elif cls == "churn":
                churn(i)
            else:
                t = rng.choice(WRITE_RA if cls == "ra" else WRITE_COMPILED)
                ops.append(_eval_op(sname, t, graph(), cls == "ra"))
        for t in pool:
            if (t in edges) != (t in g0.edges):
                toggle(t)
        if loaded is not None:
            churn(0)
        return ops

    def warmup(self):
        """Every eval shape once per structure, on the starting state."""
        return [_eval_op(s, t, self.base[s], ra) for s in self.base
                for ra, ts in ((True, WRITE_RA), (False, WRITE_COMPILED))
                for t in ts]

    def stream(self, conn):
        while True:
            for op in self.streams[conn]:
                yield op

    def server_args(self, data_dir):
        return ["--data-dir", data_dir, "--sync", "always",
                "--snapshot-threshold", str(SNAPSHOT_THRESHOLD)]

    def trace_setup(self, data_dir):
        return {"kind": "serve", "preload": [], "data_dir": data_dir,
                "sync": "always", "snapshot_threshold": SNAPSHOT_THRESHOLD}

    def make_template(self):
        """Pre-populate a data dir through the server itself: load every
        structure with a small snapshot threshold, then journal ballast
        updates until one compaction has run and a tail remains."""
        shutil.rmtree(self.template_dir, ignore_errors=True)
        gen_threshold = 32 * 1024
        srv = Server(self.rundir, ["--data-dir", self.template_dir, "--sync", "always",
                                   "--snapshot-threshold", str(gen_threshold)])
        try:
            conn = Conn(srv.sock)
            for name, g in list(self.base.items()) + list(self.ballast.items()):
                r = conn.call({"op": "load", "name": name, "text": g.text()})
                if r.get("status") != "ok":
                    raise BenchError("pre-population load failed: %r" % r)
            # Insert fresh ballast edges until one compaction has run, then
            # TAIL more: recovery reads a snapshot plus a journal tail.
            rng = random.Random(self.seed + 17)
            edges = {b: set(g.edges) for b, g in self.ballast.items()}
            tail = None
            while tail is None or tail < TAIL:
                b = "b%d" % rng.randrange(BALLAST)
                u, v = rng.randrange(WRITE_N), rng.randrange(WRITE_N)
                if u == v or (u, v) in edges[b]:
                    continue
                edges[b].add((u, v))
                r = conn.call({"op": "update", "structure": b, "rel": "E",
                               "tuple": [u, v], "action": "insert"})
                if r.get("status") != "ok":
                    raise BenchError("pre-population update failed: %r" % r)
                if tail is not None:
                    tail += 1
                elif conn.call({"op": "stats"})["result"].get("compactions", 0) > 0:
                    tail = 0
            conn.close()
        finally:
            srv.stop()

    def fresh_data_dir(self, tag):
        d = os.path.join(self.rundir, "data." + tag)
        shutil.rmtree(d, ignore_errors=True)
        shutil.copytree(self.template_dir, d)
        return d

    def setup(self):
        self.make_template()
        return start_repeated(lambda: Server(
            self.rundir, self.server_args(self.fresh_data_dir("run"))))


WORKLOADS = {"serve_read": ReadWorkload, "serve_write": WriteWorkload}

# Counts in `stats` that repeat exactly for a fixed op count and seed
# (one worker executes requests in order per connection; nothing here
# depends on cross-connection timing).
REPEATABLE_STATS = {
    "serve_read": ["received", "ok", "error", "shed", "cache_misses",
                   "plan_misses"],
    "serve_write": ["received", "ok", "error", "shed", "journaled",
                    "plans_maintained", "plan_misses"],
}


def run(name, seed, rundir, seconds=None, ops_per_conn=None):
    """Set up, drive and tear down one serve workload. Returns a dict
    with the records, wall time, set-up times, final stats and config."""
    wl = WORKLOADS[name](seed, rundir)
    srv, setups = wl.setup()
    try:
        warm = wl.warmup()
        warm_records, _ = drive(srv.sock, [iter(warm)])
        conns = common.nproc()
        streams = [wl.stream(i) for i in range(conns)]
        stats0 = srv.stats()
        ticks = common.cpu_ticks()
        records, wall = drive(srv.sock, streams, seconds, ops_per_conn)
        steal = common.steal_pct(ticks, common.cpu_ticks())
        stats = srv.stats()
    finally:
        srv.stop()
    return {"workload": wl, "warmup": warm, "records": records, "wall_s": wall,
            "warmup_failed": sum(1 for r in warm_records if not r[6]),
            "setup_s": setups, "stats0": stats0, "stats": stats, "conns": conns,
            "steal_pct": steal}
