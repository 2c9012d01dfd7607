"""The one-shot `fmtk` CLI workload.

Runs rounds of commands, one child process at a time. A round holds
every command once; rounds repeat until the run's time is up, and a
started round is finished so each command class gets the same number of
samples. Inputs are seeded (relabelled chains, trees, orders, cycles and
a G(n,m) random graph written as files; the regular graph comes from
fmtk's own seeded spec), sizes are fixed.
"""

import gc
import os
import random
import subprocess

import common
import gen
from common import BenchError, now

EVAL_N, EVAL_M = 100, 495
TREE_DEPTH = 5
CHAIN_N = 45
HANF_SIDE = 200  # torus HANF_SIDE x HANF_SIDE vs regular:HANF_SIDE^2:4:s
KEC_N = 200
# Rank-2 graph sentences and their almost-sure values.
ZERO_ONE = [
    ("forall x. exists y. E(x,y)", "1"),
    ("exists x. forall y. !E(x,y)", "0"),
    ("forall x. exists y. (!(x = y) & !E(x,y))", "1"),
    ("exists x. forall y. (x = y | E(x,y))", "0"),
]
CLI_TIMEOUT_S = 120
# The --ra commands take 25-90 ms of a ~4 s round; each runs this many
# times a round, so its shape median rests on more samples.
RA_REPEATS = 3


class Command:
    """One command line: its class, its shape (what sets its cost, for
    per-class latency), argv after the binary, and an output check."""
    __slots__ = ("cls", "shape", "argv", "check")

    def __init__(self, cls, shape, argv, check):
        self.cls, self.shape, self.argv, self.check = cls, shape, argv, check


def _answers(out, canon_vars, expected):
    """`fmtk eval` prints 'answers over (v1,...):' then one tuple a line."""
    lines = out.splitlines()
    if not lines or not lines[0].startswith("answers over ("):
        return False
    vars_ = lines[0][len("answers over ("):-2].split(",")
    if sorted(vars_) != sorted(canon_vars):
        return False
    idx = [vars_.index(v) for v in canon_vars]
    got = {tuple(t[i] for i in idx) for t in gen.parse_tuple_lines(lines[1:])}
    return got == expected


def _first_line(want):
    return lambda out: out.splitlines()[:1] == [want]


class Workload:
    name = "cli_batch"

    def __init__(self, seed, rundir):
        self.seed = seed
        self.rundir = rundir
        self.inputs = os.path.join(rundir, "in")

    def generate(self):
        """Write this seed's inputs and build the round of commands."""
        rng = random.Random(self.seed)
        path = lambda name: os.path.join(self.inputs, name)
        cmds = []

        g = gen.gnm(rng, EVAL_N, EVAL_M)
        gpath = gen.write(path("g.fmtk"), g.text())
        wedge = gen.RA_QUERIES[2]
        cmds.append(Command("eval", wedge[0], ["eval", gpath, gen.render(wedge)],
                            lambda o, e=wedge[3](g): _answers(o, wedge[2], e)))
        # The misordered 3-path leads with a cross product: its plan is
        # the join-reordering case.
        for t in (wedge, gen.RA_QUERIES[0]):
            cmds += [Command("eval_ra", t[0], ["eval", gpath, gen.render(t), "--ra"],
                             lambda o, t=t, e=t[3](g): _answers(o, t[2], e))] * RA_REPEATS

        orders = {k: gen.write(path("o%d.fmtk" % k), gen.order_text(rng, k))
                  for k in (6, 7, 9)}
        cycles = {k: gen.write(path("c%d.fmtk" % k), gen.cycle(rng, k)[1].text())
                  for k in (12, 13)}
        for a, b, files, truth in ((7, 9, orders, gen.orders_equiv),
                                   (6, 9, orders, gen.orders_equiv),
                                   (12, 13, cycles, gen.cycles_equiv)):
            word = "wins" if truth(a, b, 3) else "loses"
            cmds.append(Command("game", "%d/%d" % (a, b),
                                ["game", files[a], files[b], "-n", "3"],
                                _first_line("duplicator %s the 3-round game" % word)))

        tree, depth_of = gen.binary_tree(rng, TREE_DEPTH)
        sg = {(x, y) for x in range(tree.n) for y in range(tree.n)
              if depth_of[x] == depth_of[y]}
        tpath = gen.write(path("tree.fmtk"), tree.text())
        cmds.append(Command(
            "datalog", "sg", ["datalog", tpath, "--program", "sg"],
            lambda o: (o.splitlines()[0].startswith("sg: %d tuples " % len(sg))
                       and gen.parse_tuple_lines(o.splitlines()[1:]) == sg)))

        perm, ch = gen.chain(rng, CHAIN_N)
        tc = {(perm[i], perm[j]) for i in range(CHAIN_N) for j in range(i + 1, CHAIN_N)}
        assert len(tc) == CHAIN_N * (CHAIN_N - 1) // 2
        cpath = gen.write(path("chain.fmtk"), ch.text())
        cmds.append(Command(
            "ifp", "tc", ["ifp", cpath, "--query", "tc"],
            lambda o: (o.splitlines()[0] == "tc: %d pairs" % len(tc)
                       and gen.parse_tuple_lines(o.splitlines()[1:-1]) == tc)))

        # G <->_2 G holds; a torus has a 4-cycle through every node and a
        # random 4-regular graph through almost none, so they differ.
        reg = "regular:%d:4:%d" % (HANF_SIDE * HANF_SIDE, rng.randrange(1 << 30))
        torus = "torus:%dx%d" % (HANF_SIDE, HANF_SIDE)
        for shape, other, want in (("regular", reg, "true"), ("torus", torus, "false")):
            cmds.append(Command("locality", shape, ["hanf", reg, other, "-r", "2"],
                                _first_line("G ⇆2 G': %s" % want)))

        self.round = cmds
        return cmds

    def next_round(self, rng):
        """The fixed commands plus one almost-sure check, in seeded order."""
        phi, mu = ZERO_ONE[rng.randrange(len(ZERO_ONE))]
        seed = str(rng.randrange(1 << 20))
        cmds = self.round + [Command(
            "zeroone", "kec", ["decide", phi, "--search", str(KEC_N), "--seed", seed],
            _first_line("μ = %s" % mu))]
        rng.shuffle(cmds)
        return cmds


def run_cmd(cmd):
    t0 = now()
    proc = subprocess.run([common.BIN] + cmd.argv, capture_output=True,
                          text=True, timeout=CLI_TIMEOUT_S)
    ms = (now() - t0) * 1000.0
    good = proc.returncode == 0
    if good:
        try:
            good = bool(cmd.check(proc.stdout))
        except (IndexError, ValueError):
            good = False
    return ms, good


def version_probe():
    t0 = now()
    proc = subprocess.run([common.BIN, "--version"], capture_output=True,
                          timeout=CLI_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("fmtk --version exited with %d" % proc.returncode)
    return now() - t0


# Set-up is ~20 ms of Python and one process start: it takes more
# repeats than the serve set-ups for a steady median, and runs with the
# cyclic garbage collector off, whose passes would land in some repeats.
SETUP_REPEATS = 15


def run(seed, rundir, seconds=None, rounds=None):
    wl = Workload(seed, rundir)
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        gc.disable()
        try:
            t0 = now()
            wl.generate()
            version_probe()
            setups.append(now() - t0)
        finally:
            gc.enable()
    startup = [version_probe() * 1000.0 for _ in range(5)]
    rng = random.Random(seed * 31 + 1)
    records = []
    ticks = common.cpu_ticks()
    start = now()
    deadline = start + seconds if seconds is not None else None
    done = 0
    while True:
        if deadline is not None and now() >= deadline:
            break
        if rounds is not None and done >= rounds:
            break
        for cmd in wl.next_round(rng):
            ms, good = run_cmd(cmd)
            records.append((cmd, ms, good, done))
        done += 1
    wall = now() - start
    return {"workload": wl, "records": records, "wall_s": wall,
            "setup_s": setups, "startup_ms": startup, "rounds": done,
            "steal_pct": common.steal_pct(ticks, common.cpu_ticks())}
