"""Seeded inputs and their ground truth.

Every structure whose answers are checked is generated here (not by an
fmtk spec), so the oracle knows its edges. Structure sizes and query
shapes are fixed; the seed moves edges, labels and op order. That keeps
the cost of a run steady from seed to seed while the inputs differ.

The oracles are direct set computations over the edge set, written
independently of fmtk's evaluators, plus closed forms: Theorem 3.1 for
EF games on linear orders, cycles of length >= 2^n for n-round games,
|TC(chain_n)| = n(n-1)/2, same-generation = same depth on a tree, and
G <->_r G for Hanf equivalence.
"""

import os


class Graph:
    """A directed graph on 0..n-1 (the fmtk signature {E/2})."""

    def __init__(self, n, edges):
        self.n = n
        self.edges = frozenset(edges)
        self.out = [set() for _ in range(n)]
        self.inn = [set() for _ in range(n)]
        for u, v in self.edges:
            self.out[u].add(v)
            self.inn[v].add(u)

    def text(self):
        return "graph %d directed\n%s" % (
            self.n, "".join("%d %d\n" % e for e in sorted(self.edges)))


def gnm(rng, n, m):
    """Uniform random loop-free directed graph with exactly m edges."""
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((u, v))
    return Graph(n, edges)


def relabel(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, Graph(n, [(perm[u], perm[v]) for u, v in edges])


def chain(rng, n):
    return relabel(rng, n, [(i, i + 1) for i in range(n - 1)])


def cycle(rng, n):
    return relabel(rng, n, [(i, (i + 1) % n) for i in range(n)])


def binary_tree(rng, depth):
    """Heap-numbered complete binary tree, relabelled; returns the
    permutation, the graph and each original node's depth."""
    size = (1 << (depth + 1)) - 1
    edges = [(i, c) for i in range(size) for c in (2 * i + 1, 2 * i + 2)
             if c < size]
    perm, g = relabel(rng, size, edges)
    depth_of = {}
    for i in range(size):
        depth_of[perm[i]] = (i + 1).bit_length() - 1
    return g, depth_of


def order_text(rng, n):
    """A linear order (signature {lt/2}) with shuffled labels."""
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = " ".join("(%d,%d)" % (perm[i], perm[j])
                     for i in range(n) for j in range(i + 1, n))
    return "domain %d\nrel lt/2 = %s\n" % (n, pairs)


def write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write(text)
    return path


# ---- EF closed forms ----

def orders_equiv(m, k, rounds):
    """Theorem 3.1: L_m ==_n L_k iff m = k or m, k >= 2^n - 1."""
    t = (1 << rounds) - 1
    return m == k or (m >= t and k >= t)


def cycles_equiv(m, k, rounds):
    """Only used with m = k or m, k >= 2^n, where C_m ==_n C_k holds."""
    assert m == k or min(m, k) >= (1 << rounds)
    return True


# ---- FO templates and their oracles ----
#
# A template is (name, text with {x}/{y}/{z}/{w} placeholders, free
# variables in canonical order, oracle). A sentence's oracle returns a
# bool; a query's returns its answer set over the canonical variables.

def _tri(g):
    return any(x in g.out[z] for x, y in g.edges for z in g.out[y])


def _sink_free(g):
    return all(g.out[x] for x in range(g.n))


def _dominating(g):
    return any(len(g.out[x] - {x}) == g.n - 1 for x in range(g.n))


def _mutual(g):
    return any((y, x) in g.edges for x, y in g.edges)


def _asym(g):
    return {(x, y) for x, y in g.edges if (y, x) not in g.edges}


def _mutual_nodes(g):
    return {(x,) for x, y in g.edges if (y, x) in g.edges}


def _two_path(g):
    return {(x, y, z) for x, y in g.edges for z in g.out[y]}


def _three_path(g):
    return {(x, y, z, w) for x, y in g.edges for z in g.out[y]
            for w in g.out[z]}


def _neq_join(g):
    return {(x, y, z) for x, y in g.edges for z in g.out[y] if x != z}


def _open_wedge(g):
    return {(x, y, z) for x, y in g.edges for z in g.out[y]
            if (x, z) not in g.edges}


SENTENCES = [
    ("triangle", "exists {x} {y} {z}. (E({x},{y}) & E({y},{z}) & E({z},{x}))",
     (), _tri),
    ("sink_free", "forall {x}. exists {y}. E({x},{y})", (), _sink_free),
    ("dominating", "exists {x}. forall {y}. ({x} = {y} | E({x},{y}))", (),
     _dominating),
    ("mutual", "exists {x} {y}. (E({x},{y}) & E({y},{x}))", (), _mutual),
]

# Full scans of similar cost, so a class median sits inside one mode.
QUERIES = [
    ("asym", "E({x},{y}) & !E({y},{x})", ("x", "y"), _asym),
    ("mutual_nodes", "exists {y}. (E({x},{y}) & E({y},{x}))", ("x",),
     _mutual_nodes),
]

# Relational-algebra shapes: a misordered 3-path (the planner must
# reorder the joins), a join with a disequality, and guarded negation.
RA_QUERIES = [
    ("three_path", "E({x},{y}) & E({z},{w}) & E({y},{z})",
     ("x", "y", "z", "w"), _three_path),
    ("neq_join", "E({x},{y}) & E({y},{z}) & !({x} = {z})", ("x", "y", "z"),
     _neq_join),
    ("open_wedge", "E({x},{y}) & E({y},{z}) & !E({x},{z})", ("x", "y", "z"),
     _open_wedge),
]

TWO_PATH = ("two_path", "E({x},{y}) & E({y},{z})", ("x", "y", "z"),
            _two_path)

VARS = ("x", "y", "z", "w")


def render(template, suffix=""):
    """Template text with variables renamed by [suffix] (a fresh suffix
    gives a text no cache has seen, with the same answers)."""
    return template[1].format(**{v: v + suffix for v in VARS})


def canonical_var(name):
    return name.split("_", 1)[0]


def answer_ok(result, canon_vars, expected):
    """Check a serve eval result ({vars, count, tuples, truncated})
    against the expected answer set over [canon_vars]."""
    vars_ = [canonical_var(v) for v in result.get("vars", [])]
    if sorted(vars_) != sorted(canon_vars):
        return False
    if result.get("count") != len(expected):
        return False
    sample = result.get("tuples", [])
    if len(sample) != min(50, len(expected)):
        return False
    if result.get("truncated") != (len(expected) > len(sample)):
        return False
    idx = [vars_.index(v) for v in canon_vars]
    return all(tuple(t[i] for i in idx) in expected for t in sample)


def parse_tuple_lines(lines):
    out = set()
    for line in lines:
        line = line.strip()
        if line.startswith("(") and line.endswith(")"):
            out.add(tuple(int(x) for x in line[1:-1].split(",")))
    return out
