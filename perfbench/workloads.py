"""Seeded workloads for the clustercount benchmark, and the answers they must give.

A workload is a list of `Op`s: one `clustercount` command line each, plus
the variety or family it asks about, so that its answer can be computed
independently outside the timed region.  Generation depends only on the
seed (and on the worker count passed through to `--jobs`); it never calls
the program, so it can run before the program is imported.

Sizes follow fixed ladders and the seed picks everything else (coefficients,
tree shapes, vertex labels, the Dynkin type where a rank allows several,
the order).  That keeps the amount of work, and so the timings, comparable
across seeds.  A run makes fresh inputs for each pass (`pass_index`), so
its medians are over several draws of the inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

FIELD_ORDERS = (2, 3, 4, 5, 7, 8, 9)
ENUM_MIN, ENUM_MAX = 10**3, 6 * 10**6
# two sizes of about 10^7 n * q^n, where op_ms.p90 of enumerate lands
PLATEAU = ((2, 19), (4, 10))
PLATEAU_COPIES = 7
RECURSE_PRIMES = (13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)
# (type, rank, primes): recursion time grows about as rank * q^2.  A4 and
# D5 at 53 and 59 are listed three times each: these 12 ops of near-equal
# cost sit where the 90th percentile of op latency falls (0.9 * 110 = 99,
# in ranks 94-105 of 111, below E6 at 37 and 41 and the interpolations),
# so that percentile is a middle value of many like ops and moves little
# with the seed or with one slow op.
RECURSE_DYNKIN = (("A", 2, RECURSE_PRIMES), ("A", 3, RECURSE_PRIMES),
                  ("D", 4, RECURSE_PRIMES),
                  ("A", 4, RECURSE_PRIMES + (53, 59) * 2),
                  ("D", 5, RECURSE_PRIMES + (53, 59) * 2),
                  ("E", 6, RECURSE_PRIMES[:8]))
# (q, tree sizes): the recursion's time on a random tree has a heavy tail
# that grows steeply with q and n (one 15-vertex tree at q = 7 took 3.4 s,
# the median 0.27 s), so the trees are many and small.
RECURSE_TREES = ((3, tuple(range(15, 19)) * 6), (5, (12,) * 4), (7, (10,) * 4))
INTERPOLATE = (("E", 8, "generic"), ("D", 6, "generic"), ("E", 7, "special"))
# a prime past every interpolation sample, where the fitted polynomial must
# equal the closed form
CHECK_PRIME = 101
# Forests at most this big get a brute-force reference; larger ones are
# checked against the recursion on a relabeled copy.
BRUTE_REFERENCE_MAX = 30_000
WORKLOADS = ("enumerate", "recurse", "paper_check")
PAPER_BATTERIES = ("type-A formula battery", "type-D formula battery",
                   "type-E formula battery", "reduction soundness battery",
                   "Y/Z identity battery", "Z fibration battery",
                   "smoothness classification battery",
                   "cohomology consistency battery", "interpolation battery",
                   "prime-power sanity battery")


@dataclass
class Variety:
    """A forest with one coefficient per vertex over F_q (encodings)."""

    q: int
    vertices: list[int]
    edges: list[tuple[int, int]]
    alpha: dict[int, int]
    dynkin: tuple[str, int] | None = None

    @property
    def n(self) -> int:
        return len(self.vertices)


@dataclass
class Op:
    argv: list[str]
    variety: Variety | None = None
    family: tuple[str, int, str] | None = None
    expected: object = field(default=None, repr=False)
    files: dict[Path, str] = field(default_factory=dict, repr=False)


def _dynkin_edges(t: str, rank: int) -> list[tuple[int, int]]:
    # The labeling documented in clustercount.forests; references are built
    # from these edges, apart from the program's own construction.
    if t == "A":
        return [(i, i + 1) for i in range(1, rank)]
    if t == "D":
        return [(1, 3), (2, 3)] + [(i, i + 1) for i in range(3, rank)]
    edges = [(1, 2), (1, 3), (1, 4), (3, 5), (4, 6)]
    return edges + [(i, i + 1) for i in range(6, rank)]


def _dynkin_op(rng: random.Random, q: int, t: str, rank: int,
               extra: list[str]) -> Op:
    alpha = {v: rng.randint(1, q - 1) for v in range(1, rank + 1)}
    var = Variety(q, list(range(1, rank + 1)), _dynkin_edges(t, rank), alpha,
                  (t, rank))
    argv = ["count", "--type", t, "--rank", str(rank), "--q", str(q),
            "--alpha", ",".join(str(alpha[v]) for v in var.vertices)] + extra
    return Op(argv, var)


def _random_forest(rng: random.Random, q: int, n: int,
                   components: int) -> Variety:
    """`components` random recursive trees side by side, under random labels."""
    labels = rng.sample(range(1, 4 * n + 1), n)
    cuts = sorted(rng.sample(range(1, n), components - 1)) if components > 1 else []
    edges = []
    start = 0
    for stop in cuts + [n]:
        for i in range(start + 1, stop):
            edges.append((labels[rng.randint(start, i - 1)], labels[i]))
        start = stop
    alpha = {v: rng.randint(1, q - 1) for v in labels}
    return Variety(q, sorted(labels), edges, alpha)


def _forest_op(var: Variety, indir: Path, tag: str, extra: list[str]) -> Op:
    tree = indir / f"{tag}.tree"
    coeff = indir / f"{tag}.coeff"
    linked = {v for e in var.edges for v in e}
    lines = [f"{u} {v}" for u, v in var.edges]
    lines += [str(v) for v in var.vertices if v not in linked]
    files = {tree: "\n".join(lines) + "\n",
             coeff: "".join(f"{v} {var.alpha[v]}\n" for v in var.vertices)}
    argv = ["count", "--tree-file", str(tree), "--coeff-file", str(coeff),
            "--q", str(var.q)] + extra
    return Op(argv, var, files=files)


def enumerate_ladder() -> list[tuple[int, int]]:
    """Every (q, n) with ENUM_MIN <= q^n <= ENUM_MAX, sorted by size.

    Sizes below 10^5 are listed five times, those below 10^6 twice and
    those above once, except PLATEAU: it is listed PLATEAU_COPIES times
    each instead.  An op's latency grows about as n * q^n, and the ten
    sizes above the plateau cost more than it.  With the plateau as the
    next 14 of 164 ops, the 90th percentile of latency falls in its middle,
    where many ops of near-equal cost sit, rather than on a step between
    two sizes, so it moves little with the seed or with one slow op."""
    ladder = []
    for q in FIELD_ORDERS:
        n = 1
        while q**n <= ENUM_MAX:
            size = q**n
            if (q, n) in PLATEAU:
                ladder += [(q, n)] * PLATEAU_COPIES
            elif size >= ENUM_MIN:
                ladder += [(q, n)] * (5 if size < 10**5 else 2 if size < 10**6 else 1)
            n += 1
    return sorted(ladder, key=lambda qn: qn[0]**qn[1])


def _dynkin_types(rank: int) -> list[str]:
    return ["A"] + (["D"] if rank >= 4 else []) + (["E"] if 6 <= rank <= 8 else [])


def generate(workload: str, seed: int, jobs: int, indir: Path,
             pass_index: int = 0) -> list[Op]:
    """The op list of one pass of `workload`.  Its input files are named
    under `indir` and held in `op.files` until `write_inputs` writes them."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    ops: list[Op] = []
    if workload == "enumerate":
        extra = ["--method", "all", "--jobs", str(jobs)]
        for i, (q, n) in enumerate(enumerate_ladder()):
            if i % 2 == 0:
                t = rng.choice(_dynkin_types(n))
                ops.append(_dynkin_op(rng, q, t, n, extra))
            else:
                comps = rng.randint(1, min(3, n))
                var = _random_forest(rng, q, n, comps)
                ops.append(_forest_op(var, indir, f"e{i}", extra))
    elif workload == "recurse":
        extra = ["--method", "recursion"]
        for t, rank, primes in RECURSE_DYNKIN:
            for p in primes:
                ops.append(_dynkin_op(rng, p, t, rank, extra))
        i = 0
        for q, sizes in RECURSE_TREES:
            for n in sizes:
                var = _random_forest(rng, q, n, 1)
                ops.append(_forest_op(var, indir, f"r{i}", extra))
                i += 1
        for t, rank, branch in INTERPOLATE:
            ops.append(Op(["interpolate", "--type", t, "--rank", str(rank),
                           "--branch", branch], family=(t, rank, branch)))
    elif workload == "paper_check":
        ops.append(Op(["check", "--suite", "paper"]))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from "
                         f"{', '.join(WORKLOADS)}")
    rng.shuffle(ops)
    return ops


def write_inputs(ops: list[Op]) -> None:
    for op in ops:
        for path, text in op.files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# references, computed with the library outside the timed region
# ---------------------------------------------------------------------------

def instance_of(var: Variety, relabel: random.Random | None = None):
    """The library instance for `var`, optionally under a random relabeling."""
    from clustercount import CoeffMap, Forest, VarietyInstance, field_from_order

    mapping = {v: v for v in var.vertices}
    if relabel is not None:
        mapping = dict(zip(var.vertices,
                           relabel.sample(range(1, 5 * var.n + 1), var.n)))
    fld = field_from_order(var.q)
    forest = Forest.make([mapping[v] for v in var.vertices],
                         [(mapping[u], mapping[v]) for u, v in var.edges])
    coeffs = CoeffMap.make(fld, {mapping[v]: a for v, a in var.alpha.items()})
    return VarietyInstance(forest, coeffs, fld)


def closed_form(var: Variety) -> int:
    """Closed-form count of a Dynkin variety: normalize, then the formula."""
    from clustercount import normalize
    from clustercount.forests import dynkin_tiling
    from clustercount.formulas import formula_count

    t, rank = var.dynkin
    inst = instance_of(var)
    norm = normalize(inst.forest, dynkin_tiling(t, rank), inst.coeffs)
    return formula_count(t, rank, norm.coeffs, inst.field).count


def family_count(family: tuple[str, int, str], p: int) -> int | None:
    """Closed-form count of an interpolation family's branch at prime p."""
    from clustercount import field_make
    from clustercount.formulas import formula_count_params
    from clustercount.qpoly import FamilyPolicy

    t, rank, branch = family
    fld = field_make(p)
    params = FamilyPolicy(t, rank, branch).params_for(fld)
    if params is None:
        return None
    return formula_count_params(t, rank, fld, params).count


def compute_references(ops: list[Op], rng: random.Random) -> None:
    """Fill `op.expected` for every op, independently of how the op counts."""
    from clustercount import brute_count
    from clustercount.recursion import recursive_count

    memos: dict[int, dict] = {}
    for op in ops:
        var = op.variety
        if var is not None and var.dynkin is not None:
            op.expected = closed_form(var)
        elif var is not None and var.q**var.n <= BRUTE_REFERENCE_MAX:
            op.expected = brute_count(instance_of(var), jobs=1).count
        elif var is not None:
            memo = memos.setdefault(var.q, {})
            op.expected = recursive_count(instance_of(var, rng), memo).count
        elif op.family is not None:
            op.expected = family_count(op.family, CHECK_PRIME)


def _poly_at(coefficients: list[str], q: int) -> Fraction:
    total = Fraction(0)
    for c in reversed(coefficients):
        total = total * q + Fraction(c)
    return total


def check_output(op: Op, code: int, out: dict | list | None) -> str | None:
    """None when the op's output is right, else what is wrong with it."""
    if code != 0:
        return f"exit code {code}"
    if out is None:
        return "no JSON on stdout"
    if op.variety is not None:
        if int(out["count"]) != op.expected:
            return f"count {out['count']} != reference {op.expected}"
        if out.get("agree") is False:
            return "methods disagree"
        return None
    if op.family is not None:
        if not out.get("ok"):
            return "held-out check failed"
        for q, count in out["samples"] + out["held_out"]:
            if int(count) != family_count(op.family, q):
                return f"count at q={q} differs from the closed form"
        if _poly_at(out["coefficients"], CHECK_PRIME) != op.expected:
            return f"polynomial at q={CHECK_PRIME} differs from the closed form"
        return None
    names = [r["name"] for r in out]
    if sorted(names) != sorted(PAPER_BATTERIES):
        return f"unexpected batteries {names}"
    bad = [r["name"] for r in out if not r["ok"]]
    return f"failed batteries {bad}" if bad else None


def parse_stdout(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None
