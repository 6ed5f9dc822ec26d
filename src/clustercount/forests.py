"""Labeled forests, Dynkin diagram constructors, domino tilings and flips.

Vertex labels are any integers, zero and negative ones included; the
Dynkin constructors label 1..n.
Frozen labeling conventions:

  A_n   path 1 - 2 - ... - n
  D_n   leaves 1 and 2 both adjacent to 3, then path 3 - 4 - ... - n
  E_n   central vertex 1 with arms of lengths (1, 2, n-4); arm vertices are
        numbered breadth-first from the center, short arm first, so
        E_6: edges 1-2, 1-3, 1-4, 3-5, 4-6
        E_7: same plus 6-7        (7 is the last vertex of the long arm)
        E_8: same plus 6-7, 7-8

The distinguished coefficient slot of each type (where a residual parameter
survives normalization) is exposed by `normal_form_slots`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import BadRank, NotAdjacent


@dataclass(frozen=True)
class Forest:
    """An acyclic graph on explicit integer vertices."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @staticmethod
    def make(vertices, edges) -> "Forest":
        """The forest on `vertices` with `edges`; an edge given twice is
        kept once.  ValueError on a loop, an undeclared vertex or a cycle."""
        vs = tuple(sorted(set(int(v) for v in vertices)))
        vset = set(vs)
        es = {}
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"loop edge at vertex {u}")
            if u not in vset or v not in vset:
                raise ValueError(f"edge {u}-{v} uses an undeclared vertex")
            es[min(u, v), max(u, v)] = None
        es = list(es)
        closing = _closing_edge(es)
        if closing is not None:
            u, v = es[closing]
            raise ValueError(f"edge {u}-{v} closes a cycle")
        return Forest(vs, tuple(sorted(es)))

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        adj = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        seen, comps = set(), []
        for v in self.vertices:
            if v not in seen:
                top_down, _ = hang(self.adjacency, (v,))
                seen.update(top_down)
                comps.append(tuple(sorted(top_down)))
        return tuple(comps)

    @cached_property
    def _canonical_plan(self):
        """`centred_plan` of each component."""
        adj = self.adjacency
        return tuple(centred_plan(adj, hang(adj, comp[:1])[0][-1])
                     for comp in self.components)


def hang(adjacency, roots) -> tuple[list[int], dict[int, int]]:
    """The tree of `adjacency` that holds `roots`, hung from them: its
    vertices with every parent before its children, and each vertex's
    parent.  The roots are one vertex, its own parent, or two adjacent
    vertices, each the other's parent, so neither is the other's child."""
    parent = {roots[0]: roots[-1], roots[-1]: roots[0]}
    top_down = list(roots)
    for v in top_down:
        for u in adjacency[v]:
            if u not in parent:
                parent[u] = v
                top_down.append(u)
    return top_down, parent


def leafy_pairs(adjacency, root) -> tuple[list[tuple[int, int]], int]:
    """The leafy rule on the tree of `adjacency` hung from `root`, its
    largest vertex: each vertex that its parent did not take takes its
    largest child c.  The dominoes (v, c), parent first, listed top down,
    and the walk's last vertex, an end of a longest path."""
    top_down, parent = hang(adjacency, (root,))
    pairs, taken = [], set()
    for v in top_down:
        children = [u for u in adjacency[v] if u != parent[v]]
        if v not in taken and children:
            pairs.append((v, children[-1]))
            taken.add(children[-1])
    return pairs, top_down[-1]


def hung_flips(adjacency, pairs
               ) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """The flips that set both ends of each domino of `pairs` to 1: each
    child over its parent, bottom up, then each parent over its child, top
    down.  `pairs` are (parent, child) in a tree of `adjacency` hung from
    any root, listed top down.  A flip (s, t, others) sets s to 1 and
    divides the coefficients on `others`, t's other neighbours.

    No flip divides a vertex that an earlier one set to 1, whatever the
    tiling and the root.  A child's flip divides its grandparent and its
    siblings; each of those that is covered is a shallower child, flipped
    later in the bottom-up pass, or a parent, flipped in the second pass.
    A parent's flip divides its child's children, which can be covered only
    as deeper parents, flipped later in the top-down pass.  So every
    covered vertex ends at 1."""
    return tuple(
        [(c, v, tuple([u for u in adjacency[v] if u != c]))
         for v, c in reversed(pairs)]
        + [(v, c, tuple([u for u in adjacency[c] if u != v]))
           for v, c in pairs])


def centred_plan(adjacency, end):
    """The centre rooting of the tree of `adjacency` that holds `end`, an
    end of a longest path: its one or two centres, the middle of the path
    from `end` to the last vertex reached from it, and every vertex with
    its children, listed children first, in the tree hung from them."""
    top_down, parent = hang(adjacency, (end,))
    path = [top_down[-1]]
    while path[-1] != end:
        path.append(parent[path[-1]])
    roots = tuple(sorted(path[(len(path) - 1) // 2:len(path) // 2 + 1]))
    top_down, parent = hang(adjacency, roots)
    return roots, tuple([
        (v, tuple([u for u in adjacency[v] if u != parent[v]]))
        for v in reversed(top_down)])


def _closing_edge(edges) -> int | None:
    """Index of the first of `edges`, in their order, that closes a cycle
    with the ones before it (a repeated edge closes one); None when there
    is none."""
    parent = {}

    def find(a):
        parent.setdefault(a, a)
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, (u, v) in enumerate(edges):
        ru, rv = find(u), find(v)
        if ru == rv:
            return i
        parent[ru] = rv
    return None


@dataclass(frozen=True)
class DominoTiling:
    """A partial matching: a set of edges meeting each vertex at most once."""

    dominoes: tuple[tuple[int, int], ...]

    @staticmethod
    def make(dominoes) -> "DominoTiling":
        ds = tuple(sorted((min(u, v), max(u, v)) for u, v in dominoes))
        seen = set()
        for u, v in ds:
            if u in seen or v in seen:
                raise ValueError(f"vertex reused by domino {u}-{v}")
            seen.update((u, v))
        return DominoTiling(ds)

    @cached_property
    def partner(self) -> dict[int, int]:
        """Each covered vertex's domino partner."""
        return {**dict(self.dominoes), **{v: u for u, v in self.dominoes}}

    @property
    def covered(self):
        """The covered vertices, as a set-like view of `partner`."""
        return self.partner.keys()


# ---------------------------------------------------------------------------
# Dynkin constructors
# ---------------------------------------------------------------------------

_RANKS = {
    "A": (lambda rank: rank >= 0, "rank >= 0"),
    "D": (lambda rank: rank >= 3, "rank >= 3"),
    "E": (lambda rank: rank in (6, 7, 8), "rank in {6,7,8}"),
}


def check_rank(dynkin_type: str, rank: int) -> str:
    """The upper-cased type, once `rank` is valid for it; BadRank otherwise."""
    t = dynkin_type.upper()
    if t not in _RANKS:
        raise BadRank(f"unknown Dynkin type {dynkin_type!r}")
    valid, need = _RANKS[t]
    if not valid(rank):
        raise BadRank(f"{t}_n needs {need}, got {rank}")
    return t


def dynkin(dynkin_type: str, rank: int) -> Forest:
    """The tree underlying the Dynkin diagram A_n / D_n / E_n."""
    t = check_rank(dynkin_type, rank)
    if t == "A":
        edges = [(i, i + 1) for i in range(1, rank)]
    elif t == "D":
        edges = [(1, 3), (2, 3)] + [(i, i + 1) for i in range(3, rank)]
    else:
        edges = [(1, 2), (1, 3), (1, 4), (3, 5), (4, 6)]
        edges += [(i, i + 1) for i in range(6, rank)]
    return Forest.make(range(1, rank + 1), edges)


def normal_form_slots(dynkin_type: str, rank: int) -> tuple[int, ...]:
    """Vertices that can carry a residual coefficient after normalization.

    Empty for types whose varieties all normalize to the all-ones family.
    """
    t = check_rank(dynkin_type, rank)
    if t == "A":
        return (1,) if rank % 2 == 1 else ()
    if t == "D":
        return (1, 2) if rank % 2 == 0 else (1,)
    return (7,) if rank == 7 else ()


def dynkin_tiling(dynkin_type: str, rank: int) -> DominoTiling:
    """The canonical partial tiling avoiding exactly `normal_form_slots`: in
    vertex order, each vertex that is neither covered nor a slot takes its
    smallest uncovered larger neighbour."""
    forest = dynkin(dynkin_type, rank)
    taken = set(normal_form_slots(dynkin_type, rank))
    dominoes = []
    for v in forest.vertices:
        if v not in taken:
            u = next(u for u in forest.adjacency[v] if u > v and u not in taken)
            dominoes.append((v, u))
            taken.update((v, u))
    return DominoTiling.make(dominoes)


# ---------------------------------------------------------------------------
# tilings and flip plans for arbitrary forests
# ---------------------------------------------------------------------------

def leafy_tiling(forest: Forest) -> DominoTiling:
    """A deterministic partial tiling whose uncovered vertices are all leaves.

    Its dominoes are `leafy_pairs` on each component: each vertex that its
    parent did not take takes its largest child, so any vertex left
    uncovered has no children at all, i.e. is a leaf (or an isolated
    vertex).
    """
    return DominoTiling.make(
        pair for comp in forest.components
        for pair in leafy_pairs(forest.adjacency, comp[-1])[0])


def flip_plan(forest: Forest, tiling: DominoTiling
              ) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """The flips that normalize `tiling`'s covered vertices: `hung_flips`
    of its dominoes, parent first, in each tree of `forest` hung from its
    largest vertex, trees in the order of their smallest vertices.  On the
    leafy tiling these are the recursion's flips.  NotAdjacent when a
    domino is not an edge of `forest`."""
    adj = forest.adjacency
    for u, v in tiling.dominoes:
        if v not in adj.get(u, ()):
            raise NotAdjacent(f"{u}-{v} is not an edge")
    partner, plan = tiling.partner, ()
    for comp in forest.components:
        top_down, parent = hang(adj, comp[-1:])
        plan += hung_flips(adj, [(v, partner[v]) for v in top_down
                                 if v in partner and parent[partner[v]] == v])
    return plan


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------

def canonical_form(forest: Forest, labels: dict[int, object] | None = None) -> str:
    """Isomorphism-invariant encoding of a labeled forest.

    Two forests get the same string exactly when some graph isomorphism
    between them matches the per-vertex label data (labels are written with
    `str` and must not contain any of "(|);").  Every isomorphism maps a
    tree's centres to centres, so each component is encoded rooted at its
    centre, or as the sorted pair of its two halves rooted at either end of
    its central edge; component strings are sorted.  The rooting is a plan
    cached on the forest (`centred_plan` per component; the recursion's
    tree records carry the same plan), so a call is one bottom-up pass that
    sorts each vertex's child strings, instead of one pass per root (O(n^2)
    in all).
    """
    labels = labels or {}
    comps = []
    for roots, bottom_up in forest._canonical_plan:
        enc = {}
        for v, children in bottom_up:
            subs = "".join(sorted([enc[u] for u in children]))
            enc[v] = f"({labels.get(v, '')}|{subs})"
        comps.append("".join(sorted(enc[r] for r in roots)))
    return ";".join(sorted(comps))


# ---------------------------------------------------------------------------
# file format: one edge "u v" per line, isolated vertices as "v"
# ---------------------------------------------------------------------------

def parse_tree_text(text: str) -> Forest:
    """The forest of a tree file.  A line that is not 'u v' or 'v', a loop,
    an edge given twice and the edge that closes a cycle are ValueErrors
    that name their line."""
    vertices, edge_line = set(), {}  # edge -> its line, in file order
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            ends = tuple(int(part) for part in line.split())
        except ValueError:  # reported below with the line
            ends = ()
        if len(ends) == 1:
            vertices.add(ends[0])
            continue
        if len(ends) != 2:
            raise ValueError(f"line {lineno}: expected 'u v' or 'v', got {raw!r}")
        u, v = ends
        if u == v:
            raise ValueError(f"line {lineno}: loop edge at vertex {u}")
        edge = min(u, v), max(u, v)
        if edge in edge_line:
            raise ValueError(f"line {lineno}: edge {u}-{v} given twice, "
                             f"first on line {edge_line[edge]}")
        vertices.update(ends)
        edge_line[edge] = lineno
    edges = list(edge_line)
    closing = _closing_edge(edges)
    if closing is not None:
        u, v = edges[closing]
        raise ValueError(f"line {edge_line[u, v]}: edge {u}-{v} closes a cycle")
    return Forest.make(vertices, edges)


def read_tree_file(path) -> Forest:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tree_text(fh.read())
