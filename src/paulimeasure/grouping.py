"""Term-compatibility graphs and clique covers.

A clique cover of the compatibility graph is computed as a proper coloring
of its complement; color classes are cliques of the original graph.

Vertex sets are Python-int bitsets indexed by term: bit j of a row stands
for term j. The graph is built from per-qubit term bitsets (``xcol[q]`` and
``zcol[q]``, the terms with an X or a Z bit on qubit q): the terms that
break the relation with term i are an XOR (fc) or an OR (qwc) of one such
bitset per qubit of term i, so the build is O(m*w) big-int operations for
m terms of weight w, with no pairwise loop and no m*m matrix. The complement
adjacency is derived on the fly and never materialized. DSATUR keeps the
uncolored vertices in saturation buckets and smallest-last keeps the
remaining ones in degree buckets, so neither rescans all vertices to pick
the next one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .pauli import Hamiltonian, anticommuting, qubit_columns

RELATIONS = ("fc", "qwc")
METHODS = ("gc", "lf", "sl", "dsatur", "rlf", "exact")

DEFAULT_EXACT_CAP = 64


@dataclass(frozen=True)
class CompatGraph:
    """Symmetric compatibility relation over Hamiltonian terms, no self loops."""

    n_vertices: int
    relation: str
    adj: tuple[int, ...]

    @property
    def full_mask(self) -> int:
        return (1 << self.n_vertices) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def comp_row(self, v: int) -> int:
        """Adjacency row of the complement graph."""
        return self.full_mask & ~self.adj[v] & ~(1 << v)

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.adj[i] >> j) & 1)


@dataclass(frozen=True)
class CliqueCover:
    """Disjoint cliques covering every vertex of the source graph."""

    relation: str
    method: str
    groups: tuple[tuple[int, ...], ...]

    @property
    def group_count(self) -> int:
        return len(self.groups)


@dataclass(frozen=True)
class CoverStats:
    group_count: int
    max_size: int
    size_stddev: float


@dataclass(frozen=True)
class CoverReport:
    valid: bool
    violations: tuple[str, ...]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _conflicts(h: Hamiltonian, relation: str) -> list[int]:
    """Per term, the bitset of the terms it breaks the relation with.

    fc rows are ``pauli.anticommuting``. For qwc, on qubit q a term with an
    X there differs in axis from the terms in zcol[q] (Z or Y), one with a Z
    from those in xcol[q], and one with a Y from their XOR; any such
    difference breaks qubit-wise commutation, so the row ORs them.
    """
    prods = h.products()
    xcol, zcol = qubit_columns(h.n_qubits, prods)
    if relation == "fc":
        return [anticommuting(xcol, zcol, p) for p in prods]
    rows = []
    for p in prods:
        row = 0
        for q in _bits(p.x & ~p.z):
            row |= zcol[q]
        for q in _bits(p.z & ~p.x):
            row |= xcol[q]
        for q in _bits(p.x & p.z):
            row |= xcol[q] ^ zcol[q]
        rows.append(row)
    return rows


def build_graph(h: Hamiltonian, relation: str) -> CompatGraph:
    """Connect term pairs satisfying the commutation relation ("fc" or "qwc")."""
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    n = len(h.terms)
    if n == 0:
        raise ValueError("no terms")
    full = (1 << n) - 1
    return CompatGraph(n, relation, tuple(full & ~row & ~(1 << i)
                                          for i, row in enumerate(_conflicts(h, relation))))


def _groups_from_colors(colors: list[int]) -> tuple[tuple[int, ...], ...]:
    n_colors = max(colors) + 1 if colors else 0
    groups: list[list[int]] = [[] for _ in range(n_colors)]
    for v, c in enumerate(colors):
        groups[c].append(v)
    return tuple(tuple(g) for g in groups)


def _take_color(seen: list[int], v: int, comp_row: int) -> tuple[int, int]:
    """Color v with the lowest color no complement neighbor of v has.

    ``seen[c]`` is the union of the complement rows of the vertices colored
    c, i.e. the vertices that may no longer take c; it is updated here.
    Returns the color and the complement neighbors that had no neighbor of
    that color before.
    """
    c = 0
    while c < len(seen) and (seen[c] >> v) & 1:
        c += 1
    if c == len(seen):
        seen.append(0)
    fresh = comp_row & ~seen[c]
    seen[c] |= comp_row
    return c, fresh


def _smallest_last_order(graph: CompatGraph) -> list[int]:
    """Repeatedly remove the vertex of least remaining complement degree.

    ``buckets[d]`` holds the remaining vertices of remaining degree d;
    removing a vertex moves each remaining neighbor down one bucket.
    """
    n = graph.n_vertices
    rows = [graph.comp_row(v) for v in range(n)]
    degree = [row.bit_count() for row in rows]
    buckets = [0] * n
    for v, d in enumerate(degree):
        buckets[d] |= 1 << v
    remaining = graph.full_mask
    lowest = 0
    removal: list[int] = []
    for _ in range(n):
        while not buckets[lowest]:
            lowest += 1
        bit = buckets[lowest] & -buckets[lowest]
        v = bit.bit_length() - 1
        buckets[lowest] ^= bit
        remaining ^= bit
        removal.append(v)
        for u in _bits(rows[v] & remaining):
            d = degree[u]
            degree[u] = d - 1
            buckets[d] ^= 1 << u
            buckets[d - 1] |= 1 << u
        lowest = max(lowest - 1, 0)
    return removal[::-1]


def _cover_dsatur(graph: CompatGraph) -> list[int]:
    """Color the vertex of highest saturation next, lowest index on ties.

    ``buckets[s]`` holds the uncolored vertices of saturation s (distinct
    colors among their complement neighbors); a vertex whose saturation
    rises moves up one bucket.
    """
    n = graph.n_vertices
    colors = [-1] * n
    seen: list[int] = []
    buckets = [0] * (n + 1)
    buckets[0] = uncolored = graph.full_mask
    top = 0
    for _ in range(n):
        while not buckets[top]:
            top -= 1
        bit = buckets[top] & -buckets[top]
        v = bit.bit_length() - 1
        buckets[top] ^= bit
        uncolored ^= bit
        colors[v], rising = _take_color(seen, v, graph.comp_row(v))
        rising &= uncolored
        # Top bucket first, so that a vertex moves up at most once.
        s = top
        while rising:
            moved = buckets[s] & rising
            if moved:
                buckets[s] ^= moved
                buckets[s + 1] |= moved
                rising ^= moved
            s -= 1
        if buckets[top + 1]:
            top += 1
    return colors


def cover_greedy(graph: CompatGraph, ordering: str = "gc") -> CliqueCover:
    """Sequential coloring of the complement graph.

    Orderings: gc follows input order, lf sorts by complement degree
    descending, sl uses a smallest-last elimination order on the complement,
    dsatur picks the uncolored vertex of maximum saturation dynamically.
    Every tie breaks toward the lowest vertex index.
    """
    n = graph.n_vertices
    if ordering == "dsatur":
        colors = _cover_dsatur(graph)
    else:
        if ordering == "gc":
            order = list(range(n))
        elif ordering == "lf":
            order = sorted(range(n), key=lambda v: (-graph.comp_row(v).bit_count(), v))
        elif ordering == "sl":
            order = _smallest_last_order(graph)
        else:
            raise ValueError(f"unknown ordering {ordering!r}")
        colors = [-1] * n
        seen: list[int] = []
        for v in order:
            colors[v], _ = _take_color(seen, v, graph.comp_row(v))
    return CliqueCover(graph.relation, ordering, _groups_from_colors(colors))


def cover_rlf(graph: CompatGraph) -> CliqueCover:
    """Recursive largest first on the complement graph.

    Each round builds one maximal independent set of the complement (a clique
    of the source graph): seed with the maximum-degree uncovered vertex, then
    repeatedly add the candidate with the most complement-neighbors among the
    excluded vertices; ties break toward the lowest index.
    """
    uncovered = graph.full_mask
    groups: list[tuple[int, ...]] = []
    while uncovered:
        seed = None
        seed_deg = -1
        for v in _bits(uncovered):
            deg = (graph.comp_row(v) & uncovered).bit_count()
            if deg > seed_deg:
                seed, seed_deg = v, deg
        members = [seed]
        excluded = graph.comp_row(seed) & uncovered
        candidates = uncovered & ~excluded & ~(1 << seed)
        while candidates:
            pick = None
            pick_score = -1
            for v in _bits(candidates):
                score = (graph.comp_row(v) & excluded).bit_count()
                if score > pick_score:
                    pick, pick_score = v, score
            members.append(pick)
            nb = graph.comp_row(pick)
            excluded |= nb & candidates
            candidates &= ~(nb | (1 << pick))
        members.sort()
        groups.append(tuple(members))
        for v in members:
            uncovered &= ~(1 << v)
    return CliqueCover(graph.relation, "rlf", tuple(groups))


def _complement_clique_size(graph: CompatGraph) -> int:
    """Greedy clique of the complement; lower bound for its chromatic number."""
    order = sorted(range(graph.n_vertices),
                   key=lambda v: (-graph.comp_row(v).bit_count(), v))
    clique_mask = 0
    size = 0
    for v in order:
        if clique_mask & ~graph.comp_row(v):
            continue
        clique_mask |= 1 << v
        size += 1
    return size


def _k_coloring(graph: CompatGraph, k: int) -> list[int] | None:
    """Exact k-coloring of the complement via branch and bound, or None."""
    n = graph.n_vertices
    colors = [-1] * n
    forbid = [[0] * k for _ in range(n)]
    sat = [0] * n
    comp_deg = [graph.comp_row(v).bit_count() for v in range(n)]

    def assign(v: int, c: int, delta: int) -> None:
        colors[v] = c if delta > 0 else -1
        for u in _bits(graph.comp_row(v)):
            forbid[u][c] += delta
            if delta > 0 and forbid[u][c] == 1:
                sat[u] += 1
            elif delta < 0 and forbid[u][c] == 0:
                sat[u] -= 1

    def backtrack(n_colored: int, max_used: int) -> bool:
        if n_colored == n:
            return True
        v = min((u for u in range(n) if colors[u] < 0),
                key=lambda u: (-sat[u], -comp_deg[u], u))
        for c in range(min(max_used + 1, k)):
            if forbid[v][c]:
                continue
            assign(v, c, +1)
            if backtrack(n_colored + 1, max(max_used, c + 1)):
                return True
            assign(v, c, -1)
        return False

    return colors if backtrack(0, 0) else None


def cover_exact(graph: CompatGraph, limit: int = DEFAULT_EXACT_CAP) -> CliqueCover:
    """Provably minimum clique cover via exact complement coloring."""
    if graph.n_vertices > limit:
        raise ValueError(
            f"exact cover limited to {limit} vertices, graph has {graph.n_vertices}")
    incumbent = _cover_dsatur(graph)
    upper = max(incumbent) + 1
    lower = max(1, _complement_clique_size(graph))
    colors = incumbent
    for k in range(lower, upper):
        sol = _k_coloring(graph, k)
        if sol is not None:
            colors = sol
            break
    return CliqueCover(graph.relation, "exact", _groups_from_colors(colors))


def compute_cover(graph: CompatGraph, method: str,
                  exact_cap: int = DEFAULT_EXACT_CAP) -> CliqueCover:
    if method in ("gc", "lf", "sl", "dsatur"):
        return cover_greedy(graph, method)
    if method == "rlf":
        return cover_rlf(graph)
    if method == "exact":
        return cover_exact(graph, exact_cap)
    raise ValueError(f"unknown method {method!r}")


def validate_cover(h: Hamiltonian, cover: CliqueCover, relation: str) -> CoverReport:
    """Check disjointness, coverage and the pairwise relation inside groups."""
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    n = len(h.terms)
    violations: list[str] = []
    seen: set[int] = set()
    conflicts = _conflicts(h, relation)
    for gi, group in enumerate(cover.groups):
        for v in group:
            if not 0 <= v < n:
                violations.append(f"group {gi}: index {v} out of range")
                continue
            if v in seen:
                violations.append(f"group {gi}: index {v} appears twice in the cover")
            seen.add(v)
        inside = [v for v in group if 0 <= v < n]
        members = 0
        for v in inside:
            members |= 1 << v
        for a, i in enumerate(inside):
            if conflicts[i] & members:
                violations.extend(f"group {gi}: terms {i} and {j} violate {relation}"
                                  for j in inside[a + 1:] if (conflicts[i] >> j) & 1)
    missing = [v for v in range(n) if v not in seen]
    if missing:
        violations.append(f"uncovered terms: {missing}")
    return CoverReport(not violations, tuple(violations))


def cover_stats(cover: CliqueCover) -> CoverStats:
    """Group count, max group size and population stddev of group sizes."""
    sizes = [len(g) for g in cover.groups]
    if not sizes:
        return CoverStats(0, 0, 0.0)
    mean = sum(sizes) / len(sizes)
    var = sum((s - mean) ** 2 for s in sizes) / len(sizes)
    return CoverStats(len(sizes), max(sizes), math.sqrt(var))


def cover_to_dict(cover: CliqueCover) -> dict:
    st = cover_stats(cover)
    return {
        "relation": cover.relation,
        "method": cover.method,
        "groups": [list(g) for g in cover.groups],
        "stats": {"count": st.group_count, "max": st.max_size, "std": st.size_stddev},
    }
