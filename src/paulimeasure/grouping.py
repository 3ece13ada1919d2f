"""Term-compatibility graphs and clique covers.

A clique cover of the compatibility graph is computed as a proper coloring
of its complement; color classes are cliques of the original graph.

Vertex sets are Python-int bitsets indexed by term: bit j of a row stands
for term j. The graph is built from per-qubit term bitsets (``xcol[q]`` and
``zcol[q]``, the terms with an X or a Z bit on qubit q): the terms that
break the relation with term i are an XOR (fc) or an OR (qwc) of one such
bitset per qubit of term i, so the build is O(m*w) big-int operations for
m terms of weight w, with no pairwise loop and no m*m matrix. The graph
keeps those conflict rows, which are the adjacency rows of the complement
that every cover colors.

DSATUR and RLF keep per-vertex counts in bit-sliced counters: a list of
m-bit ints, where bit v of slice j is bit j of vertex v's count. Adding 1
to the count of every vertex of a row ripples a carry through the slices
(RLF adds a batch of rows by a carry-save add), and the vertex of a set
with the highest count is found by walking the slices from the top, so
neither touches the vertices one by one. DSATUR counts saturations; RLF's
degree counter gives each group's seed and its score counter the picks,
unless the seed leaves so few candidates that scanning them is cheaper.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from typing import NamedTuple

from .pauli import Hamiltonian, anticommuting

RELATIONS = ("fc", "qwc")
METHODS = ("dsatur", "rlf", "exact")

DEFAULT_EXACT_CAP = 64
# Colors per block of DSATUR's first fit.
_BLOCK = 64


class CompatGraph(NamedTuple):
    """Compatibility relation over Hamiltonian terms, stored as its complement:
    bit j of ``conflicts[i]`` is set when terms i and j break the relation.
    The rows are symmetric and carry no self bit."""

    n_vertices: int
    relation: str
    conflicts: tuple[int, ...]


class CliqueCover(NamedTuple):
    """Disjoint cliques covering every vertex of the source graph."""

    relation: str
    method: str
    groups: tuple[tuple[int, ...], ...]

    @property
    def group_count(self) -> int:
        return len(self.groups)


class CoverStats(NamedTuple):
    group_count: int
    max_size: int
    size_stddev: float


class CoverReport(NamedTuple):
    violations: tuple[str, ...]
    groups: tuple[Hamiltonian, ...]

    @property
    def valid(self) -> bool:
        return not self.violations


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_relation(relation: str) -> None:
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")


def _conflicts(h: Hamiltonian, relation: str) -> list[int]:
    """Per term of h, the bitset of the terms (by position) it breaks the
    relation with, read off h's cached term bitsets ``h.columns``.

    fc rows are ``pauli.anticommuting``. For qwc, on qubit q a term with an
    X there differs in axis from the terms in zcol[q] (Z or Y), one with a Z
    from those in xcol[q], and one with a Y from those in ycol[q], their
    XOR, built once per qubit; any such difference breaks qubit-wise
    commutation, so the row ORs them in one pass over the term's support.
    """
    xcol, zcol = h.columns
    if relation == "fc":
        return [anticommuting(xcol, zcol, p) for p in h.products()]
    ycol = [x ^ z for x, z in zip(xcol, zcol)]
    rows = []
    for p in h.products():
        x, z = p.x, p.z
        support = x | z
        row = 0
        while support:
            low = support & -support
            q = low.bit_length() - 1
            if not x & low:
                row |= xcol[q]
            elif z & low:
                row |= ycol[q]
            else:
                row |= zcol[q]
            support ^= low
        rows.append(row)
    return rows


def build_graph(h: Hamiltonian, relation: str) -> CompatGraph:
    """The term pairs that break the commutation relation ("fc" or "qwc")."""
    _check_relation(relation)
    conflicts = _conflicts(h, relation)
    if not conflicts:
        raise ValueError("no terms")
    return CompatGraph(len(conflicts), relation, tuple(conflicts))


def _groups_from_colors(colors: list[int]) -> tuple[tuple[int, ...], ...]:
    n_colors = max(colors) + 1 if colors else 0
    groups: list[list[int]] = [[] for _ in range(n_colors)]
    for v, c in enumerate(colors):
        groups[c].append(v)
    return tuple(tuple(g) for g in groups)


def _dsatur_colors(graph: CompatGraph) -> list[int]:
    """Color the vertex of highest saturation next, lowest index on ties.

    A vertex's saturation is the number of distinct colors among its
    conflicting vertices. ``sat`` holds them in a bit-sliced counter that
    grows to keep one empty top slice. The next vertex is found as
    ``_argmax`` finds it, and a rising saturation gets 1 by a ripple carry.
    ``seen[c]`` is the union of the conflict rows of the vertices colored c:
    the vertices that may no longer take c. Once the ``_BLOCK`` colors of
    block b all exist, ``full[b]`` is the AND of their ``seen`` rows, so
    first fit skips each block that has no color for the vertex and tests
    colors one by one from the first block that may. Each test reads a
    ``bytes`` copy: indexing bytes is cheaper than shifting an m-bit int.
    """
    n = graph.n_vertices
    n_bytes = (n + 7) >> 3
    colors = [-1] * n
    seen: list[int] = []
    seen_bytes: list[bytes] = []
    full: list[bytes] = []
    sat = [0]
    uncolored = (1 << n) - 1
    for _ in range(n):
        mask = uncolored
        for s in reversed(sat):
            high = mask & s
            if high:
                mask = high
        bit = mask & -mask
        v = bit.bit_length() - 1
        uncolored ^= bit
        byte, flag = v >> 3, 1 << (v & 7)
        b = 0
        while b < len(full) and full[b][byte] & flag:
            b += 1
        c = b * _BLOCK
        while c < len(seen) and seen_bytes[c][byte] & flag:
            c += 1
        if c == len(seen):
            seen.append(0)
            seen_bytes.append(b"")
        colors[v] = c
        row = graph.conflicts[v]
        new = row & ~seen[c]
        seen[c] |= row
        seen_bytes[c] = seen[c].to_bytes(n_bytes, "little")
        rising = new & uncolored
        j = 0
        while rising:
            s = sat[j]
            sat[j] = s ^ rising
            rising &= s
            j += 1
        if sat[-1]:
            sat.append(0)
        b = c // _BLOCK
        if b == len(full) and len(seen) == (b + 1) * _BLOCK:
            full.append(bytes(n_bytes))
            new = seen[c]
        if b < len(full):
            # full[b] is empty or inside the old seen[c]: only new bits can join.
            for d in range(b * _BLOCK, (b + 1) * _BLOCK):
                new &= seen[d]
                if not new:
                    break
            else:
                new |= int.from_bytes(full[b], "little")
                full[b] = new.to_bytes(n_bytes, "little")
    return colors


def cover_dsatur(graph: CompatGraph) -> CliqueCover:
    """Sequential coloring of the complement graph in DSATUR order."""
    return CliqueCover(graph.relation, "dsatur", _groups_from_colors(_dsatur_colors(graph)))


def _add_rows(counter: list[int], rows: Iterable[int]) -> None:
    """Add 1 to the count of every vertex in each of ``rows``, all at once.

    A carry-save add: at slice j, each pair of the batch's rows of weight
    2^j goes with the slice into a full adder, three rows in, the sum back
    into the slice and the carry out as a row of weight 2^(j+1) for the
    next slice; an odd row out takes a half adder. Each slice halves the
    batch, so k rows cost about k full adds, and the last carry row ripples
    up the slices."""
    level = [row for row in rows if row]
    j = 0
    while len(level) > 1:
        acc = counter[j]
        carries = []
        if len(level) & 1:
            a = level.pop()
            carries.append(acc & a)
            acc ^= a
        pairs = iter(level)
        for a, b in zip(pairs, pairs):
            t = a ^ b
            carries.append(a & b | t & acc)
            acc ^= t
        counter[j] = acc
        level = [row for row in carries if row]
        j += 1
    row = level[0] if level else 0
    while row:
        s = counter[j]
        counter[j] = s ^ row
        row &= s
        j += 1


def _subtract(counter: list[int], row: int) -> None:
    """Take 1 from the count of every vertex in ``row``; each of those counts
    must be at least 1."""
    j = 0
    while row:
        s = counter[j]
        counter[j] = s ^ row
        row &= ~s
        j += 1


def _argmax(counter: list[int], mask: int) -> int:
    """The vertex of ``mask`` with the highest count, lowest index on ties.

    Walking the slices from the top, the vertices whose count has a 1 there
    beat every vertex whose count has a 0, among those still tied."""
    for s in reversed(counter):
        top = mask & s
        if top:
            mask = top
    return (mask & -mask).bit_length() - 1


def _scan_picks(rows: tuple[int, ...], excluded: int, candidates: int) -> list[int]:
    """Grow one group from its candidates: each pick is the candidate with
    the most conflicts among the excluded vertices, found by a popcount of
    every candidate's row."""
    picks = []
    while candidates:
        pick = None
        pick_score = -1
        for v in _bits(candidates):
            score = (rows[v] & excluded).bit_count()
            if score > pick_score:
                pick, pick_score = v, score
        picks.append(pick)
        nb = rows[pick]
        excluded |= nb & candidates
        candidates &= ~(nb | (1 << pick))
    return picks


def _masked_rows(rows: tuple[int, ...], vertices: int, mask: int) -> list[int]:
    """``rows[v] & mask`` for each vertex v of ``vertices``, the zero ones left out."""
    out = []
    while vertices:
        low = vertices & -vertices
        row = rows[low.bit_length() - 1] & mask
        if row:
            out.append(row)
        vertices ^= low
    return out


def _counter_picks(rows: tuple[int, ...], excluded: int, candidates: int,
                   width: int) -> list[int]:
    """The picks of ``_scan_picks``, with the scores in a bit-sliced counter
    of ``width`` slices: each newly excluded vertex adds its row, masked by
    the candidates, so a pick costs one argmax instead of a scan."""
    score = [0] * width
    _add_rows(score, _masked_rows(rows, excluded, candidates))
    picks = []
    while candidates:
        pick = _argmax(score, candidates)
        picks.append(pick)
        nb = rows[pick] & candidates
        candidates &= ~(nb | (1 << pick))
        _add_rows(score, _masked_rows(rows, nb, candidates))
    return picks


def cover_rlf(graph: CompatGraph) -> CliqueCover:
    """Recursive largest first on the complement graph.

    Each round builds one maximal independent set of the complement (a clique
    of the source graph): seed with the maximum-degree uncovered vertex, then
    repeatedly add the candidate with the most complement-neighbors among the
    excluded vertices; ties break toward the lowest index.

    The degrees into the uncovered set live in a bit-sliced counter (slice j
    is an m-bit int whose bit v is bit j of vertex v's degree), built once
    from every row. A closed group subtracts its members' rows, masked by
    the uncovered set, and the seed is the counter's argmax over that set.
    A group whose seed leaves more than twice as many candidates as it
    excludes keeps its pick scores in a counter of the same form
    (``_counter_picks``). Otherwise scanning the few candidates is cheaper
    than adding the many excluded rows (``_scan_picks``); with a 1x cutoff,
    the fc covers of 262-term molecular Hamiltonians ran slower than
    scanning every group. Both routines make the same picks.
    """
    rows = graph.conflicts
    width = graph.n_vertices.bit_length()
    deg = [0] * width
    _add_rows(deg, rows)
    uncovered = (1 << graph.n_vertices) - 1
    groups: list[tuple[int, ...]] = []
    while uncovered:
        seed = _argmax(deg, uncovered)
        excluded = rows[seed] & uncovered
        candidates = uncovered & ~excluded & ~(1 << seed)
        if 2 * excluded.bit_count() >= candidates.bit_count():
            members = _scan_picks(rows, excluded, candidates)
        else:
            members = _counter_picks(rows, excluded, candidates, width)
        members.append(seed)
        members.sort()
        groups.append(tuple(members))
        # Members never conflict, so removing them one at a time masks each
        # row as removing them all first would.
        for v in members:
            uncovered ^= 1 << v
            _subtract(deg, rows[v] & uncovered)
    return CliqueCover(graph.relation, "rlf", tuple(groups))


def _complement_clique_size(graph: CompatGraph) -> int:
    """Greedy clique of the complement; lower bound for its chromatic number."""
    rows = graph.conflicts
    order = sorted(range(graph.n_vertices), key=lambda v: (-rows[v].bit_count(), v))
    clique_mask = 0
    size = 0
    for v in order:
        if clique_mask & ~rows[v]:
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
    comp_deg = [row.bit_count() for row in graph.conflicts]

    def assign(v: int, c: int, delta: int) -> None:
        colors[v] = c if delta > 0 else -1
        for u in _bits(graph.conflicts[v]):
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


def cover_exact(graph: CompatGraph) -> CliqueCover:
    """Provably minimum clique cover via exact complement coloring, for at
    most ``DEFAULT_EXACT_CAP`` vertices."""
    if graph.n_vertices > DEFAULT_EXACT_CAP:
        raise ValueError(f"exact cover limited to {DEFAULT_EXACT_CAP} vertices, "
                         f"graph has {graph.n_vertices}")
    incumbent = _dsatur_colors(graph)
    upper = max(incumbent) + 1
    lower = max(1, _complement_clique_size(graph))
    colors = incumbent
    for k in range(lower, upper):
        sol = _k_coloring(graph, k)
        if sol is not None:
            colors = sol
            break
    return CliqueCover(graph.relation, "exact", _groups_from_colors(colors))


def compute_cover(graph: CompatGraph, method: str) -> CliqueCover:
    if method == "dsatur":
        return cover_dsatur(graph)
    if method == "rlf":
        return cover_rlf(graph)
    if method == "exact":
        return cover_exact(graph)
    raise ValueError(f"unknown method {method!r}")


def validate_cover(h: Hamiltonian, cover: CliqueCover, relation: str) -> CoverReport:
    """Check disjointness, coverage and the pairwise relation inside groups.

    Terms in no group are one violation, their count and the lowest index,
    as `measure verify` reports them. ``groups`` holds each group's in-range
    terms, in cover order, as a ``Hamiltonian`` whose ``columns`` give the
    group's conflict rows, so no m-bit row of the whole graph is made."""
    _check_relation(relation)
    n = len(h.terms)
    violations: list[str] = []
    groups: list[Hamiltonian] = []
    seen: set[int] = set()
    for gi, group in enumerate(cover.groups):
        for v in group:
            if not 0 <= v < n:
                violations.append(f"group {gi}: index {v} out of range")
                continue
            if v in seen:
                violations.append(f"group {gi}: index {v} appears twice in the cover")
            seen.add(v)
        inside = [v for v in group if 0 <= v < n]
        sub = Hamiltonian(h.n_qubits, tuple(h.terms[v] for v in inside))
        groups.append(sub)
        # Bit b of rows[a] is set when inside[a] and inside[b] conflict.
        rows = _conflicts(sub, relation)
        for a, i in enumerate(inside):
            later = rows[a] >> (a + 1)
            if later:
                violations.extend(f"group {gi}: terms {i} and {inside[a + 1 + b]} "
                                  f"violate {relation}" for b in _bits(later))
    missing = [v for v in range(n) if v not in seen]
    if missing:
        violations.append(f"{len(missing)} terms in no group, first {missing[0]}")
    return CoverReport(tuple(violations), tuple(groups))


def cover_stats(cover: CliqueCover) -> CoverStats:
    """Group count, max group size and population stddev of group sizes."""
    sizes = [len(g) for g in cover.groups]
    if not sizes:
        return CoverStats(0, 0, 0.0)
    mean = sum(sizes) / len(sizes)
    var = sum((s - mean) ** 2 for s in sizes) / len(sizes)
    return CoverStats(len(sizes), max(sizes), math.sqrt(var))


def _number(value) -> str:
    """A number as ``json.dumps`` writes it. An exact int and a finite exact
    float are written by their repr; anything else, such as a bool, a float
    subclass like numpy.float64, NaN or an infinity, goes through json.dumps."""
    kind = type(value)
    if kind is int or kind is float and math.isfinite(value):
        return repr(value)
    return json.dumps(value)


def _array(items: list[str], level: int) -> str:
    """An indented JSON array at ``level`` from its items' text, each item
    already indented for level + 1."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * level + "]"


_COVER = """{{
  "relation": {},
  "method": {},
  "groups": {},
  "stats": {{
    "count": {},
    "max": {},
    "std": {}
  }}
}}
"""


def cover_to_json(cover: CliqueCover) -> str:
    """The cover file: byte for byte ``json.dumps(d, indent=2) + "\\n"`` of
    its dict form ``d``, built without that dict, as ``plan_to_json``
    writes a plan. This is where the cover schema is written down."""
    st = cover_stats(cover)
    groups = [_array([_number(v) for v in g], 2) for g in cover.groups]
    return _COVER.format(json.dumps(cover.relation), json.dumps(cover.method),
                         _array(groups, 1), _number(st.group_count),
                         _number(st.max_size), _number(st.size_stddev))
