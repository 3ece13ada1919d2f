"""Compatibility graphs, cover heuristics, exact covers, validation, stats."""

import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (naive_dsatur_colors, pairwise_graph_rows, pairwise_violations,
                     random_graph_hamiltonian, ripple_add, scanning_cover_rlf,
                     shifting_dsatur_colors)
from paulimeasure import (CliqueCover, CompatGraph, Hamiltonian, PauliProduct,
                          build_graph, compute_cover, cover_dsatur, cover_exact,
                          cover_rlf, cover_stats, cover_to_json, parse_hamiltonian,
                          validate_cover)
from paulimeasure import grouping
from paulimeasure.grouping import METHODS, RELATIONS, _dsatur_colors
from paulimeasure.fixtures import SIX_TERM_TEXT, six_term_hamiltonian

HEURISTICS = ("dsatur", "rlf")


def has_edge(g, i, j):
    return i != j and not (g.conflicts[i] >> j) & 1


def graph_from_edges(n, edges, relation="fc"):
    """The graph whose compatible pairs are ``edges``: every other pair conflicts."""
    full = (1 << n) - 1
    conflicts = [full & ~(1 << v) for v in range(n)]
    for i, j in edges:
        conflicts[i] &= ~(1 << j)
        conflicts[j] &= ~(1 << i)
    return CompatGraph(n, relation, tuple(conflicts))


def complete_graph(n):
    return CompatGraph(n, "fc", (0,) * n)


def edgeless_graph(n):
    return graph_from_edges(n, ())


def random_compat_graph(n, rng, p=0.5):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return graph_from_edges(n, edges)


def random_conflict_graph(n, rng, density):
    """Symmetric conflict rows in which each pair conflicts with probability
    ``density``."""
    conflicts = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                conflicts[i] |= 1 << j
                conflicts[j] |= 1 << i
    return CompatGraph(n, "fc", tuple(conflicts))


def planted_conflict_graph(k, n, rng, density):
    """n >= k vertices in k classes, the first k vertices one per class,
    shuffled. Those k conflict pairwise; any other two vertices of distinct
    classes conflict with probability ``density``, and two of one class never
    do. At density 1 every coloring in DSATUR order takes exactly k colors."""
    classes = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
    rng.shuffle(classes)
    first = {}
    for v, cls in enumerate(classes):
        first.setdefault(cls, v)
    conflicts = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            clique = first[classes[i]] == i and first[classes[j]] == j
            if classes[i] != classes[j] and (clique or rng.random() < density):
                conflicts[i] |= 1 << j
                conflicts[j] |= 1 << i
    return CompatGraph(n, "fc", tuple(conflicts))


@st.composite
def shared_qubit_sums(draw, max_qubits=4, max_terms=30):
    """Sums of distinct terms written over a few qubits that they all share,
    so that X, Y and Z meet on every qubit."""
    n = draw(st.integers(1, max_qubits))
    words = draw(st.lists(st.text("IXYZ", min_size=n, max_size=n), min_size=1,
                          max_size=max_terms, unique=True))
    terms = []
    for k, word in enumerate(words):
        tokens = " ".join(f"{a}{q}" for q, a in enumerate(word) if a != "I") or "I"
        terms.append((1.0 + k, PauliProduct.from_term_string(tokens, n)))
    return Hamiltonian.from_terms(n, terms)


@st.composite
def pauli_sums(draw, max_qubits=6, max_terms=24):
    """Sums whose axis bits mix identity terms, full-weight terms (Y on every
    qubit when both are full) and arbitrary patterns."""
    n = draw(st.integers(1, max_qubits))
    full = (1 << n) - 1
    bits = st.one_of(st.just(0), st.just(full), st.integers(0, full))
    pairs = draw(st.lists(st.tuples(bits, bits), min_size=1, max_size=max_terms))
    return Hamiltonian.from_terms(
        n, [(1.0 + k, PauliProduct(n, x, z)) for k, (x, z) in enumerate(pairs)])


def seeded_sums():
    """Random 8-qubit sums of 40-120 distinct terms, one per seed."""
    for seed in range(6):
        rng = random.Random(seed)
        yield random_graph_hamiltonian(8, rng.randint(40, 120), rng)


def assert_matches_references(g):
    """cover_rlf and _dsatur_colors give the covers and colors of the
    scanning RLF, the shifted-int DSATUR and the linear-scan DSATUR."""
    assert cover_rlf(g) == scanning_cover_rlf(g)
    colors = _dsatur_colors(g)
    assert colors == shifting_dsatur_colors(g)
    assert colors == naive_dsatur_colors(g)


def dsatur_blocks(g):
    """_dsatur_colors' ``full`` and ``seen`` on g as they stand at its
    return, read from its frame by a trace function."""
    state = {}

    def local(frame, event, arg):
        if event == "return":
            state.update(full=list(frame.f_locals["full"]), seen=list(frame.f_locals["seen"]))
        return local

    def calls(frame, event, arg):
        if frame.f_code is not _dsatur_colors.__code__:
            return None
        frame.f_trace_lines = False
        return local

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        _dsatur_colors(g)
    finally:
        sys.settrace(previous)
    return state["full"], state["seen"]


@pytest.fixture
def rlf_picks(monkeypatch):
    """Picks made by each of cover_rlf's two pick routines, counted as they
    return."""
    picks = {"scan": 0, "counter": 0}
    for key in picks:
        routine = getattr(grouping, f"_{key}_picks")

        def counted(*args, routine=routine, key=key):
            made = routine(*args)
            picks[key] += len(made)
            return made

        monkeypatch.setattr(grouping, f"_{key}_picks", counted)
    return picks


SIX_TERM_EDGES = {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                  (0, 3), (1, 4), (1, 5), (2, 4), (2, 5)}


class TestBuildGraph:
    def test_six_term_fc_edges(self):
        g = build_graph(six_term_hamiltonian(), "fc")
        assert g.n_vertices == 6
        edges = {(i, j) for i in range(6) for j in range(i + 1, 6) if has_edge(g, i, j)}
        assert edges == SIX_TERM_EDGES

    def test_single_term(self):
        g = build_graph(parse_hamiltonian("1.0 X0\n"), "fc")
        assert g.n_vertices == 1 and g.conflicts == (0,)

    def test_fc_edge_without_qwc_edge(self):
        h = parse_hamiltonian("1.0 X0 X1\n1.0 Y0 Y1\n")
        assert has_edge(build_graph(h, "fc"), 0, 1)
        assert not has_edge(build_graph(h, "qwc"), 0, 1)

    def test_identity_term_adjacent_to_all(self):
        h = parse_hamiltonian("qubits: 2\n1.0 I\n1.0 X0\n1.0 Z0\n")
        for relation in ("fc", "qwc"):
            g = build_graph(h, relation)
            assert has_edge(g, 0, 1) and has_edge(g, 0, 2)

    def test_empty_hamiltonian_rejected(self):
        with pytest.raises(ValueError, match="no terms"):
            build_graph(Hamiltonian(2, ()), "fc")

    @settings(max_examples=200, deadline=None)
    @given(pauli_sums())
    def test_matches_pairwise_definition(self, h):
        full = (1 << len(h.terms)) - 1
        for relation in ("fc", "qwc"):
            rows = build_graph(h, relation).conflicts
            assert rows == tuple(full & ~row & ~(1 << i) for i, row in
                                 enumerate(pairwise_graph_rows(h, relation))), relation
            for i, row in enumerate(rows):
                assert not (row >> i) & 1, (relation, i)
                assert all(((rows[j] >> i) & 1) == ((row >> j) & 1)
                           for j in range(len(rows))), (relation, i)

    @settings(max_examples=200, deadline=None)
    @given(shared_qubit_sums())
    def test_qwc_rows_where_axes_meet_on_shared_qubits(self, h):
        full = (1 << len(h.terms)) - 1
        assert build_graph(h, "qwc").conflicts == tuple(
            full & ~row & ~(1 << i)
            for i, row in enumerate(pairwise_graph_rows(h, "qwc")))

    @settings(max_examples=100, deadline=None)
    @given(pauli_sums(), st.randoms(use_true_random=False))
    def test_violations_match_pairwise_validation(self, h, rng):
        n = len(h.terms)
        groups = [[rng.randrange(-1, n + 1) for _ in range(rng.randint(0, 6))]
                  for _ in range(rng.randint(1, 4))]
        for relation in ("fc", "qwc"):
            report = validate_cover(h, CliqueCover(relation, "manual",
                                                   tuple(map(tuple, groups))), relation)
            assert list(report.violations) == pairwise_violations(h, groups, relation)
            assert report.groups == tuple(
                Hamiltonian(h.n_qubits, tuple(h.terms[v] for v in g if 0 <= v < n))
                for g in groups)


class TestHeuristicCovers:
    def test_complete_graph_single_group(self):
        g = complete_graph(7)
        for method in HEURISTICS:
            cover = compute_cover(g, method)
            assert cover.groups == (tuple(range(7)),)

    def test_edgeless_graph_all_singletons(self):
        g = edgeless_graph(5)
        for method in HEURISTICS:
            assert compute_cover(g, method).group_count == 5

    def test_six_term_dsatur_two_groups(self):
        g = build_graph(six_term_hamiltonian(), "fc")
        assert cover_dsatur(g).groups == ((0, 1, 2), (3, 4, 5))

    def test_six_term_rlf_matches_reference_split(self):
        g = build_graph(six_term_hamiltonian(), "fc")
        cover = cover_rlf(g)
        assert set(map(frozenset, cover.groups)) == {frozenset({0, 1, 2}),
                                                     frozenset({3, 4, 5})}

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            compute_cover(edgeless_graph(2), "bogus")

    def test_methods_are_the_three_covers(self):
        assert METHODS == ("dsatur", "rlf", "exact")
        for method in ("lf", "gc", "sl"):
            with pytest.raises(ValueError, match="unknown method"):
                compute_cover(edgeless_graph(2), method)

    def test_all_methods_produce_valid_covers_on_random_hamiltonians(self):
        rng = random.Random(15)
        for _ in range(10):
            h = random_graph_hamiltonian(4, rng.randint(2, 14), rng)
            for relation in ("fc", "qwc"):
                g = build_graph(h, relation)
                for method in HEURISTICS + ("exact",):
                    cover = compute_cover(g, method)
                    assert validate_cover(h, cover, relation).valid, (method, relation)

    def test_orderings_match_linear_scan_references(self, rlf_picks):
        for h in seeded_sums():
            for relation in RELATIONS:
                assert_matches_references(build_graph(h, relation))
        assert rlf_picks["scan"] and rlf_picks["counter"], rlf_picks

    def test_deterministic_across_runs(self):
        rng = random.Random(8)
        g = random_compat_graph(15, rng)
        for method in HEURISTICS + ("exact",):
            assert compute_cover(g, method) == compute_cover(g, method)


class TestOrderingReferences:
    """cover_rlf's bit-sliced counters and _dsatur_colors' saturation counter
    and blocked first fit against the popcount-scan RLF, the bucket DSATUR
    and the linear-scan DSATUR they replaced."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 100), st.integers(0, 2 ** 32))
    def test_hamiltonian_graphs(self, n_qubits, n_terms, seed):
        h = random_graph_hamiltonian(n_qubits, min(n_terms, 4 ** n_qubits - 1),
                                     random.Random(seed))
        for relation in RELATIONS:
            assert_matches_references(build_graph(h, relation))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 70), st.data())
    def test_batch_add_equals_one_ripple_add_per_row(self, width, n_vertices, data):
        """_add_rows adds a batch of rows as one ripple_add per row would,
        from any start whose counts the batch cannot overflow."""
        k = data.draw(st.integers(0, 2 ** width - 1), label="batch size")
        rows = data.draw(st.lists(st.integers(0, 2 ** n_vertices - 1), min_size=k,
                                  max_size=k), label="rows")
        counts = data.draw(st.lists(st.integers(0, 2 ** width - 1 - k),
                                    min_size=n_vertices, max_size=n_vertices),
                           label="start counts")
        counter = [sum((c >> j & 1) << v for v, c in enumerate(counts))
                   for j in range(width)]
        want = list(counter)
        for row in rows:
            ripple_add(want, row)
        grouping._add_rows(counter, iter(rows))
        assert counter == want
        assert [sum((s >> v & 1) << j for j, s in enumerate(counter))
                for v in range(n_vertices)] == [
            c + sum(row >> v & 1 for row in rows) for v, c in enumerate(counts)]

    @pytest.mark.parametrize("p, routine", [(0.1, "scan"), (0.9, "counter")])
    def test_seed_exclusions_choose_the_routine(self, rlf_picks, p, routine):
        """A dense conflict graph excludes most vertices with each seed and
        scans the few candidates; a sparse one counts scores."""
        assert_matches_references(random_compat_graph(60, random.Random(5), p))
        assert rlf_picks[routine] > 0, rlf_picks

    @pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 17, 31, 32, 33, 63, 64, 65])
    def test_slice_count_edges(self, n):
        """Sizes around powers of two, where the counters' slice count
        m.bit_length() steps up. An all-conflict graph gives every vertex
        the largest degree, m - 1."""
        rng = random.Random(n)
        for g in (complete_graph(n), edgeless_graph(n),
                  random_compat_graph(n, rng, 0.2), random_compat_graph(n, rng, 0.8)):
            assert_matches_references(g)


class TestDsaturBlocks:
    """_dsatur_colors' first fit skips a block of 64 colors once they all
    exist and block a vertex. Hamiltonian graphs of the sizes drawn above
    rarely color with 64 colors, so these graphs are built from rows."""

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_graphs(self, n):
        assert _dsatur_colors(edgeless_graph(n)) == list(range(n))
        assert_matches_references(edgeless_graph(n))

    def test_all_conflict_graph_of_130(self):
        g = edgeless_graph(130)
        assert _dsatur_colors(g) == list(range(130))
        assert_matches_references(g)

    @pytest.mark.parametrize("density", [0.5, 0.9, 1.0])
    def test_random_conflict_rows(self, density):
        rng = random.Random(f"rows-{density}")
        for n in (2, 63, 64, 65, 140, 300):
            assert_matches_references(random_conflict_graph(n, rng, density))

    @pytest.mark.parametrize("k", [63, 64, 65, 127, 128, 129])
    def test_colorings_ending_at_block_edges(self, k):
        """Exactly k colors at density 1; at density 0.9 the later vertices
        keep adding to the rows of colors in complete blocks."""
        rng = random.Random(k)
        g = planted_conflict_graph(k, k + 120, rng, 1.0)
        assert max(_dsatur_colors(g)) + 1 == k
        assert_matches_references(g)
        assert_matches_references(planted_conflict_graph(k, k + 120, rng, 0.9))

    @pytest.mark.parametrize("k", [64, 128])
    @pytest.mark.parametrize("density", [1.0, 0.9])
    def test_each_complete_block_holds_the_and_of_its_rows(self, k, density):
        """At the return, ``full[b]`` is exactly the AND of the ``seen`` rows
        of block b's colors, one entry per complete block: a subset would
        still give the same colors, only with fewer blocks skipped."""
        rng = random.Random(k)
        # the graphs of test_colorings_ending_at_block_edges, twin included
        g = planted_conflict_graph(k, k + 120, rng, 1.0)
        if density < 1:
            g = planted_conflict_graph(k, k + 120, rng, density)
        full, seen = dsatur_blocks(g)
        assert len(full) == len(seen) // grouping._BLOCK >= k // grouping._BLOCK
        for b, block in enumerate(full):
            want = -1
            for row in seen[b * grouping._BLOCK:(b + 1) * grouping._BLOCK]:
                want &= row
            assert int.from_bytes(block, "little") == want, b


class TestExactCover:
    def test_six_term_minimum_is_two(self):
        g = build_graph(six_term_hamiltonian(), "fc")
        cover = cover_exact(g)
        assert cover.group_count == 2
        assert set(map(frozenset, cover.groups)) == {frozenset({0, 1, 2}),
                                                     frozenset({3, 4, 5})}

    def test_three_group_cover_is_legal_but_not_minimal(self):
        h = six_term_hamiltonian()
        alt = CliqueCover("fc", "manual", ((0, 3), (1, 2), (4, 5)))
        assert validate_cover(h, alt, "fc").valid
        assert cover_exact(build_graph(h, "fc")).group_count < alt.group_count

    def test_edgeless_graph(self):
        assert cover_exact(edgeless_graph(4)).group_count == 4

    def test_vertex_bound(self):
        with pytest.raises(ValueError, match="limited to 64 vertices, graph has 65"):
            cover_exact(edgeless_graph(65))

    def test_exact_never_beaten_by_heuristics(self):
        rng = random.Random(77)
        for _ in range(30):
            g = random_compat_graph(12, rng)
            best = cover_exact(g).group_count
            for method in HEURISTICS:
                assert best <= compute_cover(g, method).group_count

    def test_exact_at_twenty_vertices(self):
        rng = random.Random(99)
        for _ in range(5):
            g = random_compat_graph(20, rng)
            exact = cover_exact(g)
            assert exact.group_count <= cover_rlf(g).group_count

    def test_qwc_minimum_at_least_fc_minimum(self):
        rng = random.Random(123)
        for _ in range(10):
            h = random_graph_hamiltonian(4, 10, rng)
            m_fc = cover_exact(build_graph(h, "fc")).group_count
            m_qwc = cover_exact(build_graph(h, "qwc")).group_count
            assert m_qwc >= m_fc


class TestValidationAndStats:
    def test_qwc_violation_reported(self):
        h = parse_hamiltonian("1.0 X0 X1\n1.0 Y0 Y1\n")
        cover = CliqueCover("qwc", "manual", ((0, 1),))
        report = validate_cover(h, cover, "qwc")
        assert not report.valid
        assert len(report.violations) == 1

    def test_missing_and_duplicate_indices_reported(self):
        h = parse_hamiltonian("1.0 X0\n1.0 X1\n1.0 Z0\n")
        report = validate_cover(h, CliqueCover("fc", "manual", ((0, 0),)), "fc")
        assert not report.valid
        assert any("twice" in v for v in report.violations)
        assert "2 terms in no group, first 1" in report.violations

    def test_unknown_relation_rejected_before_any_group(self):
        h = parse_hamiltonian("1.0 X0\n")
        for cover in (CliqueCover("fc", "manual", ()), CliqueCover("fc", "manual", ((0,),))):
            with pytest.raises(ValueError, match="unknown relation 'xx'"):
                validate_cover(h, cover, "xx")
        with pytest.raises(ValueError, match="unknown relation 'xx'"):
            build_graph(Hamiltonian(2, ()), "xx")

    def test_report_groups_hold_each_groups_in_range_terms(self):
        """Out-of-range indices are dropped, repeats kept, in cover order."""
        h = parse_hamiltonian("1.0 X0\n2.0 X1\n3.0 Z0\n")
        t0, t1, t2 = h.terms
        cover = CliqueCover("fc", "manual", ((0, 7, 0), (), (-1, 2, 1)))
        report = validate_cover(h, cover, "fc")
        assert not report.valid
        assert report.groups == (Hamiltonian(2, (t0, t0)), Hamiltonian(2, ()),
                                 Hamiltonian(2, (t2, t1)))

    def test_out_of_range_reported(self):
        h = parse_hamiltonian("1.0 X0\n")
        report = validate_cover(h, CliqueCover("fc", "manual", ((0, 4),)), "fc")
        assert any("out of range" in v for v in report.violations)

    def test_stats_two_equal_groups(self):
        cover = CliqueCover("fc", "manual", ((0, 1, 2), (3, 4, 5)))
        st = cover_stats(cover)
        assert (st.group_count, st.max_size, st.size_stddev) == (2, 3, 0.0)

    def test_stats_uneven_groups(self):
        st = cover_stats(CliqueCover("fc", "manual", ((0,), (1, 2, 3))))
        assert st.group_count == 2 and st.max_size == 3
        assert st.size_stddev == pytest.approx(1.0)

    @pytest.mark.parametrize("groups, max_size, std", [
        ((), 0, 0.0), (((0, 1, 2),), 3, 0.0), (((0,), (1, 2)), 2, 0.5),
        (((0,), (1,), (2, 3), ()), 2, 0.7071067811865476),
    ])
    def test_cover_json_is_the_indented_dump_of_its_dict(self, groups, max_size, std):
        cover = CliqueCover("qwc", "dsatur", groups)
        d = {"relation": "qwc", "method": "dsatur", "groups": [list(g) for g in groups],
             "stats": {"count": len(groups), "max": max_size, "std": std}}
        assert cover_to_json(cover) == json.dumps(d, indent=2) + "\n"
        assert json.loads(cover_to_json(cover)) == d

    def test_cover_serialization_schema(self):
        g = build_graph(six_term_hamiltonian(), "fc")
        d = json.loads(cover_to_json(cover_rlf(g)))
        assert d["relation"] == "fc" and d["method"] == "rlf"
        assert d["groups"] == [[0, 1, 2], [3, 4, 5]]
        assert d["stats"] == {"count": 2, "max": 3, "std": 0.0}
