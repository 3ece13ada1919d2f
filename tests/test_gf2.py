"""GF(2) row reduction, complements, Lagrangian extraction and solves."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_isotropic, random_subspace, rescanning_lagrangian_extract
from paulimeasure import PauliProduct, parse_hamiltonian
from paulimeasure import gf2
from paulimeasure.fixtures import H2_GROUP_TEXT


def vec(term, n):
    return PauliProduct.from_term_string(term, n).packed


def same_span(a, b, n_cols):
    """Span equality: equal ranks, and every vector of a lies in span(b)."""
    return (gf2.rank(a, n_cols) == gf2.rank(b, n_cols)
            and all(gf2.in_span(b, n_cols, v) for v in a))


class TestRowReduce:
    def test_z_string_family_has_rank_three(self):
        rows = [vec("Z0 Z1", 4), vec("Z0 Z1 Z2", 4), vec("Z0 Z1 Z3", 4)]
        basis, pivots = gf2.row_reduce(rows, 8)
        assert len(basis) == 3
        assert pivots == sorted(pivots)

    def test_duplicate_rows_rank_one(self):
        v = vec("X0 Z1", 2)
        assert gf2.rank([v, v], 4) == 1

    def test_h2_group_rank_is_four(self):
        h = parse_hamiltonian(H2_GROUP_TEXT)
        rows = [p.packed for _, p in h.terms if p.weight() > 0]
        assert gf2.rank(rows, 8) == 4

    def test_zero_matrix(self):
        basis, pivots = gf2.row_reduce([0, 0], 4)
        assert basis == [] and pivots == []

    def test_idempotent(self):
        rng = random.Random(5)
        for _ in range(50):
            rows = [rng.getrandbits(8) for _ in range(rng.randint(1, 6))]
            once, piv1 = gf2.row_reduce(rows, 8)
            twice, piv2 = gf2.row_reduce(once, 8)
            assert once == twice and piv1 == piv2

    def test_rank_matches_brute_force_span_size(self):
        rng = random.Random(9)
        for _ in range(30):
            n = rng.randint(1, 4)
            rows = [rng.getrandbits(2 * n) for _ in range(rng.randint(1, 5))]
            r = gf2.rank(rows, 2 * n)
            span = {0}
            for row in rows:
                span |= {s ^ row for s in span}
            assert len(span) == 1 << r


class TestSymplecticComplement:
    def test_isotropic_line_example(self):
        # span{(10;00)} on two qubits has the three-dimensional complement
        # span{(10;00), (01;00), (00;01)}
        v = vec("X0", 2)
        comp = gf2.symplectic_complement([v], 2)
        expected = [vec("X0", 2), vec("X1", 2), vec("Z1", 2)]
        assert len(comp) == 3
        assert same_span(comp, expected, 4)

    def test_lagrangian_is_self_complement(self):
        rows = [vec("X0", 2), vec("X1", 2)]
        comp = gf2.symplectic_complement(rows, 2)
        assert same_span(comp, rows, 4)

    def test_full_space_has_zero_complement(self):
        rows = [1 << k for k in range(4)]
        assert gf2.symplectic_complement(rows, 2) == []

    def test_dimension_sum_and_double_complement(self):
        rng = random.Random(21)
        for _ in range(100):
            n = rng.randint(1, 6)
            dim = rng.randint(1, 2 * n - 1)
            rows = random_subspace(n, dim, rng)
            comp = gf2.symplectic_complement(rows, n)
            assert len(rows) + len(comp) == 2 * n
            again = gf2.symplectic_complement(comp, n)
            assert same_span(again, rows, 2 * n)


class TestLagrangianExtract:
    def test_already_lagrangian_unchanged(self):
        rows = [vec("X0", 2), vec("X1", 2)]
        assert gf2.lagrangian_extract(rows, 2) == rows

    def test_hand_traced_elimination(self):
        # (01;00) and (00;01) anticommute; the second pair member is dropped
        # and (10;00) is untouched, leaving {(10;00), (01;00)}.
        rows = [vec("X0", 2), vec("X1", 2), vec("Z1", 2)]
        assert gf2.lagrangian_extract(rows, 2) == [vec("X0", 2), vec("X1", 2)]

    def test_non_coisotropic_input_rejected(self):
        with pytest.raises(ValueError):
            gf2.lagrangian_extract([vec("X0", 2)], 2)

    def test_random_coisotropic_inputs_yield_lagrangians(self):
        rng = random.Random(33)
        for _ in range(100):
            n = rng.randint(1, 8)
            iso = random_isotropic(n, rng.randint(0, n - 1) if n > 1 else 0, rng)
            coiso = gf2.symplectic_complement(iso, n)
            out = gf2.lagrangian_extract(coiso, n)
            assert gf2.is_lagrangian(out, n)
            # the isotropic seed subspace survives extraction
            for v in iso:
                assert gf2.in_span(out, 2 * n, v)

    def test_isotropic_seed_contained_for_larger_n(self):
        rng = random.Random(44)
        for _ in range(30):
            n = rng.randint(2, 10)
            iso = random_isotropic(n, rng.randint(1, n), rng)
            lagr = gf2.lagrangian_extract(gf2.symplectic_complement(iso, n), n)
            assert gf2.is_isotropic(lagr, n) and len(lagr) == n
            assert all(gf2.in_span(lagr, 2 * n, v) for v in iso)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.booleans())
    def test_sweep_matches_rescanning_reference(self, n, seed, coisotropic):
        rng = random.Random(seed)
        if coisotropic:
            rows = gf2.symplectic_complement(random_isotropic(n, rng.randint(0, n), rng), n)
        else:
            rows = random_subspace(n, rng.randint(1, 2 * n), rng)
        assert_same_extraction(scrambled(rows, rng), n)

    def test_sweep_matches_rescanning_reference_at_width(self):
        # complement of a sparse commuting set on 100 qubits: 194 vectors
        n = 100
        terms = ["X0 Z99", "Z0 X99", "Y0 Y99", "Z10 Z20 Z30", "X40 X41", "Z40 Z41"]
        iso, _ = gf2.row_reduce([vec(t, n) for t in terms], 2 * n)
        assert_same_extraction(gf2.symplectic_complement(iso, n), n)


def scrambled(rows, rng):
    """Another basis of the same span: each row plus a random combination of
    the rows before it, in shuffled order."""
    out = []
    for r in rows:
        for prev in out:
            if rng.getrandbits(1):
                r ^= prev
        out.append(r)
    rng.shuffle(out)
    return out


def assert_same_extraction(rows, n):
    """The sweep returns the reference's list, or raises its error."""
    try:
        want = rescanning_lagrangian_extract(rows, n)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            gf2.lagrangian_extract(rows, n)
    else:
        assert gf2.lagrangian_extract(rows, n) == want


class TestSolve:
    def test_unit_basis(self):
        rows = [1 << k for k in range(4)]
        assert gf2.solve(rows, 4, 1 << 2) == 1 << 2

    def test_h2_tau_selection(self):
        taus = [vec("Z3", 4), vec("Z1", 4), vec("Y0 Y2", 4), vec("X0 X2", 4)]
        x = gf2.solve(taus, 8, vec("Z1 Z3", 4))
        assert x == 0b0011

    def test_zero_target(self):
        assert gf2.solve([vec("X0", 2), vec("Z1", 2)], 4, 0) == 0

    def test_inconsistent_system(self):
        with pytest.raises(gf2.InconsistentSystemError):
            gf2.solve([vec("X0", 2)], 4, vec("Z1", 2))

    def test_solution_reconstructs_target(self):
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randint(1, 6)
            rows = random_subspace(n, rng.randint(1, 2 * n), rng)
            mask = rng.getrandbits(len(rows))
            b = 0
            for k in range(len(rows)):
                if (mask >> k) & 1:
                    b ^= rows[k]
            x = gf2.solve(rows, 2 * n, b)
            got = 0
            for k in range(len(rows)):
                if (x >> k) & 1:
                    got ^= rows[k]
            assert got == b


class TestSubspaceKinds:
    """The isotropic / Lagrangian / coisotropic classes from the gf2 predicates."""

    def test_kind_tags(self):
        x0, x1, z0 = vec("X0", 2), vec("X1", 2), vec("Z0", 2)
        assert gf2.is_isotropic([x0], 2) and not gf2.is_lagrangian([x0], 2)
        assert gf2.is_lagrangian([x0, x1], 2)
        coiso = gf2.symplectic_complement([x0], 2)
        assert not gf2.is_isotropic(coiso, 2)
        # coisotropic: the span contains its own symplectic complement
        assert all(gf2.in_span(coiso, 4, v) for v in gf2.symplectic_complement(coiso, 2))
        general = [x0, z0]
        assert not gf2.is_isotropic(general, 2)
        assert not all(gf2.in_span(general, 4, v)
                       for v in gf2.symplectic_complement(general, 2))

    def test_dependent_vectors_rejected(self):
        x0 = vec("X0", 2)
        assert not gf2.is_independent([x0, x0], 4)
        assert not gf2.is_lagrangian([x0, x0], 2)
