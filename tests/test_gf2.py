"""GF(2) row reduction, complements, Lagrangian extraction and solves."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (InconsistentSystemError, column_scan_row_reduce, in_span,
                     is_isotropic, is_lagrangian, pairwise_lagrangian_extract,
                     random_isotropic, random_subspace, rescanning_lagrangian_extract,
                     solve)
from paulimeasure import PauliProduct, parse_hamiltonian
from paulimeasure import gf2
from paulimeasure.fixtures import H2_GROUP_TEXT
from paulimeasure.pauli import MAX_QUBITS


def vec(term, n):
    return PauliProduct.from_term_string(term, n).packed


def same_span(a, b, n_cols):
    """Span equality: equal ranks, and every vector of a lies in span(b)."""
    return (gf2.rank(a) == gf2.rank(b)
            and all(in_span(b, n_cols, v) for v in a))


class TestRowReduce:
    def test_z_string_family_has_rank_three(self):
        rows = [vec("Z0 Z1", 4), vec("Z0 Z1 Z2", 4), vec("Z0 Z1 Z3", 4)]
        basis, pivots = gf2.row_reduce(rows)
        assert len(basis) == 3
        assert pivots == sorted(pivots)

    def test_duplicate_rows_rank_one(self):
        v = vec("X0 Z1", 2)
        assert gf2.rank([v, v]) == 1

    def test_h2_group_rank_is_four(self):
        h = parse_hamiltonian(H2_GROUP_TEXT)
        rows = [p.packed for _, p in h.terms if p.weight() > 0]
        assert gf2.rank(rows) == 4

    def test_zero_matrix(self):
        basis, pivots = gf2.row_reduce([0, 0])
        assert basis == [] and pivots == []

    def test_idempotent(self):
        rng = random.Random(5)
        for _ in range(50):
            rows = [rng.getrandbits(8) for _ in range(rng.randint(1, 6))]
            once, piv1 = gf2.row_reduce(rows)
            twice, piv2 = gf2.row_reduce(once)
            assert once == twice and piv1 == piv2

    def test_rank_matches_brute_force_span_size(self):
        rng = random.Random(9)
        for _ in range(30):
            n = rng.randint(1, 4)
            rows = [rng.getrandbits(2 * n) for _ in range(rng.randint(1, 5))]
            r = gf2.rank(rows)
            span = {0}
            for row in rows:
                span |= {s ^ row for s in span}
            assert len(span) == 1 << r

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_column_scan_reference(self, data):
        n_cols = 2 * data.draw(st.integers(1, 64), label="n_qubits")
        dense = st.integers(0, (1 << n_cols) - 1)
        sparse = st.sets(st.integers(0, n_cols - 1), max_size=3).map(
            lambda bits: sum(1 << b for b in bits))
        rows = data.draw(st.lists(st.one_of(dense, sparse), max_size=n_cols + 4))
        assert gf2.row_reduce(rows) == column_scan_row_reduce(rows, n_cols)

    def test_matches_column_scan_reference_at_the_qubit_cap(self):
        n_cols = 2 * MAX_QUBITS
        rng = random.Random(61)
        rows = [sum(1 << b for b in rng.sample(range(n_cols), rng.randint(1, 3)))
                for _ in range(400)]
        assert gf2.row_reduce(rows) == column_scan_row_reduce(rows, n_cols)


class TestSymplecticComplement:
    def test_isotropic_line_example(self):
        # span{(10;00)} on two qubits has the three-dimensional complement
        # span{(10;00), (01;00), (00;01)}
        v = vec("X0", 2)
        comp = gf2.symplectic_complement([v], 2, 0b11)
        expected = [vec("X0", 2), vec("X1", 2), vec("Z1", 2)]
        assert len(comp) == 3
        assert same_span(comp, expected, 4)

    def test_lagrangian_is_self_complement(self):
        rows = [vec("X0", 2), vec("X1", 2)]
        comp = gf2.symplectic_complement(rows, 2, 0b11)
        assert same_span(comp, rows, 4)

    def test_full_space_has_zero_complement(self):
        rows = [1 << k for k in range(4)]
        assert gf2.symplectic_complement(rows, 2, 0b11) == []

    def test_dimension_sum_and_double_complement(self):
        rng = random.Random(21)
        for _ in range(100):
            n = rng.randint(1, 6)
            dim = rng.randint(1, 2 * n - 1)
            rows = random_subspace(n, dim, rng)
            comp = gf2.symplectic_complement(rows, n, (1 << n) - 1)
            assert len(rows) + len(comp) == 2 * n
            again = gf2.symplectic_complement(comp, n, (1 << n) - 1)
            assert same_span(again, rows, 2 * n)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 30), st.integers(0, 2**32 - 1))
    def test_qubit_mask_leaves_out_the_unit_vectors_of_other_qubits(self, k, extra, seed):
        # rows on k random qubits of a wider register: the masked complement
        # is the whole one without the X_q and Z_q of the other qubits
        rng = random.Random(seed)
        n = k + extra
        qubits = rng.sample(range(n), k)
        mask = sum(1 << q for q in qubits)

        def place(v):
            x = sum(((v >> i) & 1) << q for i, q in enumerate(qubits))
            z = sum(((v >> (k + i)) & 1) << q for i, q in enumerate(qubits))
            return x | z << n

        rows = [place(v) for v in random_subspace(k, rng.randint(0, 2 * k), rng)]
        idle = ((1 << n) - 1) & ~mask
        idle |= idle << n
        assert gf2.symplectic_complement(rows, n, mask) == [
            v for v in gf2.symplectic_complement(rows, n, (1 << n) - 1) if not v & idle]


class TestLagrangianExtract:
    def test_already_lagrangian_unchanged(self):
        rows = [vec("X0", 2), vec("X1", 2)]
        assert gf2.lagrangian_extract(rows, 2, 2) == rows

    def test_hand_traced_elimination(self):
        # (01;00) and (00;01) anticommute; the second pair member is dropped
        # and (10;00) is untouched, leaving {(10;00), (01;00)}.
        rows = [vec("X0", 2), vec("X1", 2), vec("Z1", 2)]
        assert gf2.lagrangian_extract(rows, 2, 2) == [vec("X0", 2), vec("X1", 2)]

    def test_non_coisotropic_input_rejected(self):
        with pytest.raises(ValueError):
            gf2.lagrangian_extract([vec("X0", 2)], 2, 2)

    def test_size_counts_the_qubits_the_rows_act_on(self):
        # on qubits 0 and 2 of 3: X0 X2, Z0 Z2 and Y0 span a coisotropic
        # subspace of those two qubits. Y0 is dropped with X0 X2, whose
        # pair it is, and turns Z0 Z2 into Y0 Y2.
        rows = [vec("X0 X2", 3), vec("Z0 Z2", 3), vec("Y0", 3)]
        out = gf2.lagrangian_extract(rows, 3, 2)
        assert out == [vec("X0 X2", 3), vec("Y0 Y2", 3)]
        with pytest.raises(ValueError, match="extracted 2 of 3 vectors"):
            gf2.lagrangian_extract(rows, 3, 3)

    def test_random_coisotropic_inputs_yield_lagrangians(self):
        rng = random.Random(33)
        for _ in range(100):
            n = rng.randint(1, 8)
            iso = random_isotropic(n, rng.randint(0, n - 1) if n > 1 else 0, rng)
            coiso = gf2.symplectic_complement(iso, n, (1 << n) - 1)
            out = gf2.lagrangian_extract(coiso, n, n)
            assert is_lagrangian(out, n)
            # the isotropic seed subspace survives extraction
            for v in iso:
                assert in_span(out, 2 * n, v)

    def test_isotropic_seed_contained_for_larger_n(self):
        rng = random.Random(44)
        for _ in range(30):
            n = rng.randint(2, 10)
            iso = random_isotropic(n, rng.randint(1, n), rng)
            lagr = gf2.lagrangian_extract(gf2.symplectic_complement(iso, n, (1 << n) - 1), n, n)
            assert is_isotropic(lagr, n) and len(lagr) == n
            assert all(in_span(lagr, 2 * n, v) for v in iso)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.booleans())
    def test_sweep_matches_rescanning_reference(self, n, seed, coisotropic):
        rng = random.Random(seed)
        if coisotropic:
            rows = gf2.symplectic_complement(random_isotropic(n, rng.randint(0, n), rng), n,
                                             (1 << n) - 1)
        else:
            rows = random_subspace(n, rng.randint(1, 2 * n), rng)
        assert_same_extraction(scrambled(rows, rng), n, rescanning_lagrangian_extract)

    def test_sweep_matches_rescanning_reference_at_width(self):
        # complement of a sparse commuting set on 100 qubits: 194 vectors
        n = 100
        terms = ["X0 Z99", "Z0 X99", "Y0 Y99", "Z10 Z20 Z30", "X40 X41", "Z40 Z41"]
        iso, _ = gf2.row_reduce([vec(t, n) for t in terms])
        assert_same_extraction(gf2.symplectic_complement(iso, n, (1 << n) - 1), n,
                               rescanning_lagrangian_extract)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 64), st.integers(0, 2**32 - 1),
           st.sampled_from(["coisotropic", "independent", "any"]))
    def test_bitset_tests_match_pairwise_reference(self, n, seed, kind):
        rng = random.Random(seed)
        if kind == "coisotropic":
            rows = gf2.symplectic_complement(random_isotropic(n, rng.randint(0, n), rng), n,
                                             (1 << n) - 1)
        elif kind == "independent":
            rows = random_subspace(n, rng.randint(1, 2 * n), rng)
        else:
            rows = [rng.getrandbits(2 * n) for _ in range(rng.randint(0, 2 * n + 2))]
        assert_same_extraction(scrambled(rows, rng), n, pairwise_lagrangian_extract)

    def test_bitset_tests_match_pairwise_reference_at_the_qubit_cap(self):
        # the complement of X0 Z1023, Z0 X1023: 2,046 sparse vectors
        n = MAX_QUBITS
        iso, _ = gf2.row_reduce([vec(f"X0 Z{n - 1}", n), vec(f"Z0 X{n - 1}", n)])
        assert_same_extraction(gf2.symplectic_complement(iso, n, (1 << n) - 1), n,
                               pairwise_lagrangian_extract)


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


def assert_same_extraction(rows, n, reference):
    """The sweep returns the reference's list, or raises its error."""
    try:
        want = reference(rows, n)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            gf2.lagrangian_extract(rows, n, n)
    else:
        assert gf2.lagrangian_extract(rows, n, n) == want


class TestSolve:
    """The GF(2) solver the tests use as a reference."""

    def test_unit_basis(self):
        rows = [1 << k for k in range(4)]
        assert solve(rows, 4, 1 << 2) == 1 << 2

    def test_h2_tau_selection(self):
        taus = [vec("Z3", 4), vec("Z1", 4), vec("Y0 Y2", 4), vec("X0 X2", 4)]
        x = solve(taus, 8, vec("Z1 Z3", 4))
        assert x == 0b0011

    def test_zero_target(self):
        assert solve([vec("X0", 2), vec("Z1", 2)], 4, 0) == 0

    def test_inconsistent_system(self):
        with pytest.raises(InconsistentSystemError):
            solve([vec("X0", 2)], 4, vec("Z1", 2))

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
            x = solve(rows, 2 * n, b)
            got = 0
            for k in range(len(rows)):
                if (x >> k) & 1:
                    got ^= rows[k]
            assert got == b


class TestSubspaceKinds:
    """The isotropic / Lagrangian / coisotropic classes from the reference predicates."""

    def test_kind_tags(self):
        x0, x1, z0 = vec("X0", 2), vec("X1", 2), vec("Z0", 2)
        assert is_isotropic([x0], 2) and not is_lagrangian([x0], 2)
        assert is_lagrangian([x0, x1], 2)
        coiso = gf2.symplectic_complement([x0], 2, 0b11)
        assert not is_isotropic(coiso, 2)
        # coisotropic: the span contains its own symplectic complement
        assert all(in_span(coiso, 4, v) for v in gf2.symplectic_complement(coiso, 2, 0b11))
        general = [x0, z0]
        assert not is_isotropic(general, 2)
        assert not all(in_span(general, 4, v)
                       for v in gf2.symplectic_complement(general, 2, 0b11))

    def test_dependent_vectors_rejected(self):
        x0 = vec("X0", 2)
        rows = [x0, x0]
        assert gf2.rank(rows) != len(rows)
        assert not is_lagrangian(rows, 2)
