"""Pauli algebra, the packed GF(2) form and Hamiltonian text I/O."""

import random

import numpy as np
import pytest

from helpers import all_paulis, random_pauli
from paulimeasure import (Hamiltonian, HamiltonianFormatError, PauliProduct,
                          parse_hamiltonian, serialize_hamiltonian)
from paulimeasure.pauli import MAX_QUBITS, anticommuting, qubit_columns
from paulimeasure.gf2 import symplectic_inner
from paulimeasure.verify import dense_pauli


def bits(p):
    """Components of the packed row as 0/1 ints, x-block first."""
    return tuple((p.packed >> i) & 1 for i in range(2 * p.n_qubits))


class TestMultiply:
    def test_single_qubit_xy(self):
        p = PauliProduct.from_label("X")
        q = PauliProduct.from_label("Y")
        r = p * q
        assert r.to_label() == "Z"
        assert r.phase_exp == 1

    def test_identity_is_neutral(self):
        rng = random.Random(11)
        e = PauliProduct.identity(3)
        for _ in range(20):
            p = random_pauli(3, rng, phase=True)
            assert p * e == p
            assert e * p == p

    def test_xx_times_zz_matches_dense_oracle(self):
        p = PauliProduct.from_label("XX")
        q = PauliProduct.from_label("ZZ")
        r = p * q
        np.testing.assert_allclose(dense_pauli(r), dense_pauli(p) @ dense_pauli(q),
                                   atol=1e-12)
        # (X.Z) x (X.Z) = (-iY) x (-iY) = -(Y x Y)
        assert r.to_label() == "YY"
        assert r.phase_exp == 2

    def test_all_two_qubit_products_match_dense_oracle(self):
        for p in all_paulis(2):
            for q in all_paulis(2):
                r = p * q
                np.testing.assert_allclose(
                    dense_pauli(r), dense_pauli(p) @ dense_pauli(q), atol=1e-12)

    def test_associative_and_dense_consistent_on_random_triples(self):
        rng = random.Random(7)
        for _ in range(1000):
            p, q, r = (random_pauli(2, rng, phase=True) for _ in range(3))
            assert (p * q) * r == p * (q * r)
        for _ in range(50):
            p, q, r = (random_pauli(2, rng, phase=True) for _ in range(3))
            np.testing.assert_allclose(
                dense_pauli(p * q * r),
                dense_pauli(p) @ dense_pauli(q) @ dense_pauli(r), atol=1e-12)

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError):
            PauliProduct.identity(2) * PauliProduct.identity(3)


class TestSymplecticMapping:
    def test_mapping_example(self):
        assert bits(PauliProduct.from_label("XYZI")) == (1, 1, 0, 0, 0, 1, 1, 0)

    def test_identity_maps_to_zero(self):
        assert PauliProduct.identity(2).packed == 0

    def test_roundtrip_all_two_qubit_products(self):
        for p in all_paulis(2):
            assert PauliProduct.from_packed(p.packed, 2) == p

    def test_phase_is_discarded(self):
        p = PauliProduct.from_label("XZ", phase_exp=3)
        assert PauliProduct.from_packed(p.packed, 2).phase_exp == 0

    def test_multiply_is_xor_on_vectors(self):
        rng = random.Random(3)
        for _ in range(200):
            p = random_pauli(4, rng)
            q = random_pauli(4, rng)
            assert (p * q).packed == p.packed ^ q.packed


class TestCommutation:
    def test_inner_product_examples(self):
        xx = PauliProduct.from_label("XX").packed
        yy = PauliProduct.from_label("YY").packed
        assert symplectic_inner(xx, yy, 2) == 0
        x0 = PauliProduct.from_label("X").packed
        z0 = PauliProduct.from_label("Z").packed
        assert symplectic_inner(x0, z0, 1) == 1

    def test_self_orthogonality(self):
        for p in all_paulis(2):
            assert symplectic_inner(p.packed, p.packed, 2) == 0

    def test_qwc_and_commute_examples(self):
        xx = PauliProduct.from_label("XX")
        xi = PauliProduct.from_label("XI")
        yy = PauliProduct.from_label("YY")
        assert xx.commutes_with(xi) and xx.qwc_with(xi)
        assert xx.commutes_with(yy) and not xx.qwc_with(yy)
        assert xx.commutes_with(xx) and xx.qwc_with(xx)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            PauliProduct.identity(2).commutes_with(PauliProduct.identity(3))
        with pytest.raises(ValueError):
            PauliProduct.identity(2).qwc_with(PauliProduct.identity(3))

    def test_exhaustive_truth_table_against_dense_commutators(self):
        for p in all_paulis(2):
            mp = dense_pauli(p)
            for q in all_paulis(2):
                mq = dense_pauli(q)
                dense_commute = np.allclose(mp @ mq, mq @ mp, atol=1e-12)
                dense_anticommute = np.allclose(mp @ mq, -mq @ mp, atol=1e-12)
                inner = symplectic_inner(p.packed, q.packed, 2)
                assert p.commutes_with(q) == dense_commute
                assert (inner == 1) == dense_anticommute

    def test_anticommuting_bitset_matches_commutes_with(self):
        prods = list(all_paulis(2))
        xcol, zcol = qubit_columns(2, prods)
        for p in prods:
            row = anticommuting(xcol, zcol, p)
            assert [(row >> k) & 1 for k in range(len(prods))] == [
                int(not p.commutes_with(q)) for q in prods]

    def test_qwc_implies_commutes(self):
        for p in all_paulis(2):
            for q in all_paulis(2):
                if p.qwc_with(q):
                    assert p.commutes_with(q)

    def test_qwc_matches_per_qubit_dense_commutators(self):
        for p in all_paulis(2):
            for q in all_paulis(2):
                per_qubit = all(
                    np.allclose(dense_pauli(PauliProduct.from_label(p.axis(k)))
                                @ dense_pauli(PauliProduct.from_label(q.axis(k))),
                                dense_pauli(PauliProduct.from_label(q.axis(k)))
                                @ dense_pauli(PauliProduct.from_label(p.axis(k))),
                                atol=1e-12)
                    for k in range(2))
                assert p.qwc_with(q) == per_qubit


class TestHamiltonianIO:
    def test_single_term_with_header(self):
        h = parse_hamiltonian("qubits: 4\n0.1412 Z1\n")
        assert h.n_qubits == 4
        assert len(h.terms) == 1
        coeff, prod = h.terms[0]
        assert coeff == 0.1412
        assert prod.to_label() == "IZII"

    def test_constant_term(self):
        h = parse_hamiltonian("-0.4738 I\n1.0 Z0\n")
        assert h.terms[0][0] == -0.4738
        assert h.terms[0][1].weight() == 0

    def test_duplicate_terms_merge(self):
        h = parse_hamiltonian("1.0 X0\n0.5 X0\n")
        assert len(h.terms) == 1
        assert h.terms[0][0] == 1.5

    def test_subtolerance_terms_dropped(self):
        h = parse_hamiltonian("1.0 X0\n1e-13 Z0\n")
        assert len(h.terms) == 1

    def test_comments_and_blank_lines(self):
        h = parse_hamiltonian("# header\n\n1.0 X0  # inline\n")
        assert len(h.terms) == 1

    def test_qubit_count_inferred_from_max_index(self):
        assert parse_hamiltonian("1.0 Z5\n").n_qubits == 6

    def test_roundtrip(self):
        text = "qubits: 4\n-0.4738 I\n0.1412 Z1\n0.0558 X0 Z1 X2\n"
        h = parse_hamiltonian(text)
        again = parse_hamiltonian(serialize_hamiltonian(h))
        assert again == h

    @pytest.mark.parametrize("text", [
        "",
        "# only comments\n",
        "1.0 W0\n",
        "1.0 X0 X0\n",
        "abc X0\n",
        "1+2j X0\n",
        "nan X0\n",
        "qubits: 2\n1.0 X5\n",
        "1.0\n",
        "qubits: 2\nqubits: 3\n1.0 X0\n",
        "1.0 X99999999999999999999\n",
        f"1.0 X{MAX_QUBITS}\n",
        f"qubits: {MAX_QUBITS + 1}\n1.0 X0\n",
        "qubits: 2000000\n1.0 X0\n",
        "qubits: 0\n1.0 X0\n",
    ])
    def test_malformed_inputs_rejected(self, text):
        with pytest.raises(HamiltonianFormatError):
            parse_hamiltonian(text)

    def test_qubit_limit_is_inclusive(self):
        assert parse_hamiltonian(f"1.0 X{MAX_QUBITS - 1}\n").n_qubits == MAX_QUBITS
        assert parse_hamiltonian(f"qubits: {MAX_QUBITS}\n1.0 X0\n").n_qubits == MAX_QUBITS
        assert MAX_QUBITS > 200  # the widest fixture, test and bench input

    def test_non_real_coefficient_rejected_programmatically(self):
        with pytest.raises(ValueError):
            Hamiltonian.from_terms(1, [(1 + 2j, PauliProduct.identity(1))])

    def test_phaseful_term_rejected(self):
        with pytest.raises(ValueError):
            Hamiltonian.from_terms(1, [(1.0, PauliProduct.from_label("X", 1))])
