"""Acceptance suite: one test per criterion, one printed line per criterion.

Every tolerance is pinned here. Spectra are compared up to 10 qubits, the
cap of `measure verify`; the dense oracles of the tests (conjugation,
unitarity, circuit against the symbolic unitary up to phase, and
expectation values) run up to 6 qubits.
"""

import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import (all_paulis, assert_dense_oracles, build_unitary_symbolic,
                     equal_up_to_phase, group_basis, pauli_from_label,
                     product_expand_in_tau, random_commuting_group, sigma_product)
from paulimeasure import (CliqueCover, GroupPlan, MeasurementPlan, PauliProduct, build_graph,
                          cover_exact, cover_rlf, compute_cover, pipeline, synthesize,
                          transform_group, validate_cover)
from paulimeasure import gf2, verify
from paulimeasure.fixtures import (h2_commuting_group, h2_reference_basis,
                                   model_hamiltonian, model_reference_basis,
                                   six_term_hamiltonian)
from paulimeasure.pauli import count_compatible
from test_grouping import random_compat_graph


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL {label}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s"
    print(f"ACCEPTANCE {number} PASS {label} ({elapsed:.2f}s)")


def test_criterion_1_model_transform():
    with criterion(1, "model transform and symbolic unitary", 1.0):
        a, b = 0.7, -0.3
        h = model_hamiltonian(a, b)
        plan = pipeline(h, cover_rlf(build_graph(h, "fc")))
        assert len(plan.groups) == 1
        got = [(c, p.to_term_string())
               for c, p in plan.groups[0].transform.transformed.terms]
        assert got == [(a, "Z0"), (b, "X1")]

        expansion = build_unitary_symbolic(model_reference_basis())
        terms = {p.to_term_string(): c for c, p in expansion.terms}
        assert terms == {"X0": 0.5, "Z1": 0.5, "Z0 X1": 0.5, "Y0 Y1": -0.5}


def test_criterion_2_h2_fixture():
    with criterion(2, "H2 group transform and 16-term unitary", 1.0):
        basis = h2_reference_basis()
        out = transform_group(h2_commuting_group(), basis)
        got = {p.to_term_string(): c for c, p in out.transformed.terms}
        expected = {
            "I": -0.4738, "X1": 0.1412, "Y0 X1": 0.0558, "Y0 X2": -0.0868,
            "X1 X2": 0.0558, "Y0 X1 X2": -0.1425, "X1 X3": 0.1489,
            "Y0 X1 X3": 0.0558, "Y0 X2 X3": -0.0868, "X1 X2 X3": 0.0558,
            "Y0 X1 X2 X3": -0.1425,
        }
        assert set(got) == set(expected)
        for term, coeff in expected.items():
            assert got[term] == pytest.approx(coeff, abs=1e-4)

        expansion = build_unitary_symbolic(basis)
        got_u = {p.to_term_string(): c for c, p in expansion.terms}
        q = 0.25
        expected_u = {
            "X0 X1 X3": q, "X0 Z1 X3": q, "Y0 X1 X2 X3": q, "Y0 Z1 X2 X3": q,
            "X1 Y2 X3": q, "Z1 Y2 X3": q, "Z0 X1 Z2 X3": -q, "Z0 Z1 Z2 X3": -q,
            "X0 X1 Z3": q, "X0 Z1 Z3": q, "Y0 X1 X2 Z3": q, "Y0 Z1 X2 Z3": q,
            "X1 Y2 Z3": q, "Z1 Y2 Z3": q, "Z0 X1 Z2 Z3": -q, "Z0 Z1 Z2 Z3": -q,
        }
        assert got_u == expected_u


def test_criterion_3_eigenvalues_and_state_mapping():
    with criterion(3, "model eigenvalue table and Bell state mapping", 5.0):
        rng = np.random.default_rng(303)
        for _ in range(20):
            a, b = rng.uniform(-2, 2, size=2)
            spectrum = np.linalg.eigvalsh(verify.dense_matrix(model_hamiltonian(a, b)))
            expected = np.sort([a + b, -a + b, a - b, -a - b])
            assert np.max(np.abs(spectrum - expected)) < 1e-12

        # The device applies the circuit's inverse before measuring.
        circuit = synthesize(model_reference_basis())
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        target = np.array([1, 1, 0, 0]) / np.sqrt(2)
        out = verify.dense_matrix(circuit).conj().T @ bell
        assert equal_up_to_phase(out, target)


def test_criterion_4_minimum_clique_cover():
    with criterion(4, "six-term cover: minimum vs legal non-minimum", 1.0):
        h = six_term_hamiltonian()
        graph = build_graph(h, "fc")
        reference = {frozenset({0, 1, 2}), frozenset({3, 4, 5})}
        for cover in (cover_rlf(graph), cover_exact(graph)):
            assert set(map(frozenset, cover.groups)) == reference
            assert validate_cover(h, cover, "fc").valid
        three = CliqueCover("fc", "manual", ((0, 3), (1, 2), (4, 5)))
        assert validate_cover(h, three, "fc").valid
        assert cover_exact(graph).group_count < three.group_count


def test_criterion_5_compatibility_counting():
    with criterion(5, "exhaustive QWC/commuting census", 10.0):
        for n in (4, 8):
            template = PauliProduct.from_term_string(
                " ".join(f"X{q}" for q in range(n // 4, n)), n)
            counts = count_compatible(template)
            assert counts["n_qwc"] == 2 ** (5 * n // 4)
            assert counts["n_commuting"] == 2 ** (2 * n - 1)
            assert counts["n_commuting"] // counts["n_qwc"] == 2 ** (3 * n // 4 - 1)


def test_criterion_6_randomized_pipeline_stress():
    with criterion(6, "200 random commuting groups end to end", 120.0):
        rng = random.Random(606)
        for case in range(200):
            n = rng.randint(1, 8)
            group = random_commuting_group(n, rng)
            basis = group_basis(group)
            basis.validate(group)
            out = transform_group(group, basis)

            prods = out.transformed.products()
            for i in range(len(prods)):
                for j in range(i + 1, len(prods)):
                    assert prods[i].qwc_with(prods[j])
            for (c_in, p_in), (c_out, p_out) in zip(group.terms, out.transformed.terms):
                indices, sign = product_expand_in_tau(p_in, basis)
                assert (c_out, p_out) == (c_in * sign, sigma_product(basis, indices))

            assert verify.spectra_equal(group, out.transformed)

            if n <= 6:
                assert_dense_oracles(group, MeasurementPlan(
                    n, (GroupPlan(out, synthesize(basis)),)))


def test_criterion_7_oracle_cross_checks():
    with criterion(7, "dense truth tables and exact-vs-heuristic covers", 30.0):
        for p in all_paulis(2):
            mp = verify.dense_pauli(p)
            for q in all_paulis(2):
                mq = verify.dense_pauli(q)
                dense_commutes = np.allclose(mp @ mq, mq @ mp, atol=1e-12)
                dense_anti = np.allclose(mp @ mq, -mq @ mp, atol=1e-12)
                assert p.commutes_with(q) == dense_commutes
                inner = gf2.symplectic_inner(p.packed, q.packed, 2)
                assert (inner == 1) == dense_anti
                per_qubit = all(
                    np.allclose(
                        verify.dense_pauli(pauli_from_label(p.axis(k)))
                        @ verify.dense_pauli(pauli_from_label(q.axis(k))),
                        verify.dense_pauli(pauli_from_label(q.axis(k)))
                        @ verify.dense_pauli(pauli_from_label(p.axis(k))),
                        atol=1e-12)
                    for k in range(2))
                assert p.qwc_with(q) == per_qubit

        rng = random.Random(707)
        for _ in range(30):
            graph = random_compat_graph(12, rng)
            best = cover_exact(graph).group_count
            for method in ("dsatur", "rlf"):
                assert best <= compute_cover(graph, method).group_count
