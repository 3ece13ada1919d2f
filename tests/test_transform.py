"""Tau/sigma construction, term expansion, group transformation, pipeline."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (pairwise_validate, random_commuting_group, random_isotropic,
                     random_pauli, solve_expansion)
from paulimeasure import (Hamiltonian, PauliProduct, TauSigmaBasis, TransformError,
                          build_graph, build_unitary_symbolic, cover_rlf,
                          expand_in_tau, find_sigma, find_tau, parse_hamiltonian,
                          pipeline, plan_from_dict, plan_to_dict, transform_group)
from paulimeasure import gf2, verify
from paulimeasure.fixtures import (h2_commuting_group, h2_reference_basis,
                                   model_hamiltonian, model_reference_basis,
                                   six_term_hamiltonian)


def tau_vectors(taus):
    return [t.packed for t in taus]


def assert_valid_tau_set(taus, group):
    n = group.n_qubits
    vecs = tau_vectors(taus)
    assert gf2.is_lagrangian(vecs, n)
    for _, prod in group.terms:
        assert all(prod.commutes_with(t) for t in taus)


class TestFindTau:
    def test_h2_group_yields_valid_lagrangian(self):
        h = h2_commuting_group()
        taus = find_tau(h)
        assert len(taus) == 4
        assert_valid_tau_set(taus, h)

    def test_model_group_already_lagrangian(self):
        h = model_hamiltonian()
        taus = find_tau(h)
        assert set(t.to_term_string() for t in taus) == {"X0 X1", "Z0 Z1"}

    def test_single_qubit_group(self):
        h = parse_hamiltonian("1.0 Z0\n")
        assert [t.to_term_string() for t in find_tau(h)] == ["Z0"]

    def test_constant_only_group(self):
        h = parse_hamiltonian("qubits: 2\n1.0 I\n")
        taus = find_tau(h)
        assert_valid_tau_set(taus, h)

    def test_non_commuting_input_rejected(self):
        # span rank above, equal to and below the qubit count
        for text in ("1.0 X0\n1.0 Z0\n", "qubits: 2\n1.0 X0\n1.0 Z0\n",
                     "qubits: 4\n1.0 X0 X1\n1.0 Z0 Z1\n1.0 Z1 Z2\n1.0 I\n"):
            with pytest.raises(ValueError, match="do not commute"):
                find_tau(parse_hamiltonian(text))


class TestFindSigma:
    def test_model_sigma_assignment(self):
        basis = find_sigma(find_tau(model_hamiltonian()))
        assert basis.sigmas == ((0, "Z"), (1, "X"))
        assert [t.to_term_string() for t in basis.taus] == ["X0 X1", "Z0 Z1"]

    def test_reference_h2_taus_produce_valid_basis(self):
        basis = find_sigma(h2_reference_basis().taus)
        basis.validate(h2_commuting_group())

    def test_single_qubit_rule(self):
        basis = find_sigma([PauliProduct.from_term_string("Z0", 1)])
        assert basis.sigmas == ((0, "X"),)

    def test_axis_rule_is_fixed(self):
        for tau_axis, sigma_axis in (("X", "Z"), ("Y", "X"), ("Z", "X")):
            basis = find_sigma([PauliProduct.from_term_string(f"{tau_axis}0", 1)])
            assert basis.sigmas == ((0, sigma_axis),)

    def test_invalid_tau_input_rejected(self):
        with pytest.raises(ValueError):
            find_sigma([PauliProduct.from_term_string("X0", 2)])
        with pytest.raises(ValueError):
            find_sigma([PauliProduct.from_term_string("X0", 1),
                        PauliProduct.from_term_string("Z0", 1)])

    def test_random_lagrangians_produce_valid_bases(self):
        rng = random.Random(101)
        for _ in range(50):
            n = rng.randint(1, 8)
            h = random_commuting_group(n, rng)
            basis = find_sigma(find_tau(h))
            basis.validate(h)


class TestExpandInTau:
    def test_h2_two_tau_selection(self):
        basis = h2_reference_basis()
        term = PauliProduct.from_term_string("Z1 Z3", 4)
        assert expand_in_tau(term, basis) == ((0, 1), 1)

    def test_tau_expands_to_itself(self):
        basis = h2_reference_basis()
        for j, tau in enumerate(basis.taus):
            assert expand_in_tau(tau, basis) == ((j,), 1)

    def test_identity_expands_to_empty_set(self):
        basis = model_reference_basis()
        assert expand_in_tau(PauliProduct.identity(2), basis) == ((), 1)

    def test_negative_phase_case(self):
        # Z0 Z2 = (Y0 Y2)(X0 X2) with two -i factors, hence p = -1
        basis = h2_reference_basis()
        term = PauliProduct.from_term_string("Z0 Z2", 4)
        assert expand_in_tau(term, basis) == ((2, 3), -1)

    def test_term_outside_span_rejected(self):
        basis = model_reference_basis()
        with pytest.raises(TransformError, match="tau-span"):
            expand_in_tau(PauliProduct.from_term_string("X0", 2), basis)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 16), st.integers(0, 2**32 - 1))
    def test_read_off_matches_gf2_solve(self, n, seed):
        rng = random.Random(seed)
        basis = find_sigma([PauliProduct.from_packed(v, n)
                            for v in random_isotropic(n, n, rng)])
        for _ in range(10):
            if rng.random() < 0.3:
                term = random_pauli(n, rng, phase=True)
            else:
                term = PauliProduct(n, 0, 0, rng.randrange(4))
                for k in range(n):
                    if rng.getrandbits(1):
                        term = term * basis.taus[k]
            try:
                want = solve_expansion(term, basis)
            except ValueError:
                with pytest.raises(TransformError):
                    expand_in_tau(term, basis)
            else:
                assert expand_in_tau(term, basis) == want


class TestTransformGroup:
    def test_model_becomes_single_qubit_pair(self):
        h = model_hamiltonian(0.25, -1.5)
        out = transform_group(h, find_sigma(find_tau(h)))
        assert [(c, p.to_term_string()) for c, p in out.transformed.terms] == \
            [(0.25, "Z0"), (-1.5, "X1")]

    def test_h2_reference_basis_reproduces_reference_group(self):
        out = transform_group(h2_commuting_group(), h2_reference_basis())
        got = {p.to_term_string(): c for c, p in out.transformed.terms}
        expected = {
            "I": -0.4738, "X1": 0.1412, "Y0 X1": 0.0558, "Y0 X2": -0.0868,
            "X1 X2": 0.0558, "Y0 X1 X2": -0.1425, "X1 X3": 0.1489,
            "Y0 X1 X3": 0.0558, "Y0 X2 X3": -0.0868, "X1 X2 X3": 0.0558,
            "Y0 X1 X2 X3": -0.1425,
        }
        assert set(got) == set(expected)
        for key, value in expected.items():
            assert got[key] == pytest.approx(value, abs=1e-4)

    def test_constant_term_passes_through(self):
        h = parse_hamiltonian("qubits: 2\n0.5 I\n")
        out = transform_group(h, model_reference_basis())
        assert out.transformed.terms == ((0.5, PauliProduct.identity(2)),)
        assert out.expansions == (((), 1),)

    def test_coefficient_magnitudes_and_signs(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 6)
            h = random_commuting_group(n, rng)
            out = transform_group(h, find_sigma(find_tau(h)))
            for (c_in, _), (c_out, _), (_, p) in zip(h.terms,
                                                     out.transformed.terms,
                                                     out.expansions):
                assert p in (1, -1)
                assert c_out == c_in * p

    def test_output_is_qwc(self):
        rng = random.Random(6)
        for _ in range(20):
            h = random_commuting_group(rng.randint(1, 8), rng)
            out = transform_group(h, find_sigma(find_tau(h)))
            prods = out.transformed.products()
            for i in range(len(prods)):
                for j in range(i + 1, len(prods)):
                    assert prods[i].qwc_with(prods[j])


class TestSymbolicUnitary:
    def test_model_four_term_expansion(self):
        ps = build_unitary_symbolic(model_reference_basis())
        got = {p.to_term_string(): c for c, p in ps.terms}
        assert got == {"Y0 Y1": -0.5, "Z1": 0.5, "X0": 0.5, "Z0 X1": 0.5}

    def test_model_expansion_matches_dense_product(self):
        ps = build_unitary_symbolic(model_reference_basis())
        n = 2
        factor = lambda a, b: (verify.dense_matrix(PauliProduct.from_term_string(a, n))
                               + verify.dense_matrix(PauliProduct.from_term_string(b, n)))
        expected = factor("X0 X1", "Z0") @ factor("Z0 Z1", "X1") / 2.0
        np.testing.assert_allclose(verify.dense_matrix(ps), expected, atol=1e-12)

    def test_h2_sixteen_term_expansion(self):
        ps = build_unitary_symbolic(h2_reference_basis())
        assert len(ps.terms) == 16
        assert all(c in (0.25, -0.25) for c, _ in ps.terms)

    def test_single_qubit_hadamard_like(self):
        basis = find_sigma([PauliProduct.from_term_string("Z0", 1)])
        ps = build_unitary_symbolic(basis)
        got = {p.to_term_string(): c for c, p in ps.terms}
        s = 2.0 ** -0.5
        assert got == {"Z0": s, "X0": s}

    def test_size_bound(self):
        rng = random.Random(9)
        h = random_commuting_group(9, rng)
        basis = find_sigma(find_tau(h))
        with pytest.raises(ValueError):
            build_unitary_symbolic(basis)

    def test_unitary_and_conjugation_both_directions(self):
        rng = random.Random(55)
        bases = [model_reference_basis(), h2_reference_basis()]
        bases += [find_sigma(find_tau(random_commuting_group(rng.randint(1, 6), rng)))
                  for _ in range(10)]
        for basis in bases:
            u = verify.dense_matrix(build_unitary_symbolic(basis))
            dim = u.shape[0]
            np.testing.assert_allclose(u @ u.conj().T, np.eye(dim), atol=1e-10)
            for i in range(basis.n_qubits):
                t = verify.dense_matrix(basis.taus[i])
                s = verify.dense_matrix(basis.sigma_product(i))
                np.testing.assert_allclose(u.conj().T @ t @ u, s, atol=1e-10)
                np.testing.assert_allclose(u @ t @ u.conj().T, s, atol=1e-10)


class TestPipeline:
    def test_six_term_two_groups(self):
        h = six_term_hamiltonian()
        plan = pipeline(h, cover_rlf(build_graph(h, "fc")))
        assert len(plan.groups) == 2
        for entry in plan.groups:
            prods = entry.transform.transformed.products()
            for i in range(len(prods)):
                for j in range(i + 1, len(prods)):
                    assert prods[i].qwc_with(prods[j])

    def test_single_term_hamiltonian(self):
        h = parse_hamiltonian("1.0 Z0 Z1\n")
        plan = pipeline(h, cover_rlf(build_graph(h, "fc")))
        assert len(plan.groups) == 1
        assert plan.groups[0].transform.transformed.terms[0][0] == 1.0

    def test_invalid_cover_rejected(self):
        from paulimeasure import CliqueCover
        h = parse_hamiltonian("1.0 X0\n1.0 Z0\n")
        bad = CliqueCover("fc", "manual", ((0, 1),))
        with pytest.raises(ValueError, match="cover invalid"):
            pipeline(h, bad)

    def test_spectrum_and_expectation_preserved(self):
        h = six_term_hamiltonian()
        plan = pipeline(h, cover_rlf(build_graph(h, "fc")))
        rng = np.random.default_rng(42)
        for entry in plan.groups:
            sub = Hamiltonian(h.n_qubits,
                              tuple(h.terms[i] for i in entry.transform.term_indices))
            assert verify.spectra_equal(sub, entry.transform.transformed, tol=1e-9)
            u = verify.dense_matrix(build_unitary_symbolic(entry.transform.basis))
            dev = verify.expectation_invariance(sub, entry.transform.transformed, u,
                                                trials=50, rng=rng)
            assert dev < 1e-9

    def test_plan_json_roundtrip(self):
        h = six_term_hamiltonian()
        plan = pipeline(h, cover_rlf(build_graph(h, "fc")))
        blob = json.dumps(plan_to_dict(plan))
        loaded = plan_from_dict(json.loads(blob))
        assert loaded.n_qubits == plan.n_qubits
        for a, b in zip(plan.groups, loaded.groups):
            assert a.transform.term_indices == b.transform.term_indices
            assert a.transform.basis.taus == b.transform.basis.taus
            assert a.transform.basis.sigmas == b.transform.basis.sigmas
            assert a.transform.transformed == b.transform.transformed
            # exponent bookkeeping is not part of the wire format
            assert a.circuit.gates == b.circuit.gates
            assert a.circuit.global_phase_exp == b.circuit.global_phase_exp
            assert a.circuit.n_qubits == b.circuit.n_qubits


def validate_outcome(check) -> str | None:
    try:
        check()
    except ValueError as exc:
        return str(exc)
    return None


class TestBasisValidate:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.integers(0, 5))
    def test_first_violation_matches_pairwise_reference(self, n, seed, kind):
        rng = random.Random(seed)
        group = random_commuting_group(n, rng)
        basis = find_sigma(find_tau(group))
        taus, sigmas = list(basis.taus), list(basis.sigmas)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0:
            taus[i] = random_pauli(n, rng)
        elif kind == 1:
            sigmas[i] = (sigmas[i][0], rng.choice("XYZ"))
        elif kind == 2:
            rng.shuffle(sigmas)
        elif kind == 3:
            taus[i] = PauliProduct.from_packed((taus[i] * taus[j]).packed, n)
        elif kind == 4:
            group = Hamiltonian(n, group.terms + ((1.0, random_pauli(n, rng)),))
        corrupted = TauSigmaBasis(n, tuple(taus), tuple(sigmas))
        for g in (None, group):
            assert (validate_outcome(lambda: corrupted.validate(g))
                    == validate_outcome(lambda: pairwise_validate(corrupted, g)))

    def test_rejects_commuting_sigma(self):
        n = 2
        with pytest.raises(ValueError, match="anticommute"):
            TauSigmaBasis(n,
                          (PauliProduct.from_term_string("X0 X1", n),
                           PauliProduct.from_term_string("Z0 Z1", n)),
                          ((0, "X"), (1, "X"))).validate()

    def test_rejects_duplicate_sigma_qubits(self):
        n = 2
        with pytest.raises(ValueError, match="distinct"):
            TauSigmaBasis(n,
                          (PauliProduct.from_term_string("X0 X1", n),
                           PauliProduct.from_term_string("Z0 Z1", n)),
                          ((0, "Z"), (0, "Y"))).validate()

    def test_rejects_non_lagrangian_taus(self):
        n = 2
        with pytest.raises(ValueError, match="Lagrangian"):
            TauSigmaBasis(n,
                          (PauliProduct.from_term_string("X0", n),
                           PauliProduct.from_term_string("Z0", n)),
                          ((0, "Z"), (1, "X"))).validate()

    def test_rejects_group_term_outside_commutant(self):
        basis = model_reference_basis()
        group = parse_hamiltonian("qubits: 2\n1.0 X0\n")
        with pytest.raises(ValueError, match="anticommutes"):
            basis.validate(group)
