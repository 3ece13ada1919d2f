"""Dense matrices, compatibility census, circuit simulation, the tableau
row of the check suite, and the dense oracles on small plans."""

import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (PauliSum, all_paulis, assert_dense_oracles, build_unitary_symbolic,
                     count_column_builds, embedded_group, inverse_circuit, kron_circuit,
                     kron_pauli, looped_expectation_invariance, group_basis, pauli_from_label,
                     per_term_dense_sum, random_commuting_group, random_graph_hamiltonian,
                     random_state)
from paulimeasure import (CliffordCircuit, Gate, GroupPlan, Hamiltonian,
                          MeasurementPlan, PauliProduct, build_graph, cover_dsatur,
                          cover_rlf, TauSigmaBasis, TransformedGroup, parse_hamiltonian,
                          pipeline, plan_from_dict, plan_to_dict, synthesize, transform_group)
from paulimeasure import verify
from paulimeasure.circuits import GATE_NAMES
from paulimeasure.fixtures import model_hamiltonian, model_reference_basis
from paulimeasure.pauli import count_compatible


class TestDenseMatrix:
    def test_single_z(self):
        m = verify.dense_matrix(PauliProduct.from_term_string("Z0", 1))
        np.testing.assert_array_equal(m, np.diag([1, -1]).astype(complex))

    def test_qubit_zero_is_leftmost_factor(self):
        m = verify.dense_matrix(PauliProduct.from_term_string("X0 Y1", 2))
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]])
        np.testing.assert_array_equal(m, np.kron(sx, sy))

    def test_phase_factor_included(self):
        p = pauli_from_label("X", phase_exp=3)
        np.testing.assert_allclose(
            verify.dense_matrix(p),
            -1j * np.array([[0, 1], [1, 0]]), atol=1e-15)

    def test_signed_permutation_equals_kronecker_reference(self):
        for n in (1, 2, 3):
            for p in all_paulis(n):
                for phase in range(4):
                    q = PauliProduct(n, p.x, p.z, phase)
                    np.testing.assert_array_equal(verify.dense_pauli(q), kron_pauli(q))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.builds(
        PauliProduct, st.just(n), st.integers(0, (1 << n) - 1),
        st.integers(0, (1 << n) - 1), st.integers(0, 3))))
    def test_signed_permutation_equals_kronecker_reference_sampled(self, p):
        np.testing.assert_array_equal(verify.dense_pauli(p), kron_pauli(p))

    def test_model_eigenvalues(self):
        m = verify.dense_matrix(model_hamiltonian(1.0, 1.0))
        np.testing.assert_allclose(np.linalg.eigvalsh(m), [-2, 0, 0, 2], atol=1e-12)

    def test_hamiltonian_matrices_hermitian(self):
        rng = random.Random(3)
        for _ in range(10):
            h = random_commuting_group(rng.randint(1, 5), rng)
            m = verify.dense_matrix(h)
            assert np.max(np.abs(m - m.conj().T)) < 1e-12

    def test_paulis_unitary_and_hermitian(self):
        for p in all_paulis(2):
            m = verify.dense_matrix(p)
            np.testing.assert_allclose(m @ m.conj().T, np.eye(4), atol=1e-12)
            np.testing.assert_allclose(m, m.conj().T, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_sum_equals_per_term_reference(self, data):
        # few x patterns, so terms share their entries; PauliSum terms carry
        # complex coefficients and phases
        n = data.draw(st.integers(1, 7))
        complex_sum = data.draw(st.booleans())
        x_patterns = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                                        max_size=3))
        coeff = st.floats(-10, 10, allow_nan=False)
        if complex_sum:
            coeff = st.builds(complex, coeff, coeff)
        terms = data.draw(st.lists(st.tuples(
            coeff, st.builds(PauliProduct, st.just(n), st.sampled_from(x_patterns),
                             st.integers(0, (1 << n) - 1),
                             st.integers(0, 3 if complex_sum else 0))), max_size=40))
        obj = (PauliSum if complex_sum else Hamiltonian)(n, tuple(terms))
        assert np.array_equal(verify.dense_matrix(obj), per_term_dense_sum(obj))

    def test_empty_sum_is_zero(self):
        for obj in (Hamiltonian(3, ()), PauliSum(3, ())):
            m = verify.dense_matrix(obj)
            assert m.shape == (8, 8) and not m.any()

    def test_qubit_cap(self):
        with pytest.raises(verify.DimensionError):
            verify.dense_matrix(PauliProduct.identity(13))
        with pytest.raises(verify.DimensionError):
            verify.dense_matrix(Hamiltonian(13, ()))

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            verify.dense_matrix("ZZ")


def restated(entry: GroupPlan, basis=None, transformed=None) -> GroupPlan:
    """entry with its basis or its transformed group replaced."""
    t = entry.transform
    return GroupPlan(TransformedGroup(t.term_indices, basis or t.basis,
                                      transformed or t.transformed), entry.circuit)


def pair_entry() -> tuple[Hamiltonian, GroupPlan]:
    group = parse_hamiltonian("qubits: 3\n1.0 X0 X1\n0.5 Z0 Z1\n")
    return group, one_group_plan(group).groups[0]


def repeated_sigma_qubit():
    group, entry = pair_entry()
    (q, a), (_, b) = entry.transform.basis.sigmas
    basis = TauSigmaBasis(3, entry.transform.basis.taus, ((q, a), (q, b)))
    return group, restated(entry, basis=basis), "sigma qubits must be pairwise distinct"


def swapped_sigmas():
    group, entry = pair_entry()
    basis = entry.transform.basis
    swapped = TauSigmaBasis(3, basis.taus, basis.sigmas[::-1])
    return group, restated(entry, basis=swapped), (
        "sigma_0 does not anticommute with tau_0 alone")


def anticommuting_taus():
    # X0 and Z0 X1, each one tau, stated as Z0 and Z1: every other step
    # holds, yet the two sums have different spectra
    h = parse_hamiltonian("1.0 X0\n0.5 Z0 X1\n")
    taus = tuple(p for _, p in h.terms)
    basis = TauSigmaBasis(2, taus, ((0, "Z"), (1, "Z")))
    stated = parse_hamiltonian("1.0 Z0\n0.5 Z1\n")
    assert not verify.spectra_equal(h, stated)
    entry = GroupPlan(TransformedGroup((0, 1), basis, stated), CliffordCircuit(2, ()))
    return h, entry, "tau_0 anticommutes with tau_1"


def extra_stated_constant():
    group, entry = pair_entry()
    stated = entry.transform.transformed
    extra = Hamiltonian(3, stated.terms + ((0.25, PauliProduct.identity(3)),))
    return group, restated(entry, transformed=extra), "3 transformed terms for 2 terms"


def term_on_a_qubit_without_a_sigma():
    # the basis of X0 X1 and Z0 Z1 has no sigma on qubit 2, where the
    # second term gains a Z
    _, entry = pair_entry()
    wider = parse_hamiltonian("qubits: 3\n1.0 X0 X1\n0.5 Z0 Z1 Z2\n")
    return wider, entry, ("term 1 (Z0 Z1 Z2) is not +/- the product of the taus whose "
                          "sigmas anticommute with it")


MALFORMED_GROUPS = {f.__name__: f for f in (
    repeated_sigma_qubit, swapped_sigmas, anticommuting_taus, extra_stated_constant,
    term_on_a_qubit_without_a_sigma)}


class TestSpectra:
    def test_equal_to_itself(self):
        h = model_hamiltonian(0.3, 0.9)
        assert verify.spectra_equal(h, h)

    def test_model_matches_transformed_pair(self):
        h = model_hamiltonian(0.7, -0.3)
        a = parse_hamiltonian("qubits: 2\n0.7 Z0\n-0.3 X1\n")
        assert verify.spectra_equal(h, a)

    def test_detects_difference(self):
        h = model_hamiltonian(0.7, -0.3)
        a = parse_hamiltonian("qubits: 2\n0.7001 Z0\n-0.3 X1\n")
        assert not verify.spectra_equal(h, a)

    @staticmethod
    def solver_dtypes(monkeypatch) -> list:
        """The dtype of every matrix that reaches np.linalg.eigvalsh."""
        seen = []
        solve = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: seen.append(m.dtype) or solve(m))
        return seen

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_real_solver_matches_the_complex_solver(self, data):
        # every term has an even number of Ys, so the matrix is real
        n = data.draw(st.integers(1, 6))
        axes = st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))
        terms = data.draw(st.lists(st.tuples(
            st.floats(-1, 1, allow_nan=False),
            axes.filter(lambda xz: (xz[0] & xz[1]).bit_count() % 2 == 0)), max_size=12))
        h = Hamiltonian.from_terms(n, [(c, PauliProduct(n, x, z)) for c, (x, z) in terms])
        m = verify.dense_matrix(h)
        assert not m.imag.any()
        real, full = np.linalg.eigvalsh(m.real), np.linalg.eigvalsh(m)
        assert np.max(np.abs(real - full)) <= 1e-12

    def test_real_matrices_take_the_real_solver(self, monkeypatch):
        seen = self.solver_dtypes(monkeypatch)
        a = parse_hamiltonian("qubits: 2\n0.7 Z0\n-0.3 X1\n")
        assert verify.spectra_equal(model_hamiltonian(0.7, -0.3), a)
        assert seen == [np.float64, np.float64]

    def test_odd_y_term_takes_the_complex_solver(self, monkeypatch):
        # S on qubit 0 maps X0 to Y0 and fixes Z0, so the first two share a
        # spectrum; the real part of the Y0 matrix alone does not
        seen = self.solver_dtypes(monkeypatch)
        h = parse_hamiltonian("1.0 Y0\n0.5 Z0 X1\n")
        assert verify.spectra_equal(h, parse_hamiltonian("1.0 X0\n0.5 Z0 X1\n"))
        assert seen == [np.complex128, np.float64]
        assert not verify.spectra_equal(h, parse_hamiltonian("1.0 Y0\n0.6 Z0 X1\n"))
        assert seen[2:] == [np.complex128, np.complex128]

    # The spectra row of the check suite, which proves the stated group the
    # image of the group under tau_i -> sigma_i; the dense spectra above are
    # its oracle.

    def test_y_carrying_group_passes(self):
        # Qubit 2 uses only X, so X2 is a tau with sigma Z2. Without it the
        # terms reduce to X0 Z1 and Z0 Y1; the first sigma is Z0 and the
        # second X1, which turns X0 Z1 into Y0 X1. So Y0 X1 is tau_1 and
        # becomes Z0, and X0 Z1 X2 = -tau_0 tau_1 tau_2 becomes -Z0 X1 Z2.
        h = parse_hamiltonian("qubits: 3\n0.5 Y0 X1\n-0.25 X0 Z1 X2\n")
        plan = pipeline(h, cover_rlf(build_graph(h, "fc")))
        assert plan.groups[0].transform.basis.sigmas == ((2, "Z"), (0, "Z"), (1, "X"))
        transformed = plan.groups[0].transform.transformed
        assert transformed == parse_hamiltonian("qubits: 3\n0.5 Z0\n0.25 Z0 X1 Z2\n")
        assert rows(h, plan)[SPECTRA] == ("pass", "")
        assert verify.spectra_equal(h, transformed)

    def test_tampered_non_qwc_image_fails_with_a_mismatch(self):
        # Z0 X1 Z2 becomes X0, which clashes with Z0 and moves the spectrum
        h = parse_hamiltonian("qubits: 3\n0.5 Y0 X1\n-0.25 X0 Z1 X2\n")
        entry = pipeline(h, cover_rlf(build_graph(h, "fc"))).groups[0]
        (c0, p0), (c1, _) = entry.transform.transformed.terms
        tampered = Hamiltonian(3, ((c0, p0), (c1, PauliProduct.from_term_string("X0", 3))))
        got = rows(h, MeasurementPlan(3, (restated(entry, transformed=tampered),)))
        assert got[SPECTRA] == ("fail", "group 0: term 1 (-0.25 X0 Z1 X2) maps to -Z0 X1 Z2 "
                                "under tau_i -> sigma_i, plan states 0.25 X0")
        assert got[QWC][0] == "fail"
        assert not verify.spectra_equal(h, tampered)

    def test_equal_spectra_not_stated_as_the_image_fail(self):
        # X0 X1 and Z0 Z1 stated as themselves share the group's spectrum,
        # but tau_i -> sigma_i does not map the group onto them: the row is a
        # sufficient condition for equal spectra, not a necessary one
        group = parse_hamiltonian("0.5 X0 X1\n-0.25 Z0 Z1\n")
        entry = restated(one_group_plan(group).groups[0], transformed=group)
        status, detail = rows(group, MeasurementPlan(2, (entry,)))[SPECTRA]
        assert verify.spectra_equal(group, group)
        assert status == "fail"
        assert detail.startswith("group 0: term 0 (0.5 X0 X1) maps to ")
        assert detail.endswith(" under tau_i -> sigma_i, plan states 0.5 X0 X1")

    def test_group_of_constants_passes(self):
        h = parse_hamiltonian("qubits: 3\n0.5 I\n")
        plan = pipeline(h, cover_rlf(build_graph(h, "fc")))
        assert plan.groups[0].transform.basis.taus == ()
        assert rows(h, plan)[SPECTRA] == ("pass", "")

    @pytest.mark.parametrize("case", list(MALFORMED_GROUPS))
    def test_malformed_group_fails_with_a_detail(self, case):
        """Plans that `measure transform` never writes fail the row with a
        detail, not a crash."""
        h, entry, detail = MALFORMED_GROUPS[case]()
        got = rows(h, MeasurementPlan(h.n_qubits, (entry,)))
        assert got[SPECTRA] == ("fail", f"group 0: {detail}")
        if case == "term_on_a_qubit_without_a_sigma":
            assert got[BASIS] == ("fail", "group 0: group term 1 acts on qubit 2, "
                                  "which has no sigma")

    def test_reads_neither_the_circuit_nor_conjugate_columns(self, monkeypatch):
        group = random_commuting_group(5, random.Random(97))
        entry = one_group_plan(group).groups[0]

        def refuse(*args):
            raise AssertionError("conjugate_columns called")

        monkeypatch.setattr(verify, "conjugate_columns", refuse)
        assert verify._check_spectra(group, GroupPlan(entry.transform, None)) is None

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.booleans(),
           st.sampled_from(["terms", "coefficients", "taus", "sigmas"]),
           st.integers(0, 2**32 - 1))
    def test_a_pass_implies_equal_dense_spectra(self, n, local, kind, seed):
        """One tampering of a group's stated terms, coefficients, taus or
        sigmas; wherever the row still passes, the dense matrices of the
        group and of its stated group have equal spectra."""
        rng = random.Random(seed)
        group = (embedded_group(rng.randint(1, n - 1), n, rng) if local and n > 1
                 else random_commuting_group(n, rng))
        entry = one_group_plan(group).groups[0]
        basis, stated = entry.transform.basis, list(entry.transform.transformed.terms)
        k = rng.randrange(len(stated))
        c, p = stated[k]
        if kind == "terms":
            stated[k] = (c, rng.choice([
                PauliProduct(n, rng.getrandbits(n), rng.getrandbits(n)),
                PauliProduct(n, p.x, p.z ^ 1 << rng.randrange(n)),
                rng.choice(stated)[1]]))
        elif kind == "coefficients":
            coeffs = [c for c, _ in stated]
            rng.shuffle(coeffs)
            stated = rng.choice([[(d, q) for d, (_, q) in zip(coeffs, stated)],
                                 stated[:k] + [(-c, p)] + stated[k + 1:],
                                 stated[:k] + [(c + 1e-3, p)] + stated[k + 1:]])
        elif kind == "taus" and basis.taus:
            taus = list(basis.taus)
            i = rng.randrange(len(taus))
            t = taus[i] * rng.choice([rng.choice(taus),
                                      PauliProduct(n, rng.getrandbits(n), rng.getrandbits(n))])
            taus[i] = PauliProduct(n, t.x, t.z, rng.choice([0, t.phase_exp]))
            basis = TauSigmaBasis(n, tuple(taus), basis.sigmas)
        elif kind == "sigmas" and basis.sigmas:
            sigmas = list(basis.sigmas)
            i = rng.randrange(len(sigmas))
            sigmas[i] = (rng.choice([sigmas[i][0], rng.randrange(n)]), rng.choice("XYZ"))
            basis = TauSigmaBasis(n, basis.taus, tuple(sigmas))
        entry = restated(entry, basis, Hamiltonian(n, tuple(stated)))
        status, _ = rows(group, MeasurementPlan(n, (entry,)))[SPECTRA]
        if status == "pass":
            assert verify.spectra_equal(group, entry.transform.transformed)


class TestCountCompatible:
    def test_average_template_n4(self):
        template = PauliProduct.from_term_string("X1 X2 X3", 4)
        counts = count_compatible(template)
        assert counts == {"n_qwc": 32, "n_commuting": 128}

    def test_identity_template(self):
        counts = count_compatible(PauliProduct.identity(3))
        assert counts == {"n_qwc": 4 ** 3, "n_commuting": 4 ** 3}

    def test_average_template_n8_and_ratio(self):
        template = PauliProduct.from_term_string(
            " ".join(f"X{q}" for q in range(2, 8)), 8)
        counts = count_compatible(template)
        assert counts == {"n_qwc": 1024, "n_commuting": 32768}
        assert counts["n_commuting"] // counts["n_qwc"] == 2 ** (3 * 8 // 4 - 1)

    def test_cap(self):
        with pytest.raises(ValueError, match="^enumeration limited to 8 qubits$"):
            count_compatible(PauliProduct.identity(9))


@st.composite
def circuits(draw):
    """Random circuits; CNOT qubit pairs come in either order, at any distance."""
    n = draw(st.integers(1, 6))
    names = [name for name in GATE_NAMES if n > 1 or name != "CNOT"]
    gates = []
    for name in draw(st.lists(st.sampled_from(names), max_size=16)):
        k = 2 if name == "CNOT" else 1
        qubits = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k,
                               unique=True))
        gates.append(Gate(name, tuple(qubits)))
    return CliffordCircuit(n, tuple(gates), draw(st.integers(0, 7)))


class TestSimulateCircuit:
    """verify.dense_circuit: the gates applied in order to the identity."""

    def test_empty_circuit(self):
        np.testing.assert_array_equal(verify.dense_circuit(CliffordCircuit(2, ())),
                                      np.eye(4))

    def test_model_circuit_maps_bell_to_product_state(self):
        circuit = synthesize(model_reference_basis())
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        out = verify.dense_circuit(circuit) @ bell
        target = np.array([1, 1, 0, 0]) / np.sqrt(2)
        np.testing.assert_allclose(out, target, rtol=0, atol=1e-10)

    def test_norm_preserved(self):
        rng = np.random.default_rng(5)
        u = verify.dense_circuit(synthesize(model_reference_basis()))
        for _ in range(10):
            assert abs(np.linalg.norm(u @ random_state(2, rng)) - 1.0) < 1e-12

    def test_circuit_then_inverse_is_identity(self):
        circuit = synthesize(group_basis(random_commuting_group(3, random.Random(11))))
        u, inverse = (verify.dense_circuit(c) for c in (circuit, inverse_circuit(circuit)))
        np.testing.assert_allclose(inverse @ u, np.eye(8), rtol=0, atol=1e-10)

    def test_reversed_cnot_order_and_nonadjacent_qubits(self):
        for gates in ((Gate("CNOT", (1, 0)),),
                      (Gate("CNOT", (2, 0)), Gate("H", (1,)), Gate("CNOT", (0, 2)))):
            circuit = CliffordCircuit(3, gates)
            np.testing.assert_allclose(verify.dense_circuit(circuit), kron_circuit(circuit),
                                       rtol=0, atol=1e-12)

    def test_qubit_cap(self):
        with pytest.raises(verify.DimensionError):
            verify.dense_matrix(CliffordCircuit(13, ()))

    @settings(max_examples=150, deadline=None)
    @given(circuits())
    def test_dense_circuit_matches_kronecker_reference(self, circuit):
        np.testing.assert_allclose(verify.dense_circuit(circuit), kron_circuit(circuit),
                                   rtol=0, atol=1e-12)


class TestExpectationInvariance:
    """The expectation oracle of ``assert_dense_oracles``."""

    def test_transform_pair_invariant(self):
        rng = np.random.default_rng(23)
        h = model_hamiltonian(1.1, -0.4)
        basis = model_reference_basis()
        a = parse_hamiltonian("qubits: 2\n1.1 Z0\n-0.4 X1\n")
        for u in (verify.dense_matrix(build_unitary_symbolic(basis)),
                  verify.dense_matrix(synthesize(basis))):
            assert looped_expectation_invariance(h, a, u, 50, rng) < 1e-9

    def test_detects_wrong_unitary(self):
        rng = np.random.default_rng(29)
        h = model_hamiltonian(1.1, -0.4)
        a = parse_hamiltonian("qubits: 2\n1.1 Z0\n-0.4 X1\n")
        assert looped_expectation_invariance(h, a, np.eye(4, dtype=complex), 50, rng) > 1e-3


BASIS = "basis invariants"
TABLEAU = ("circuit equals the product of (tau_i + sigma_i)/sqrt(2) up to global "
           "phase (tableau)")
SIGNS = "circuit maps each group term to its transformed term (exact sign)"
SPECTRA = ("spectra preserved (each group maps onto its transformed group under "
           "tau_i -> sigma_i)")


def one_group_plan(group: Hamiltonian) -> MeasurementPlan:
    basis = group_basis(group)
    return MeasurementPlan(group.n_qubits, (
        GroupPlan(transform_group(group, basis), synthesize(basis)),))


def with_gates(plan: MeasurementPlan, gates) -> MeasurementPlan:
    """plan with its one group's circuit gates replaced."""
    entry = plan.groups[0]
    circuit = CliffordCircuit(entry.circuit.n_qubits, tuple(gates),
                              entry.circuit.global_phase_exp)
    return MeasurementPlan(plan.n_qubits, (GroupPlan(entry.transform, circuit),))


def rows(h: Hamiltonian, plan: MeasurementPlan) -> dict[str, tuple[str, str]]:
    return {name: (status, detail) for name, status, detail in verify.plan_checks(h, plan)}


class TestTableauRow:
    def test_passes_at_widths_where_the_dense_rows_skip(self):
        rng = random.Random(67)
        for n in (30, 60):
            group = random_commuting_group(n, rng)
            got = rows(group, one_group_plan(group))
            assert all(row == ("pass", "") for row in got.values()), got

    def test_every_dropped_gate_fails(self):
        group = random_commuting_group(30, random.Random(71))
        plan = one_group_plan(group)
        gates = plan.groups[0].circuit.gates
        for k in range(len(gates)):
            mutated = with_gates(plan, gates[:k] + gates[k + 1:])
            assert rows(group, mutated)[TABLEAU][0] == "fail"

    def test_every_reversed_cnot_fails(self):
        group = random_commuting_group(30, random.Random(73))
        plan = one_group_plan(group)
        gates = plan.groups[0].circuit.gates
        cnots = [k for k, g in enumerate(gates) if g.name == "CNOT"]
        assert cnots
        for k in cnots:
            flipped = Gate("CNOT", gates[k].qubits[::-1])
            mutated = with_gates(plan, gates[:k] + (flipped,) + gates[k + 1:])
            assert rows(group, mutated)[TABLEAU][0] == "fail"

    def test_identity_circuit_fails_at_the_first_factor(self):
        group = parse_hamiltonian("1.0 X0 X1\n0.5 Z0 Z1\n")
        status, detail = rows(group, with_gates(one_group_plan(group), ()))[TABLEAU]
        basis = one_group_plan(group).groups[0].transform.basis
        tau = basis.taus[0].to_term_string()
        sigma = basis.sigma_products[0].to_term_string()
        assert (status, detail) == (
            "fail", f"group 0: tau_0 ({tau}) maps to +{tau}, not +{sigma}")

    @pytest.mark.parametrize("n", [3, 40])
    def test_fails_a_gate_on_an_idle_qubit_that_the_sign_row_passes(self, n):
        # the terms act as identity on the last qubit, so a Z appended there
        # leaves every term's image alone but not the circuit's Clifford
        group = parse_hamiltonian(f"qubits: {n}\n1.0 X0 X1\n0.5 Z0 Z1\n")
        plan = one_group_plan(group)
        mutated = with_gates(plan, plan.groups[0].circuit.gates + (Gate("Z", (n - 1,)),))
        got = rows(group, mutated)
        assert got[SIGNS] == ("pass", "")
        assert got[TABLEAU][0] == "fail" and "maps to -" in got[TABLEAU][1]


def pairwise_qwc_clash(h: Hamiltonian) -> tuple[int, int] | None:
    """The first (i, j), in row order, of terms that differ in axis on a
    qubit where neither is the identity."""
    for i, (_, p) in enumerate(h.terms):
        for j, (_, r) in enumerate(h.terms):
            if any("I" != p.axis(q) != r.axis(q) != "I" for q in range(h.n_qubits)):
                return i, j
    return None


QWC = "transformed groups qubit-wise commuting"


class TestQwcRow:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 10), st.integers(0, 2**32 - 1))
    def test_names_the_pairwise_first_clash(self, n, m, seed):
        rng = random.Random(seed)
        group = random_commuting_group(n, rng)
        plan = one_group_plan(group)
        entry = plan.groups[0]
        # stated terms drawn from a few axes, so that clashes and clean
        # groups both occur
        terms = tuple((1.0, PauliProduct(n, rng.getrandbits(n) & rng.getrandbits(n),
                                         rng.getrandbits(n) & rng.getrandbits(n)))
                      for _ in range(m))
        transform = TransformedGroup(entry.transform.term_indices, entry.transform.basis,
                                     Hamiltonian(n, terms))
        corrupted = MeasurementPlan(n, (GroupPlan(transform, entry.circuit),))
        clash = pairwise_qwc_clash(transform.transformed)
        want = (("pass", "") if clash is None else
                ("fail", f"group 0: transformed terms {clash[0]} and {clash[1]} are not QWC"))
        assert rows(group, corrupted)[QWC] == want


class TestColumnBuilds:
    def test_each_group_and_transformed_group_is_built_once(self, monkeypatch):
        """plan_checks builds each group's Hamiltonian once, so its columns,
        its transformed group's and its taus' are each built once."""
        h = random_graph_hamiltonian(8, 40, random.Random(31))
        plan = plan_from_dict(plan_to_dict(pipeline(h, cover_rlf(build_graph(h, "fc")))))
        builds = count_column_builds(monkeypatch)
        assert all(status == "pass" for _, status, _ in verify.plan_checks(h, plan))
        want = Counter()
        for entry in plan.groups:
            want[tuple(h.terms[i][1] for i in entry.transform.term_indices)] += 1
            want[entry.transform.transformed.products()] += 1
            want[entry.transform.basis.taus] += 1
        assert len(plan.groups) > 1 and builds == want

    def test_the_qwc_clash_path_reuses_the_transformed_columns(self, monkeypatch):
        group, entry = pair_entry()
        clash = parse_hamiltonian("qubits: 3\n1.0 X0\n0.5 Z0\n")
        plan = MeasurementPlan(3, (restated(entry, transformed=clash),))
        builds = count_column_builds(monkeypatch)
        assert rows(group, plan)[QWC] == (
            "fail", "group 0: transformed terms 0 and 1 are not QWC")
        assert builds[clash.products()] == 1


class TestBenchmarkPlans:
    @pytest.mark.parametrize("workload", ["random-w4", "molecular-jw", "wide-sparse"])
    def test_seed_one_plans_pass_every_row(self, workload, monkeypatch):
        """Every seed-1 benchmark plan, with its cancelled CNOT pairs,
        passes every row at 6 to 200 qubits, and the 6-qubit molecular-jw
        plans meet the dense oracles too."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
        import workloads
        for inst in workloads.generate(workload, 1, PauliProduct):
            h = parse_hamiltonian(inst.to_text())
            plan = pipeline(h, cover_rlf(build_graph(h, "fc")))
            for name, status, detail in verify.plan_checks(h, plan):
                assert status == "pass", (name, status, detail)
            if h.n_qubits <= 6:
                assert_dense_oracles(h, plan)

    def test_jw_twelve_plan_passes_every_row(self, monkeypatch):
        """The dsatur plan of the JW N = 12 sum (the scale-12 integrals,
        4,501 terms), wider than any dense solve, passes every row."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
        import workloads
        one_body, two_body = workloads._symmetric_integrals(random.Random("scale-12"), 12)
        jw = workloads.jordan_wigner_hamiltonian(PauliProduct, 12, one_body, two_body)
        h = Hamiltonian(12, tuple((c, PauliProduct(12, x, z)) for (x, z), c in jw.items()))
        assert len(h.terms) == 4501
        plan = pipeline(h, cover_dsatur(build_graph(h, "fc")))
        got = verify.plan_checks(h, plan)
        assert [status for _, status, _ in got] == ["pass"] * 7, got


class TestDenseTables:
    @pytest.mark.parametrize("n", [4, 10, 11, 30])
    def test_plan_checks_build_no_dense_tables(self, monkeypatch, n):
        h = random_graph_hamiltonian(n, 8, random.Random(n))
        plan = pipeline(h, cover_rlf(build_graph(h, "fc")))
        assert len(plan.groups) >= 2
        seen = []
        tables = verify._Tables
        monkeypatch.setattr(verify, "_Tables", lambda k: seen.append(k) or tables(k))
        assert all(status == "pass" for _, status, _ in verify.plan_checks(h, plan))
        assert seen == []

    def test_parity_signs(self):
        t = verify._Tables(5)
        assert t.signs.tolist() == [(-1) ** s.bit_count() for s in range(32)]


class TestDenseOracles:
    """``assert_dense_oracles`` on plans of 1-6 qubits; the benchmark and
    golden plans meet it where they are verified."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.booleans(), st.integers(0, 2**32 - 1))
    def test_commuting_groups(self, n, local, seed):
        # local: a group on some of the register's qubits, so the basis has
        # fewer factors than the register has qubits
        rng = random.Random(seed)
        group = (embedded_group(rng.randint(1, n - 1), n, rng) if local and n > 1
                 else random_commuting_group(n, rng))
        assert_dense_oracles(group, one_group_plan(group))

    def test_a_dropped_gate_fails(self):
        group = random_commuting_group(4, random.Random(83))
        plan = one_group_plan(group)
        gates = plan.groups[0].circuit.gates
        with pytest.raises(AssertionError, match="group 0: circuit"):
            assert_dense_oracles(group, with_gates(plan, gates[1:]))

    def test_a_flipped_transformed_sign_fails(self):
        group = random_commuting_group(4, random.Random(89))
        entry = one_group_plan(group).groups[0]
        (c, p), *rest = entry.transform.transformed.terms
        transform = TransformedGroup(entry.transform.term_indices, entry.transform.basis,
                                     Hamiltonian(4, ((-c, p), *rest)))
        plan = MeasurementPlan(4, (GroupPlan(transform, entry.circuit),))
        with pytest.raises(AssertionError, match="group 0: conjugation"):
            assert_dense_oracles(group, plan)
