"""Dense matrices, compatibility census, circuit simulation, the tableau
row of the check suite, and the dense oracles on small plans."""

import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (PauliSum, all_paulis, assert_dense_oracles, build_unitary_symbolic,
                     embedded_group, inverse_circuit, kron_circuit, kron_pauli,
                     looped_expectation_invariance, group_basis, pauli_from_label,
                     per_term_dense_sum, random_commuting_group, random_graph_hamiltonian,
                     random_state)
from paulimeasure import (CliffordCircuit, Gate, GroupPlan, Hamiltonian,
                          MeasurementPlan, PauliProduct, build_graph, cover_dsatur,
                          cover_rlf, TransformedGroup, parse_hamiltonian, pipeline,
                          synthesize, transform_group)
from paulimeasure import verify
from paulimeasure.circuits import GATE_NAMES
from paulimeasure.fixtures import model_hamiltonian, model_reference_basis
from paulimeasure.pauli import count_compatible


def x_span_size(h: Hamiltonian) -> int:
    """The number of states in the span of h's x-parts, closed under XOR
    one term at a time."""
    span = {0}
    for _, p in h.terms:
        span |= {v ^ p.x for v in span}
    return len(span)


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

    @staticmethod
    def built_sums(monkeypatch) -> list:
        """Every sum that verify builds a dense matrix of."""
        seen = []
        dense_sum = verify._dense_sum
        monkeypatch.setattr(verify, "_dense_sum",
                            lambda h, tables=None: seen.append(h) or dense_sum(h, tables))
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

    def test_y_carrying_group_is_solved_in_closed_form(self, monkeypatch):
        # Y0 X1 and X0 Z1 X2 become Y0 and Z1: the term Y0 makes the
        # transformed matrix complex, and the closed form handles it exactly
        h = parse_hamiltonian("qubits: 3\n0.5 Y0 X1\n-0.25 X0 Z1 X2\n")
        entry = pipeline(h, cover_rlf(build_graph(h, "fc"))).groups[0]
        transformed = entry.transform.transformed
        assert transformed == parse_hamiltonian("qubits: 3\n0.5 Z1\n-0.25 Y0\n")
        g = verify._GroupOperators(h, entry, verify._Tables(3))
        solved = []
        solve = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: solved.append(m) or solve(m))
        built = self.built_sums(monkeypatch)
        assert verify._check_spectra(g)[0]
        # the one solve is of the group's blocks, complex with its one-Y
        # term; no transformed matrix is built
        assert built == [g.group]
        assert len(solved) == 1 and solved[0].dtype == np.complex128
        full = verify.dense_matrix(transformed)
        assert full.imag.any()
        closed = np.sort(verify._qwc_spectrum(transformed, g.tables))
        assert np.max(np.abs(closed - solve(full))) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_closed_form_matches_the_dense_solver(self, data):
        # one axis or none per qubit; a term's support may be empty (a
        # constant) and a qubit may be idle in every term
        n = data.draw(st.integers(1, 8))
        axes = data.draw(st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n))
        x_mask = sum(1 << q for q, a in enumerate(axes) if a in "XY")
        z_mask = sum(1 << q for q, a in enumerate(axes) if a in "YZ")
        terms = data.draw(st.lists(st.tuples(
            st.floats(-1, 1, allow_nan=False), st.integers(0, (1 << n) - 1)), max_size=12))
        h = Hamiltonian(n, tuple((c, PauliProduct(n, s & x_mask, s & z_mask))
                                 for c, s in terms))
        closed = np.sort(verify._qwc_spectrum(h, verify._Tables(n)))
        assert np.max(np.abs(closed - np.linalg.eigvalsh(verify.dense_matrix(h)))) <= 1e-12

    def test_non_qwc_transformed_group_takes_the_dense_route(self, monkeypatch):
        # X0 X1 and Z0 Z1 commute but clash on both qubits: stated as their
        # own image, both dense matrices are solved, and they agree
        group = parse_hamiltonian("0.5 X0 X1\n-0.25 Z0 Z1\n")
        entry = one_group_plan(group).groups[0]
        transform = TransformedGroup(entry.transform.term_indices, entry.transform.basis, group)
        g = verify._GroupOperators(group, GroupPlan(transform, entry.circuit),
                                   verify._Tables(2))
        assert not g.transformed_qwc
        seen = self.solver_dtypes(monkeypatch)
        built = self.built_sums(monkeypatch)
        assert verify._check_spectra(g)[0]
        assert len(seen) == 2 and built == [g.group, group]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_block_spectrum_matches_the_full_solver(self, data):
        # any sum: its terms may anticommute, carry Ys (complex matrices) or
        # be constants, and a qubit may be idle in every term
        n = data.draw(st.integers(1, 8))
        busy = data.draw(st.integers(0, (1 << n) - 1))
        bits = st.integers(0, (1 << n) - 1).map(lambda v: v & busy)
        terms = data.draw(st.lists(st.tuples(st.floats(-1, 1, allow_nan=False), bits, bits),
                                   max_size=12))
        h = Hamiltonian.from_terms(n, [(c, PauliProduct(n, x, z)) for c, x, z in terms])
        blocks = verify._x_span_blocks(h, verify._Tables(n))
        width = x_span_size(h)
        assert blocks.shape == ((1 << n) // width, width, width)
        got = np.sort(np.linalg.eigvalsh(blocks), axis=None)
        assert np.max(np.abs(got - np.linalg.eigvalsh(verify.dense_matrix(h)))) <= 1e-12

    def test_entries_outside_the_blocks_fail_the_row(self, monkeypatch):
        # a span that misses X1 leaves entries of X0 X1 outside the blocks
        group = parse_hamiltonian("0.5 X0 X1\n-0.25 Z0 Z1\n")
        plan = one_group_plan(group)
        row_reduce = verify.gf2.row_reduce
        monkeypatch.setattr(verify.gf2, "row_reduce",
                            lambda rows, n: row_reduce([r & 1 for r in rows], n))
        assert rows(group, plan)[SPECTRA] == (
            "fail", "group 0: dense matrix has entries outside its x-span blocks")

    def test_tampered_non_qwc_image_fails_with_a_mismatch(self):
        # Y0 becomes X1, which clashes with Z1 and moves the spectrum
        h = parse_hamiltonian("qubits: 3\n0.5 Y0 X1\n-0.25 X0 Z1 X2\n")
        entry = pipeline(h, cover_rlf(build_graph(h, "fc"))).groups[0]
        (c0, p0), (c1, _) = entry.transform.transformed.terms
        tampered = Hamiltonian(3, ((c0, p0), (c1, PauliProduct.from_term_string("X1", 3))))
        transform = TransformedGroup(entry.transform.term_indices, entry.transform.basis,
                                     tampered)
        got = rows(h, MeasurementPlan(3, (GroupPlan(transform, entry.circuit),)))
        assert got[SPECTRA] == ("fail", "group 0: eigenvalue mismatch beyond 1e-9")
        assert got[QWC][0] == "fail"


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


TABLEAU = ("circuit equals the product of (tau_i + sigma_i)/sqrt(2) up to global "
           "phase (tableau)")
SIGNS = "circuit maps each group term to its transformed term (exact sign)"
SPECTRA = "spectra preserved (tol 1e-9)"


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
            assert got[TABLEAU] == ("pass", "")
            assert [status for status, _ in got.values()].count("skip") == 1

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


class TestBenchmarkPlans:
    @pytest.mark.parametrize("workload", ["random-w4", "molecular-jw", "wide-sparse"])
    def test_seed_one_plans_pass_every_row(self, workload, monkeypatch):
        """Every seed-1 benchmark plan, with its cancelled CNOT pairs,
        passes every row that runs at its width. molecular-jw runs them all,
        and its 6-qubit plans meet the dense oracles too."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
        import workloads
        for inst in workloads.generate(workload, 1, PauliProduct):
            h = parse_hamiltonian(inst.to_text())
            plan = pipeline(h, cover_rlf(build_graph(h, "fc")))
            for name, status, detail in verify.plan_checks(h, plan):
                assert status == "pass" or (status == "skip" and h.n_qubits > 6), (
                    name, status, detail)
            if h.n_qubits <= 6:
                assert_dense_oracles(h, plan)

    def test_one_solve_per_group_on_the_molecular_plans(self, monkeypatch):
        """The qubit-wise commuting transformed groups are solved in closed
        form, so the spectra row calls the solver on the group side only."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
        import workloads
        plans = []
        for inst in workloads.generate("molecular-jw", 1, PauliProduct):
            h = parse_hamiltonian(inst.to_text())
            plans.append((h, pipeline(h, cover_rlf(build_graph(h, "fc")))))
        solves = []
        solve = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: solves.append(m) or solve(m))
        for h, plan in plans:
            assert all(status == "pass" for _, status, _ in verify.plan_checks(h, plan))
        assert len(solves) == sum(len(plan.groups) for _, plan in plans) == 66

    def test_jw_eight_plan_passes_every_row_in_x_span_blocks(self, monkeypatch):
        """The dsatur plan of the JW N = 8 sum (the scale-8 integrals, 849
        terms) passes every row, spectra included, and each group's matrix
        is solved in blocks as wide as the span of its terms' x-parts."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
        import workloads
        one_body, two_body = workloads._symmetric_integrals(random.Random("scale-8"), 8)
        jw = workloads.jordan_wigner_hamiltonian(PauliProduct, 8, one_body, two_body)
        h = Hamiltonian(8, tuple((c, PauliProduct(8, x, z)) for (x, z), c in jw.items()))
        assert len(h.terms) == 849
        plan = pipeline(h, cover_dsatur(build_graph(h, "fc")))
        shapes = []
        blocks = verify._x_span_blocks

        def recorded(group, tables):
            out = blocks(group, tables)
            shapes.append((x_span_size(group), out.shape))
            return out

        monkeypatch.setattr(verify, "_x_span_blocks", recorded)
        got = verify.plan_checks(h, plan)
        assert [status for _, status, _ in got] == ["pass"] * 7, got
        assert len(shapes) == len(plan.groups)
        assert all(shape == (256 // width, width, width) for width, shape in shapes)
        assert max(width for width, _ in shapes) > 1


class TestDenseTables:
    @pytest.mark.parametrize("n, built", [(4, [4]), (10, [10]), (11, []), (30, [])])
    def test_built_once_per_plan_and_only_when_a_dense_row_runs(self, monkeypatch,
                                                                n, built):
        h = random_graph_hamiltonian(n, 8, random.Random(n))
        plan = pipeline(h, cover_rlf(build_graph(h, "fc")))
        assert len(plan.groups) >= 2
        seen = []
        tables = verify._Tables
        monkeypatch.setattr(verify, "_Tables", lambda k: seen.append(k) or tables(k))
        assert all(status != "fail" for _, status, _ in verify.plan_checks(h, plan))
        assert seen == built

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
