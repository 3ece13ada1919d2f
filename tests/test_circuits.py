"""Exponent form of the reflection factors and exact gate decomposition."""

import itertools
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (LiteralGates, all_paulis, append_exponent, assert_measures_like,
                     build_unitary_symbolic, circuit_to_dict,
                     conjugation_maps_paulis_to_paulis, embedded_group, equal_up_to_phase,
                     fold_circuit, group_basis, inverse_circuit, kron_gate,
                     ladder_synthesize, qubit_runs, random_commuting_group,
                     random_isotropic, random_pauli, scanning_exponent_gates,
                     shortest_right_multiple, single_qubit_cliffords)
from paulimeasure import (CliffordCircuit, Gate, GroupPlan, Hamiltonian,
                          MeasurementPlan, PauliProduct, TauSigmaBasis,
                          build_graph, circuit_from_dict, cover_rlf,
                          find_sigma, gate_counts, parse_hamiltonian, pipeline,
                          synthesize, transform_group)
from paulimeasure import verify
from paulimeasure.circuits import GATE_NAMES, _clifford_group, _qubits, conjugate_columns
from paulimeasure.pauli import MAX_QUBITS, qubit_columns
from paulimeasure.fixtures import h2_reference_basis, model_reference_basis


def exponent_matrix(p: PauliProduct) -> np.ndarray:
    """Independent reference: exp(i*pi/4*P) = (I + i P)/sqrt(2) for P^2 = I."""
    dim = 1 << p.n_qubits
    return (np.eye(dim) + 1j * verify.dense_pauli(p)) / np.sqrt(2)


def reflection_matrix(tau: PauliProduct, sigma: PauliProduct) -> np.ndarray:
    return (verify.dense_pauli(tau) + verify.dense_pauli(sigma)) / np.sqrt(2)


def ladder_cnots(basis) -> int:
    """In ``ladder_synthesize`` each factor costs one weight-w tau exponent
    (2(w-1) CNOTs) between two single-qubit sigma exponents (none), before
    the fold cancels the CNOT pairs that consecutive ladders share: an
    upper bound."""
    return sum(2 * (t.weight() - 1) for t in basis.taus)


def graph_cnots(basis) -> int:
    """One CNOT per edge of the taus' graph in the one CZ layer: tau_i has
    w_i - 1 neighbours, and each edge has two ends."""
    total = sum(t.weight() - 1 for t in basis.taus)
    assert total % 2 == 0
    return total // 2


def exponent_circuit(p: PauliProduct) -> CliffordCircuit:
    """The gates of exp(i pi/4 P) up to phase, unfolded, with the ladder
    over the support in ascending order."""
    sink = LiteralGates(p.n_qubits)
    append_exponent(sink, p, _qubits(p.support))
    return sink.circuit()


def one_factor(tau: PauliProduct, qubit: int, axis: str, synth=synthesize) -> CliffordCircuit:
    """synth on a basis of the one factor (tau + sigma)/sqrt(2)."""
    return synth(TauSigmaBasis(tau.n_qubits, (tau,), ((qubit, axis),)))


def signed_pauli(m: np.ndarray, n_qubits: int) -> tuple[int, PauliProduct]:
    """(sign, P) with m == sign * P; exactly one signed product must match."""
    hits = [(sign, p) for p in all_paulis(n_qubits) for sign in (1, -1)
            if np.allclose(m, sign * verify.dense_pauli(p), atol=1e-12)]
    assert len(hits) == 1
    return hits[0]


ONE_QUBIT_GATES = GATE_NAMES[:-1]
OMEGA = np.exp(1j * np.pi / 4)


def run_matrix(names) -> np.ndarray:
    """The literal 2x2 matrix of a single-qubit gate run, first gate first."""
    m = np.eye(2, dtype=complex)
    for name in names:
        m = kron_gate(Gate(name, (0,)), 1) @ m
    return m


def element_of(m: np.ndarray, elements) -> tuple[int, int]:
    """(k, l) with m == e^(i pi/4 l) elements[k]; exactly one must match."""
    hits = [(k, l) for k, c in enumerate(elements) for l in range(8)
            if np.allclose(m, OMEGA ** l * c, atol=1e-12)]
    assert len(hits) == 1
    return hits[0]


def asap_depth(c: CliffordCircuit) -> int:
    level = [0] * c.n_qubits
    for g in c.gates:
        d = 1 + max(level[q] for q in g.qubits)
        for q in g.qubits:
            level[q] = d
    return max(level, default=0)


def cnots(c: CliffordCircuit) -> list[Gate]:
    return [g for g in c.gates if g.name == "CNOT"]


def assert_fold_of(folded: CliffordCircuit, literal: CliffordCircuit) -> None:
    """folded equals literal up to phase, with the same CNOTs in the same
    order, no run longer than 3 gates or than the literal gates it replaced,
    and no greater depth."""
    assert equal_up_to_phase(verify.dense_matrix(folded), verify.dense_matrix(literal))
    assert cnots(folded) == cnots(literal)
    for after, before in zip(qubit_runs(folded), qubit_runs(literal), strict=True):
        assert len(after) == len(before)
        assert all(a <= min(3, b) for a, b in zip(after, before))
    assert asap_depth(folded) <= asap_depth(literal)


@st.composite
def small_circuits(draw) -> CliffordCircuit:
    n = draw(st.integers(1, 4))
    one = st.builds(lambda name, q: Gate(name, (q,)),
                    st.sampled_from(ONE_QUBIT_GATES), st.integers(0, n - 1))
    gate = one
    if n > 1:
        pairs = st.permutations(range(n)).map(lambda qs: Gate("CNOT", tuple(qs[:2])))
        gate = st.one_of(one, pairs)
    gates = draw(st.lists(gate, max_size=30))
    return CliffordCircuit(n, tuple(gates))


@st.composite
def lagrangian_bases(draw, min_qubits: int, max_qubits: int) -> TauSigmaBasis:
    """find_sigma on a random Lagrangian tau basis of the whole register."""
    n = draw(st.integers(min_qubits, max_qubits))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return find_sigma([PauliProduct.from_packed(v, n) for v in random_isotropic(n, n, rng)])


@st.composite
def support_local_bases(draw, max_qubits: int = 12) -> TauSigmaBasis:
    """The basis of a random commuting group on some of the register's qubits."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, max_qubits))
    return group_basis(embedded_group(rng.randint(1, n - 1), n, rng))


def conjugated_products(c: CliffordCircuit, prods) -> list[tuple[int, PauliProduct]]:
    """(sign, image) of every product under conjugate_columns."""
    n = c.n_qubits
    xs, zs, minus = conjugate_columns(c, *qubit_columns(n, prods))
    return [(-1 if (minus >> k) & 1 else 1,
             PauliProduct(n, sum(((xs[q] >> k) & 1) << q for q in range(n)),
                          sum(((zs[q] >> k) & 1) << q for q in range(n))))
            for k in range(len(prods))]


class TestConjugateColumns:
    """The bit rules of conjugate_columns against the literal gate matrices."""

    @pytest.mark.parametrize("gate", [Gate(name, (0,)) for name in GATE_NAMES
                                      if name != "CNOT"]
                             + [Gate("CNOT", (0, 1)), Gate("CNOT", (1, 0))],
                             ids=lambda g: f"{g.name}{g.qubits}")
    def test_gate_rule_is_literal_conjugation(self, gate):
        n = len(gate.qubits)
        g = kron_gate(gate, n)
        prods = list(all_paulis(n))
        want = [signed_pauli(g.conj().T @ verify.dense_pauli(p) @ g, n) for p in prods]
        assert conjugated_products(CliffordCircuit(n, (gate,)), prods) == want

    def test_random_circuits_match_dense_conjugation(self):
        rng = random.Random(53)
        for _ in range(20):
            n = rng.randint(1, 4)
            gates = []
            for _ in range(rng.randint(0, 12)):
                name = rng.choice(GATE_NAMES)
                if name == "CNOT" and n == 1:
                    name = "H"
                qubits = rng.sample(range(n), 2 if name == "CNOT" else 1)
                gates.append(Gate(name, tuple(qubits)))
            c = CliffordCircuit(n, tuple(gates))
            u = verify.dense_matrix(c)
            prods = [random_pauli(n, rng) for _ in range(8)]
            for p, (sign, image) in zip(prods, conjugated_products(c, prods)):
                np.testing.assert_allclose(u.conj().T @ verify.dense_pauli(p) @ u,
                                           sign * verify.dense_pauli(image), atol=1e-10)

    def test_synthesized_circuit_maps_group_to_transformed_group(self):
        rng = random.Random(59)
        for _ in range(10):
            group = random_commuting_group(rng.randint(1, 8), rng)
            basis = group_basis(group)
            tg = transform_group(group, basis)
            got = conjugated_products(synthesize(basis), group.products())
            for (coeff, _), (sign, image), (t_coeff, t_prod) in zip(
                    group.terms, got, tg.transformed.terms):
                assert image == t_prod and sign * coeff == t_coeff


class TestCliffordGroup:
    """The fold's table of the 24 single-qubit Cliffords, against the literal
    2x2 gate matrices."""

    def test_table_matches_the_literal_cliffords(self):
        """The same 24 elements as ``single_qubit_cliffords``, each with a
        run of its shortest length, and every table, of one gate or a
        composed run, gives the element of G C_j up to phase."""
        step, runs = _clifford_group()
        assert runs[0] == ()
        elements = [run_matrix(r) for r in runs]
        cliffords = single_qubit_cliffords()
        found = [next(key for key, (_, m) in cliffords.items() if equal_up_to_phase(c, m))
                 for c in elements]
        assert len(found) == len(set(found)) == len(cliffords) == 24
        assert [len(r) for r in runs] == [cliffords[key][0] for key in found]
        assert {names for names in step if len(names) == 1} == {
            (name,) for name in ONE_QUBIT_GATES}
        for names, table in step.items():
            assert len(table) == 24
            for j, k in enumerate(table):
                assert equal_up_to_phase(run_matrix(names) @ elements[j], elements[k])

    def test_elements_are_distinct_up_to_phase(self):
        elements = [run_matrix(r) for r in _clifford_group()[1]]
        for k, m in enumerate(elements):
            assert element_of(m, elements) == (k, 0)

    def test_each_run_is_a_shortest_one(self):
        runs = _clifford_group()[1]
        elements = [run_matrix(r) for r in runs]
        shortest: dict[int, int] = {}
        for length in range(4):
            for word in itertools.product(ONE_QUBIT_GATES, repeat=length):
                shortest.setdefault(element_of(run_matrix(word), elements)[0], length)
        assert [len(r) for r in runs] == [shortest[k] for k in range(24)]


class TestFold:
    @settings(max_examples=200, deadline=None)
    @given(small_circuits())
    def test_random_circuits_fold_exactly(self, c):
        assert_fold_of(fold_circuit(c), c)

    def test_runs_are_written_before_their_cnot_and_at_the_end_in_qubit_order(self):
        gates = (Gate("S", (1,)), Gate("S", (1,)), Gate("H", (2,)), Gate("S", (0,)),
                 Gate("CNOT", (0, 2)), Gate("X", (0,)), Gate("X", (0,)))
        folded = fold_circuit(CliffordCircuit(3, gates))
        assert folded.gates == (Gate("S", (0,)), Gate("H", (2,)), Gate("CNOT", (0, 2)),
                                Gate("Z", (1,)))

    def test_synthesized_circuits_measure_like_the_ladder_ones(self):
        """The graph form is the ladders' unitary up to a Delta that is
        diagonal in the measured basis."""
        rng = random.Random(61)
        bases = [model_reference_basis(), h2_reference_basis()]
        bases += [group_basis(random_commuting_group(rng.randint(1, 6), rng))
                  for _ in range(25)]
        for basis in bases:
            assert_measures_like(verify.dense_matrix(synthesize(basis)),
                                 verify.dense_matrix(ladder_synthesize(basis)), basis)

    def test_idle_qubit_factor_is_one_hadamard(self):
        c = one_factor(PauliProduct.from_term_string("Z0", 1), 0, "X")
        assert c.gates == (Gate("H", (0,)),)
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        np.testing.assert_allclose(verify.dense_matrix(c), h, atol=1e-12)


class TestExponentSequence:
    def test_model_factor(self):
        tau = PauliProduct.from_term_string("X0 X1", 2)
        sigma = PauliProduct.from_term_string("Z0", 2)
        c = verify.dense_matrix(one_factor(tau, 0, "Z", ladder_synthesize))
        e_sigma, e_tau = (verify.dense_matrix(exponent_circuit(p)) for p in (sigma, tau))
        assert equal_up_to_phase(c, e_sigma @ e_tau @ e_sigma)
        assert equal_up_to_phase(c, reflection_matrix(tau, sigma))

    def test_single_qubit_gives_hadamard(self):
        c = one_factor(PauliProduct.from_term_string("Z0", 1), 0, "X")
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        np.testing.assert_allclose(verify.dense_matrix(c), h, atol=1e-12)

    def test_reflections_square_to_identity(self):
        rng = random.Random(13)
        done = 0
        while done < 50:
            n = rng.randint(1, 4)
            tau = PauliProduct(n, rng.getrandbits(n), rng.getrandbits(n))
            q, axis = rng.randrange(n), rng.choice("XYZ")
            sigma = PauliProduct.single(n, q, axis)
            if tau.weight() == 0 or tau.commutes_with(sigma):
                continue
            v = reflection_matrix(tau, sigma)
            np.testing.assert_allclose(v @ v, np.eye(1 << n), atol=1e-12)
            assert equal_up_to_phase(
                verify.dense_matrix(one_factor(tau, q, axis, ladder_synthesize)), v)
            done += 1

    def test_commuting_inputs_rejected(self):
        tau = PauliProduct.from_term_string("X0 X1", 2)
        with pytest.raises(ValueError, match="tau_0 does not anticommute with sigma_0"):
            one_factor(tau, 0, "X")

    @pytest.mark.parametrize("qubit, axis", [(0, "W"), (0, "I"), (2, "X"), (-1, "Z")])
    def test_sigma_off_the_register_rejected(self, qubit, axis):
        """The reason of ``single_bits``, which builds the sigma columns."""
        tau = PauliProduct.from_term_string("X0 X1", 2)
        reason = (f"axis must be X, Y or Z, got {axis!r}" if 0 <= qubit < 2
                  else f"qubit {qubit} out of range for 2 qubits")
        with pytest.raises(ValueError) as info:
            one_factor(tau, qubit, axis)
        assert str(info.value) == reason

    def test_phased_tau_rejected(self):
        tau = PauliProduct(2, 0b11, 0, 2)  # -X0 X1
        with pytest.raises(ValueError, match="tau_0 must carry no phase"):
            one_factor(tau, 0, "Z")


class TestDecomposeExponent:
    def test_weight_one_z_has_no_cnots(self):
        p = PauliProduct.from_term_string("Z0", 1)
        c = exponent_circuit(p)
        assert gate_counts(c) == {"cnots": 0, "single_qubit": 1}
        assert equal_up_to_phase(verify.dense_matrix(c), exponent_matrix(p))

    def test_weight_two_has_two_cnots(self):
        p = PauliProduct.from_term_string("X0 Y1", 2)
        c = exponent_circuit(p)
        assert gate_counts(c)["cnots"] == 2
        assert equal_up_to_phase(verify.dense_matrix(c), exponent_matrix(p))

    def test_weight_four_has_six_cnots(self):
        p = PauliProduct.from_term_string("Z0 Z1 Z2 Z3", 4)
        c = exponent_circuit(p)
        assert gate_counts(c)["cnots"] == 6
        assert equal_up_to_phase(verify.dense_matrix(c), exponent_matrix(p))

    def test_every_axis_combination_is_matrix_exact(self):
        rng = random.Random(29)
        for _ in range(40):
            n = rng.randint(1, 4)
            x, z = rng.getrandbits(n), rng.getrandbits(n)
            if x == 0 and z == 0:
                continue
            p = PauliProduct(n, x, z)
            c = exponent_circuit(p)
            assert gate_counts(c)["cnots"] == 2 * (p.weight() - 1)
            singles = sum(1 for g in c.gates if g.name != "CNOT")
            assert singles <= 4 * p.weight() + 1
            assert equal_up_to_phase(verify.dense_matrix(c), exponent_matrix(p))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_wide_support_matches_the_qubit_scan(self, data):
        # one qubit at or above 64, the rest anywhere in the register
        n = data.draw(st.integers(65, MAX_QUBITS))
        qubits = [data.draw(st.integers(64, n - 1))]
        qubits += data.draw(st.lists(st.integers(0, n - 1), max_size=7, unique=True)
                            .filter(lambda qs: qubits[0] not in qs))
        axes = data.draw(st.lists(st.sampled_from("XYZ"), min_size=len(qubits),
                                  max_size=len(qubits)))
        p = PauliProduct.from_term_string(
            " ".join(f"{a}{q}" for a, q in zip(axes, qubits)), n)
        assert list(exponent_circuit(p).gates) == scanning_exponent_gates(p)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_sigma_last_ladder_matches_the_qubit_scan(self, data):
        n = data.draw(st.integers(1, 80))
        x = data.draw(st.integers(0, (1 << n) - 1))
        z = data.draw(st.integers(0, (1 << n) - 1).filter(lambda z: x | z))
        p = PauliProduct(n, x, z)
        target = data.draw(st.sampled_from([q for q in range(n) if p.support >> q & 1]))
        sink = LiteralGates(n)
        append_exponent(sink, p, [q for q in range(n) if p.support >> q & 1 and q != target]
                         + [target])
        assert sink.gates == scanning_exponent_gates(p, target)
        assert sink.gates[len(sink.gates) // 2] == Gate("SDG", (target,))
        if n <= 4:
            assert equal_up_to_phase(verify.dense_matrix(sink.circuit()), exponent_matrix(p))

    def test_identity_exponent_rejected(self):
        with pytest.raises(ValueError, match="tau_0 does not anticommute with sigma_0"):
            one_factor(PauliProduct.identity(2), 0, "X")


class TestSynthesize:
    def test_model_counts_and_matrix(self):
        # tau_0 = X0 X1 reaches sigma_1's qubit with its axis X, and
        # tau_1 = Z0 Z1 reaches sigma_0's with Z: one edge, 0-1, so one CNOT.
        basis = model_reference_basis()
        c = synthesize(basis)
        assert gate_counts(c)["cnots"] == 1
        sym = verify.dense_matrix(build_unitary_symbolic(basis))
        assert_measures_like(verify.dense_matrix(c), sym, basis)

    def test_single_qubit_basis_is_hadamard(self):
        basis = find_sigma([PauliProduct.from_term_string("Z0", 1)])
        u = verify.dense_matrix(synthesize(basis))
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        np.testing.assert_allclose(u, h, rtol=0, atol=1e-10)

    def test_h2_basis_counts(self):
        # Z3 and Z1 have no neighbour; Y0 Y2 (sigma X2) reaches qubit 0 with
        # sigma Y0's axis and X0 X2 (sigma Y0) reaches qubit 2 with sigma
        # X2's: one edge, 0-2, so one CNOT.
        basis = h2_reference_basis()
        assert gate_counts(synthesize(basis))["cnots"] == 1

    def test_random_bases_measure_like_the_symbolic_product(self):
        rng = random.Random(31)
        for _ in range(15):
            n = rng.randint(1, 6)
            basis = group_basis(random_commuting_group(n, rng))
            circuit = verify.dense_matrix(synthesize(basis))
            symbolic = verify.dense_matrix(build_unitary_symbolic(basis))
            assert_measures_like(circuit, symbolic, basis)

    def test_circuit_is_clifford_by_exhaustive_conjugation(self):
        for n, basis in ((2, model_reference_basis()),):
            u = verify.dense_matrix(synthesize(basis))
            assert conjugation_maps_paulis_to_paulis(u, n)
        rng = random.Random(37)
        basis = group_basis(random_commuting_group(3, rng))
        u = verify.dense_matrix(synthesize(basis))
        assert conjugation_maps_paulis_to_paulis(u, 3)

    def test_every_emitted_gate_is_known_clifford(self):
        rng = random.Random(41)
        for _ in range(10):
            basis = group_basis(random_commuting_group(rng.randint(1, 5), rng))
            for g in synthesize(basis).gates:
                assert g.name in ("H", "S", "SDG", "X", "Y", "Z", "CNOT")

    def test_exponent_counts_hold_for_every_basis(self):
        rng = random.Random(47)
        for _ in range(20):
            n = rng.randint(1, 8)
            basis = group_basis(random_commuting_group(n, rng))
            assert gate_counts(synthesize(basis))["cnots"] <= ladder_cnots(basis)

    @pytest.mark.parametrize("taus, cnot_pairs, saved", [
        # Z0 Z1 X2 and Z0 Z1 X3 share the rung CNOT(0, 1); X0 Z2 Z3 and
        # X1 Z2 Z3 share CNOT(2, 3).
        (("Z0 Z1 X2", "Z0 Z1 X3", "X0 Z2 Z3", "X1 Z2 Z3"),
         [(0, 1), (1, 2), (1, 2), (1, 3), (1, 3), (0, 1),
          (2, 3), (3, 0), (3, 0), (3, 1), (3, 1), (2, 3)], 2),
        # The first two ladders share CNOT(0, 1) and CNOT(1, 2), which
        # telescope; each later pair of ladders shares CNOT(3, 4).
        (("Z0 Z1 Z2 X3", "Z0 Z1 Z2 X4", "X0 Z3 Z4", "X1 Z3 Z4", "X2 Z3 Z4"),
         [(0, 1), (1, 2), (2, 3), (2, 3), (2, 4), (2, 4), (1, 2), (0, 1),
          (3, 4), (4, 0), (4, 0), (4, 1), (4, 1), (4, 2), (4, 2), (3, 4)], 4),
    ])
    def test_shared_ladder_prefixes_cancel(self, taus, cnot_pairs, saved):
        n = len(taus)
        products = tuple(PauliProduct.from_term_string(t, n) for t in taus)
        # Each tau's sigma is the Z on the qubit of its one X.
        basis = TauSigmaBasis(n, products, tuple(
            ((p.x & ~p.z).bit_length() - 1, "Z") for p in products))
        basis.validate()
        c = ladder_synthesize(basis)
        assert [g.qubits for g in cnots(c)] == cnot_pairs
        assert len(cnot_pairs) == ladder_cnots(basis) - 2 * saved
        assert equal_up_to_phase(verify.dense_matrix(c),
                                 verify.dense_matrix(build_unitary_symbolic(basis)))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(lagrangian_bases(1, 6), support_local_bases(6)))
    def test_small_bases_measure_like_the_symbolic_product(self, basis):
        """At 1 to 6 qubits the circuit measures like the product of
        reflections and like the ladders' circuit, which equal each other up
        to phase."""
        # A tau's axis off its own sigma qubit is the sigma axis there, which
        # maps to Z in the frame.
        sigma_axis = dict(basis.sigmas)
        assert all(tau.axis(q) == sigma_axis[q]
                   for tau, (own, _) in zip(basis.taus, basis.sigmas)
                   for q in range(basis.n_qubits) if q != own and tau.axis(q) != "I")
        c = verify.dense_matrix(synthesize(basis))
        u = verify.dense_matrix(build_unitary_symbolic(basis))
        assert equal_up_to_phase(u, verify.dense_matrix(ladder_synthesize(basis)))
        assert_measures_like(c, u, basis)

    @settings(max_examples=25, deadline=None)
    @given(lagrangian_bases(13, 64), st.integers(0, 2**32 - 1))
    def test_wide_bases_pass_the_bitset_rows(self, basis, seed):
        """At 13 to 64 qubits, above every dense cap, every row passes: the
        exact-sign and tableau rows prove the circuit."""
        rng = random.Random(seed)
        n = basis.n_qubits
        terms = []
        for _ in range(rng.randint(1, 12)):
            p = PauliProduct.identity(n)
            for tau in rng.sample(basis.taus, rng.randint(1, n)):
                p = p * tau
            terms.append((rng.uniform(0.1, 1.0), PauliProduct(n, p.x, p.z)))
        group = Hamiltonian.from_terms(n, terms)
        circuit = synthesize(basis)
        plan = MeasurementPlan(n, (GroupPlan(transform_group(group, basis), circuit),))
        rows = verify.plan_checks(group, plan)
        assert [status for _, status, _ in rows] == ["pass"] * 7, rows
        assert gate_counts(circuit)["cnots"] == graph_cnots(basis)


@st.composite
def mutated_bases(draw) -> TauSigmaBasis:
    """A valid basis, or one with a random change that may break it: a
    flipped tau bit, a product of two taus, a phase or a wider register on
    a tau, a sigma moved to another qubit (in the register or not) or given
    another axis, or a tau or sigma dropped."""
    basis = draw(st.one_of(lagrangian_bases(1, 5), support_local_bases(6)))
    n = basis.n_qubits
    taus, sigmas = list(basis.taus), list(basis.sigmas)
    if not taus:
        return basis
    i = draw(st.integers(0, len(taus) - 1))
    change = draw(st.sampled_from(["none", "tau bit", "tau product", "phase", "width",
                                   "sigma qubit", "sigma axis", "drop tau", "drop sigma"]))
    tau, (q, a) = taus[i], sigmas[i]
    if change == "tau bit":
        bit = 1 << draw(st.integers(0, n - 1))
        flip_x = draw(st.booleans())
        taus[i] = PauliProduct(n, tau.x ^ bit * flip_x, tau.z ^ bit * (not flip_x))
    elif change == "tau product":
        taus[i] = PauliProduct.from_packed(tau.packed ^ draw(st.sampled_from(taus)).packed, n)
    elif change == "phase":
        taus[i] = PauliProduct(n, tau.x, tau.z, 2)
    elif change == "width":
        taus[i] = PauliProduct(n + 1, tau.x, tau.z)
    elif change == "sigma qubit":
        sigmas[i] = (draw(st.integers(-1, n)), a)
    elif change == "sigma axis":
        sigmas[i] = (q, draw(st.sampled_from("IXYZW")))
    elif change == "drop tau":
        del taus[i]
    elif change == "drop sigma":
        del sigmas[i]
    return TauSigmaBasis(n, tuple(taus), tuple(sigmas))


class TestGraphForm:
    """synthesize's input check, which is the basis's, and its CNOT count."""

    @settings(max_examples=300, deadline=None)
    @given(mutated_bases())
    def test_invalid_bases_never_return_a_circuit(self, basis):
        """synthesize raises exactly validate()'s ValueError where
        validate() raises one."""
        try:
            basis.validate()
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                synthesize(basis)
            assert str(info.value) == str(exc)
        else:
            assert isinstance(synthesize(basis), CliffordCircuit)

    @pytest.mark.parametrize("n, taus, sigmas, message", [
        # The one-factor bases that the ladders lowered.
        (2, ("X0 X1",), ((0, "Z"),), "tau_0 acts on qubit 1, which has no sigma"),
        (2, ("X0 X1", "X1"), ((0, "Z"), (1, "Z")), "tau_0 anticommutes with sigma_1"),
        # X0 Z1 reaches qubit 1, X1 does not reach qubit 0: they anticommute.
        (2, ("X0 Z1", "X1"), ((0, "Z"), (1, "Z")), "tau_0 and tau_1 anticommute"),
        (2, ("X0", "Z0"), ((0, "Z"), (0, "X")), "sigma qubits must be pairwise distinct"),
        (2, ("X0", "X1"), ((0, "Z"),), "2 taus for 1 sigmas"),
    ])
    def test_each_broken_invariant_is_named(self, n, taus, sigmas, message):
        basis = TauSigmaBasis(n, tuple(PauliProduct.from_term_string(t, n) for t in taus),
                              sigmas)
        with pytest.raises(ValueError) as info:
            synthesize(basis)
        assert str(info.value) == message

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(lagrangian_bases(1, 16), support_local_bases()))
    def test_cnot_count_is_one_per_edge_and_never_above_the_ladders(self, basis):
        count = gate_counts(synthesize(basis))["cnots"]
        assert count == graph_cnots(basis)
        assert count <= gate_counts(ladder_synthesize(basis))["cnots"]


def first_runs(c: CliffordCircuit) -> list[tuple[str, ...]]:
    """Per qubit, the names of its gates before its first CNOT."""
    runs: list[tuple[str, ...]] = [()] * c.n_qubits
    seen = set()
    for g in c.gates:
        if g.name == "CNOT":
            seen.update(g.qubits)
        elif g.qubits[0] not in seen:
            runs[g.qubits[0]] += (g.name,)
    return runs


def assert_first_runs_shortest(basis: TauSigmaBasis, c: CliffordCircuit) -> None:
    """Each sigma qubit's first run R is no longer than the shortest
    single-qubit Clifford R D with D commuting exactly with its sigma, the
    freedom the measurement contract leaves on that qubit; a sigma qubit
    whose tau acts on it alone takes exactly one gate."""
    runs = first_runs(c)
    for tau, (q, a) in zip(basis.taus, basis.sigmas):
        assert len(runs[q]) <= shortest_right_multiple(run_matrix(runs[q]), a), (q, a, runs[q])
        if tau.support == 1 << q:
            assert len([g for g in c.gates if q in g.qubits]) == 1, (q, a, tau)


class TestFirstRuns:
    """Each sigma qubit's run before its first CNOT is as short as the right
    Delta freedom allows, checked on the literal 2x2 matrices of the tests'
    helpers, not on the fold's table."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(lagrangian_bases(1, 12), support_local_bases()))
    def test_hypothesis_bases_take_the_shortest_first_runs(self, basis):
        assert_first_runs_shortest(basis, synthesize(basis))

    @pytest.mark.parametrize("workload", ["random-w4", "molecular-jw", "wide-sparse"])
    def test_seed_one_plans_take_the_shortest_first_runs(self, workload, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
        import workloads
        for inst in workloads.generate(workload, 1, PauliProduct):
            h = parse_hamiltonian(inst.to_text())
            for entry in pipeline(h, cover_rlf(build_graph(h, "fc"))).groups:
                assert_first_runs_shortest(entry.transform.basis, entry.circuit)

    @pytest.mark.parametrize("tau, axis, gate", [("Y0", "X", "S"), ("X0", "Z", "H")])
    def test_single_qubit_tau_takes_one_gate(self, tau, axis, gate):
        """Two of the pairs that ``find_sigma`` gives a tau on one qubit
        (``TestFold`` has Z0 with sigma X); S^dagger Y S = X."""
        basis = TauSigmaBasis(1, (PauliProduct.from_term_string(tau, 1),), ((0, axis),))
        c = synthesize(basis)
        assert c.gates == (Gate(gate, (0,)),)
        assert_measures_like(verify.dense_matrix(c),
                             verify.dense_matrix(build_unitary_symbolic(basis)), basis)


class TestCircuitContainer:
    def test_inverse_composes_to_identity(self):
        basis = h2_reference_basis()
        c = synthesize(basis)
        u = verify.dense_matrix(c)
        v = verify.dense_matrix(inverse_circuit(c))
        np.testing.assert_allclose(v @ u, np.eye(16), atol=1e-10)

    def test_dict_roundtrip(self):
        c = synthesize(model_reference_basis())
        d = circuit_to_dict(c)
        assert set(d) == {"n_qubits", "gates"}
        assert circuit_from_dict(d) == c

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_loaded_circuits_are_checked_as_the_constructor_checks(self, data):
        """circuit_from_dict builds without the constructor, after its own
        checks: the same circuit, or the constructor's first error."""
        n = data.draw(st.integers(1, 5))
        gate = st.tuples(st.sampled_from(GATE_NAMES + ("BOGUS", "cnot")),
                         st.lists(st.integers(-1, n), max_size=3))
        pool = data.draw(st.lists(gate, min_size=1, max_size=4))
        gates = data.draw(st.lists(st.sampled_from(pool), max_size=10))

        def outcome(build):
            try:
                return build()
            except ValueError as exc:
                return str(exc)
        want = outcome(lambda: CliffordCircuit(
            n, tuple(Gate(name, tuple(qubits)) for name, qubits in gates)))
        d = {"n_qubits": n,
             "gates": [{"name": name, "qubits": qubits} for name, qubits in gates]}
        assert outcome(lambda: circuit_from_dict(d)) == want

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(lagrangian_bases(1, 12), support_local_bases()))
    def test_synthesized_circuits_pass_the_constructor_checks(self, basis):
        """synthesize builds its circuit without the constructor's checks;
        rebuilt through the constructor, every circuit is equal."""
        c = synthesize(basis)
        assert CliffordCircuit(c.n_qubits, c.gates) == c

    def test_gate_validation(self):
        for n, gate, message in (
                (1, Gate("BOGUS", (0,)), "unknown gate 'BOGUS'"),
                (2, Gate("CNOT", (0,)), "CNOT takes 2 qubit"),
                (1, Gate("H", (3,)), r"gate Gate\(name='H', qubits=\(3,\)\) outside 1 qubits"),
                (2, Gate("CNOT", (1, 1)), "uses qubit 1 twice")):
            with pytest.raises(ValueError, match=message):
                CliffordCircuit(n, (gate,))
