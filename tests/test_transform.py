"""Tau/sigma construction, term expansion, group transformation, pipeline."""

import json
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (assert_dense_oracles, build_unitary_symbolic, completion_find_tau,
                     count_column_builds, embedded_group, full_width_find_sigma,
                     full_width_find_tau, group_basis, idle_filter_find_tau, is_lagrangian,
                     pairwise_validate, product_expand_in_tau, random_commuting_group,
                     random_graph_hamiltonian, random_isotropic, random_pauli,
                     reference_plan_dict, regex_parse_term_tokens, rescanning_find_sigma,
                     sigma_product, solve_expansion, uniform_axis_taus)
from paulimeasure import (CliffordCircuit, CliqueCover, Gate, GroupPlan, Hamiltonian,
                          MeasurementPlan, PauliProduct, TauSigmaBasis, TransformedGroup,
                          build_graph, cover_rlf, find_sigma, find_tau, parse_hamiltonian,
                          pipeline, plan_from_dict, plan_to_dict, plan_to_json, synthesize,
                          transform_group, validate_cover)
from paulimeasure.circuits import GATE_NAMES
from paulimeasure import gf2, transform as transform_module, verify
from paulimeasure.fixtures import (h2_commuting_group, h2_reference_basis,
                                   model_hamiltonian, model_reference_basis,
                                   six_term_hamiltonian)


@st.composite
def tau_bases(draw, max_qubits: int) -> list[PauliProduct]:
    """A Lagrangian tau basis of the whole register. Dense: a random one;
    sparse: single-qubit axes mixed by a few row additions and shuffled."""
    n = draw(st.integers(1, max_qubits))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        vecs = random_isotropic(n, n, rng)
    else:
        vecs = [rng.choice((1, 1 << n, 1 | 1 << n)) << q for q in range(n)]
        for _ in range(rng.randrange(2 * n) if n > 1 else 0):
            a, b = rng.sample(range(n), 2)
            vecs[a] ^= vecs[b]
        rng.shuffle(vecs)
    return [PauliProduct.from_packed(v, n) for v in vecs]


def tau_vectors(taus):
    return [t.packed for t in taus]


def assert_valid_tau_set(taus, group):
    n = group.n_qubits
    vecs = tau_vectors(taus)
    assert is_lagrangian(vecs, n)
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
        # a group of constants acts on no qubit, so it has no taus
        h = parse_hamiltonian("qubits: 2\n1.0 I\n")
        assert find_tau(h) == []

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
            find_sigma([PauliProduct.from_term_string("X0 X1", 2)])
        with pytest.raises(ValueError):
            find_sigma([PauliProduct.from_term_string("X0", 1),
                        PauliProduct.from_term_string("Z0", 1)])

    def test_random_lagrangians_produce_valid_bases(self):
        rng = random.Random(101)
        for _ in range(50):
            n = rng.randint(1, 8)
            h = random_commuting_group(n, rng)
            basis = group_basis(h)
            basis.validate(h)

    @settings(max_examples=80, deadline=None)
    @given(tau_bases(64))
    def test_matches_rescanning_reference(self, taus):
        assert find_sigma(taus) == rescanning_find_sigma(taus)

    @settings(max_examples=80, deadline=None)
    @given(tau_bases(16))
    def test_each_partner_leaves_no_more_tau_weight_than_the_other(self, taus):
        """Replays the steps from the returned sigmas. Step i's qubit is the
        lowest unassigned one of tau i; of the two axes there that
        anticommute with tau i, the chosen one's update leaves no more total
        tau weight than the other's, and on a tie it is X for a Y or Z and Z
        for an X. The replayed taus are the returned ones."""
        n = taus[0].n_qubits
        basis = find_sigma(taus)
        current = list(taus)
        unassigned = (1 << n) - 1
        for i, (q, axis) in enumerate(basis.sigmas):
            support = current[i].support & unassigned
            assert q == (support & -support).bit_length() - 1
            own = current[i].axis(q)
            other = ({"X", "Y", "Z"} - {own, axis}).pop()

            def update(a):
                sigma = PauliProduct.single(n, q, a)
                return [t if k == i or t.commutes_with(sigma)
                        else PauliProduct.from_packed(t.packed ^ current[i].packed, n)
                        for k, t in enumerate(current)]

            chosen = update(axis)
            weight, other_weight = (sum(t.weight() for t in rows)
                                    for rows in (chosen, update(other)))
            assert own not in ("I", axis)
            assert weight <= other_weight
            if weight == other_weight:
                assert axis == ("Z" if own == "X" else "X")
            current = chosen
            unassigned &= ~(1 << q)
        assert basis.taus == tuple(current)

    def test_y_partner_that_leaves_lighter_taus_wins(self):
        # Steps 0 and 1 tie and keep the rule's Z. On qubit 2, X would turn
        # X1 Y2 and X0 Y2 into Z0 Y1 X2 and Y0 Z1 X2 (weight 9); Y changes
        # no other tau (weight 7).
        taus = [PauliProduct.from_term_string(t, 3) for t in ("X1 Y2", "X0 Y2", "Z0 Z1 Z2")]
        basis = find_sigma(taus)
        assert basis.sigmas == ((1, "Z"), (0, "Z"), (2, "Y"))
        assert basis.taus == tuple(taus)
        basis.validate()
        group = Hamiltonian(3, tuple((1.0, t) for t in taus))
        assert (transform_group(group, basis).transformed
                == parse_hamiltonian("qubits: 3\n1.0 Z1\n1.0 Z0\n1.0 Y2\n"))

    def test_widest_basis_matches_rescanning_reference(self):
        taus = full_width_find_tau(parse_hamiltonian("1.0 X0 Z1023\n0.5 Z0 X1023\n"))
        assert len(taus) == 1024
        assert find_sigma(taus) == rescanning_find_sigma(taus)

    def test_a_valid_basis_calls_no_gf2_function(self, monkeypatch):
        """The sweep itself proves independence, so no row reduction runs."""
        rng = random.Random(43)
        tau_lists = [list(h2_reference_basis().taus)] + [
            find_tau(random_commuting_group(rng.randint(1, 8), rng)) for _ in range(20)]
        calls: Counter = Counter()
        for name, fn in vars(gf2).copy().items():
            if not name.startswith("_") and getattr(fn, "__module__", None) == gf2.__name__:
                def counted(*args, _name=name, _fn=fn):
                    calls[_name] += 1
                    return _fn(*args)

                monkeypatch.setattr(gf2, name, counted)
        for taus in tau_lists:
            find_sigma(taus)
        assert not calls
        find_tau(h2_commuting_group())
        assert calls["row_reduce"] == 1

    @settings(max_examples=150, deadline=None)
    @given(tau_bases(12), st.integers(0, 2**32 - 1))
    def test_dependent_taus_are_rejected(self, taus, seed):
        """A Lagrangian basis with one tau replaced by a nonempty product of
        others, as many taus as qubits they touch: the sweep reaches a tau
        with no unassigned qubit and raises the message of the full-width
        reference, which row-reduces."""
        n = len(taus)
        assume(n > 1)
        rng = random.Random(seed)
        i = rng.randrange(n)
        others = [k for k in range(n) if k != i]
        product = 0
        for k in rng.sample(others, rng.randint(1, len(others))):
            product ^= taus[k].packed
        taus = list(taus)
        taus[i] = PauliProduct.from_packed(product, n)
        support = 0
        for t in taus:
            support |= t.support
        assume(support.bit_count() == n)
        for fn in (find_sigma, full_width_find_sigma):
            with pytest.raises(ValueError) as info:
                fn(taus)
            assert str(info.value) == "taus are not a Lagrangian basis"


class TestSupportLocalBasis:
    """Each basis acts only on its group's support S. The full-width
    reference gives every qubit q outside S the factor (Z_q + X_q)/sqrt(2),
    which measures nothing; dropping those factors leaves the same basis."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 10), st.integers(0, 2**32 - 1))
    def test_matches_the_full_width_reference_without_its_idle_factors(self, k, extra,
                                                                       seed):
        rng = random.Random(seed)
        n = k + extra
        group = embedded_group(k, n, rng)
        support = 0
        for p in group.products():
            support |= p.support
        local = group_basis(group)
        ref = full_width_find_sigma(full_width_find_tau(group))
        keep = [i for i, (q, _) in enumerate(ref.sigmas) if support >> q & 1]
        assert all(ref.taus[i] == PauliProduct.single(n, q, "Z") and a == "X"
                   for i, (q, a) in enumerate(ref.sigmas) if i not in keep)
        assert local.taus == tuple(ref.taus[i] for i in keep)
        assert local.sigmas == tuple(ref.sigmas[i] for i in keep)
        assert ({q for q, _ in local.sigmas}
                == {q for q in range(n) if support >> q & 1})
        assert (transform_group(group, local).transformed
                == transform_group(group, ref).transformed)

        def touches_support(g):
            return [bool(support >> q & 1) for q in g.qubits]

        ref_gates = synthesize(ref).gates
        assert all(len(set(touches_support(g))) == 1 for g in ref_gates)
        assert synthesize(local).gates == tuple(g for g in ref_gates
                                                if all(touches_support(g)))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_taus_match_the_whole_complement_reference(self, k, extra, seed):
        group = embedded_group(k, k + extra, random.Random(seed))
        assert find_tau(group) == idle_filter_find_tau(group)

    def test_two_far_qubits_of_the_widest_register(self):
        for text in ("1.0 X0 Z1023\n0.5 Z0 X1023\n", "1.0 X0 Z1023\n"):
            group = parse_hamiltonian("qubits: 1024\n" + text)
            taus = find_tau(group)
            assert len(taus) == 2 and taus == idle_filter_find_tau(group)

    def test_constant_only_group_gets_the_empty_basis(self):
        h = parse_hamiltonian("qubits: 3\n0.7 I\n")
        entry = pipeline(h, cover_rlf(build_graph(h, "fc"))).groups[0]
        assert entry.transform.basis == TauSigmaBasis(3, (), ())
        assert entry.circuit == CliffordCircuit(3, ())
        assert entry.transform.transformed == h
        with pytest.raises(ValueError, match="empty tau basis"):
            find_sigma(find_tau(h))


@st.composite
def groups_with_uniform_axes(draw) -> Hamiltonian:
    """A commuting group on k of n qubits with constant terms. Its terms are
    products of a Lagrangian basis of the k qubits whose first members are
    single-qubit axes (all k of them for a qubit-wise commuting group) and
    whose others are a random Lagrangian basis of the remaining qubits."""
    k = draw(st.integers(1, 6))
    n = k + draw(st.integers(0, 10))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    qubits = rng.sample(range(n), k)
    n_single = draw(st.integers(0, k))
    rest = qubits[n_single:]

    def place(v):
        m = len(rest)
        return PauliProduct(n, sum((v >> i & 1) << q for i, q in enumerate(rest)),
                            sum((v >> (m + i) & 1) << q for i, q in enumerate(rest)))

    basis = [PauliProduct.single(n, q, rng.choice("XYZ")).packed for q in qubits[:n_single]]
    basis += [place(v).packed for v in random_isotropic(len(rest), len(rest), rng)]
    terms = [(rng.uniform(0.05, 2.0), PauliProduct.identity(n))
             for _ in range(draw(st.integers(0, 2)))]
    for _ in range(draw(st.integers(1, 12))):
        v = 0
        for b in basis:
            v ^= b if rng.random() < 0.5 else 0
        terms.append((rng.uniform(-2.0, 2.0), PauliProduct.from_packed(v, n)))
    rng.shuffle(terms)
    return Hamiltonian.from_terms(n, terms)


def cnots(basis: TauSigmaBasis) -> int:
    return sum(g.name == "CNOT" for g in synthesize(basis).gates)


class TestQubitLocalTaus:
    """On each qubit where a group uses one axis, its tau is that axis alone,
    with its sigma on the same qubit, so it costs no CNOT."""

    @settings(max_examples=200, deadline=None)
    @given(groups_with_uniform_axes())
    def test_each_uniform_axis_qubit_gets_a_single_qubit_tau(self, group):
        basis = group_basis(group)
        basis.validate(group)
        local, _ = uniform_axis_taus(group)
        assert list(basis.taus[:len(local)]) == local
        assert ([q for q, _ in basis.sigmas[:len(local)]]
                == [t.support.bit_length() - 1 for t in local])
        products = group.products()
        if all(p.qwc_with(r) for p in products for r in products):
            assert len(local) == len(basis.taus)
            assert all(g.name != "CNOT" for g in synthesize(basis).gates)

    def test_h2_group_holds_the_papers_single_qubit_taus(self):
        # Z1 and Z3 of the paper's basis, on the two qubits where every
        # term of the group that acts there has a Z
        h = h2_commuting_group()
        z1, z3 = (PauliProduct.from_term_string(s, 4) for s in ("Z1", "Z3"))
        assert {z1, z3} <= set(h2_reference_basis().taus)
        assert uniform_axis_taus(h)[0] == [z1, z3]
        taus = find_tau(h)
        assert taus[:2] == [z1, z3]
        assert_valid_tau_set(taus, h)

    @pytest.mark.parametrize("workload", ["random-w4", "molecular-jw", "wide-sparse"])
    def test_no_benchmark_group_costs_more_cnots_than_the_completion_rule(
            self, workload, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
        import workloads
        total = old_total = 0
        for inst in workloads.generate(workload, 1, PauliProduct):
            h = parse_hamiltonian(inst.to_text())
            for indices in cover_rlf(build_graph(h, "fc")).groups:
                sub = Hamiltonian(h.n_qubits, tuple(h.terms[i] for i in indices))
                if not any(p.support for p in sub.products()):
                    continue
                new, old = cnots(group_basis(sub)), cnots(find_sigma(completion_find_tau(sub)))
                assert new <= old, (inst.name, indices)
                total, old_total = total + new, old_total + old
        assert total < old_total


def image_of(term: PauliProduct, basis: TauSigmaBasis) -> tuple[int, PauliProduct]:
    """transform_group's image of the one-term group 1 * term: (sign, product)."""
    group = Hamiltonian(basis.n_qubits, ((1, term),))
    ((sign, product),) = transform_group(group, basis).transformed.terms
    return sign, product


class TestExpandInTau:
    """Each group term's expansion in the taus, term = p * the product of
    tau_k over a subset, as transform_group writes it: the image is p times
    the product of those sigma_k."""

    def test_h2_two_tau_selection(self):
        basis = h2_reference_basis()
        term = PauliProduct.from_term_string("Z1 Z3", 4)
        assert image_of(term, basis) == (1, sigma_product(basis, (0, 1)))

    def test_tau_expands_to_itself(self):
        basis = h2_reference_basis()
        for j, tau in enumerate(basis.taus):
            assert image_of(tau, basis) == (1, basis.sigma_products[j])

    def test_identity_expands_to_empty_set(self):
        basis = model_reference_basis()
        assert image_of(PauliProduct.identity(2), basis) == (1, PauliProduct.identity(2))

    def test_negative_phase_case(self):
        # Z0 Z2 = (Y0 Y2)(X0 X2) with two -i factors, hence p = -1
        basis = h2_reference_basis()
        term = PauliProduct.from_term_string("Z0 Z2", 4)
        assert image_of(term, basis) == (-1, sigma_product(basis, (2, 3)))

    def test_term_outside_span_rejected(self):
        basis = model_reference_basis()
        with pytest.raises(ValueError, match="group term 0 anticommutes with tau_"):
            image_of(PauliProduct.from_term_string("X0", 2), basis)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 16), st.integers(0, 2**32 - 1))
    def test_read_off_matches_gf2_solve(self, n, seed):
        """Phase-free terms, in the tau span and random ones."""
        rng = random.Random(seed)
        basis = find_sigma([PauliProduct.from_packed(v, n)
                            for v in random_isotropic(n, n, rng)])
        for _ in range(10):
            if rng.random() < 0.3:
                term = random_pauli(n, rng)
            else:
                term = PauliProduct.identity(n)
                for k in range(n):
                    if rng.getrandbits(1):
                        term = term * basis.taus[k]
                term = PauliProduct(n, term.x, term.z)
            try:
                indices, sign = solve_expansion(term, basis)
            except ValueError:
                with pytest.raises(ValueError, match="group term 0 anticommutes with tau_"):
                    image_of(term, basis)
            else:
                assert image_of(term, basis) == (sign, sigma_product(basis, indices))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.booleans())
    def test_matches_product_reference(self, n, seed, from_group):
        """The image of a phase-free term is the product of the sigmas of the
        PauliProduct reference's expansion, with its sign, for terms in the
        tau span, span elements times one single-qubit Pauli, and random
        products; a term the reference rejects, transform_group rejects."""
        rng = random.Random(seed)
        if from_group:
            basis = group_basis(random_commuting_group(n, rng))
        else:
            basis = find_sigma([PauliProduct.from_packed(v, n)
                                for v in random_isotropic(n, n, rng)])
        for _ in range(12):
            term = PauliProduct.identity(n)
            for tau in basis.taus:
                if rng.getrandbits(1):
                    term = term * tau
            kind = rng.randrange(3)
            if kind == 1:
                term = term * PauliProduct.single(n, rng.randrange(n), rng.choice("XYZ"))
            elif kind == 2:
                term = random_pauli(n, rng)
            term = PauliProduct(n, term.x, term.z)
            try:
                indices, sign = product_expand_in_tau(term, basis)
            except ValueError:
                with pytest.raises(ValueError, match="group term 0 (anticommutes with tau_"
                                                     "|acts on qubit )"):
                    image_of(term, basis)
            else:
                assert image_of(term, basis) == (sign, sigma_product(basis, indices))


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

    def test_coefficient_magnitudes_and_signs(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 6)
            h = random_commuting_group(n, rng)
            basis = group_basis(h)
            out = transform_group(h, basis)
            for (c_in, p_in), (c_out, p_out) in zip(h.terms, out.transformed.terms):
                indices, p = product_expand_in_tau(p_in, basis)
                assert p in (1, -1)
                assert (c_out, p_out) == (c_in * p, sigma_product(basis, indices))

    def test_output_is_qwc(self):
        rng = random.Random(6)
        for _ in range(20):
            h = random_commuting_group(rng.randint(1, 8), rng)
            out = transform_group(h, group_basis(h))
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
        basis = group_basis(h)
        with pytest.raises(ValueError):
            build_unitary_symbolic(basis)

    def test_unitary_and_conjugation_both_directions(self):
        rng = random.Random(55)
        bases = [model_reference_basis(), h2_reference_basis()]
        bases += [group_basis(random_commuting_group(rng.randint(1, 6), rng))
                  for _ in range(10)]
        for basis in bases:
            u = verify.dense_matrix(build_unitary_symbolic(basis))
            dim = u.shape[0]
            np.testing.assert_allclose(u @ u.conj().T, np.eye(dim), atol=1e-10)
            for tau, sigma in zip(basis.taus, basis.sigma_products):
                t = verify.dense_matrix(tau)
                s = verify.dense_matrix(sigma)
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

    def test_reads_each_image_off_its_circuit_without_a_second_check(self, monkeypatch):
        """pipeline hands find_sigma's basis to synthesize and the
        conjugation without validating it again; each group equals the
        transform_group result, which does validate."""
        h = random_graph_hamiltonian(10, 60, random.Random(23))
        cover = cover_rlf(build_graph(h, "fc"))
        with monkeypatch.context() as m:
            def refuse(*args, **kwargs):
                raise AssertionError("called from pipeline")

            m.setattr(TauSigmaBasis, "validate", refuse)
            m.setattr(transform_module, "transform_group", refuse)
            plan = pipeline(h, cover)
        for indices, entry in zip(cover.groups, plan.groups):
            sub = Hamiltonian(h.n_qubits, tuple(h.terms[i] for i in indices))
            basis = entry.transform.basis
            assert entry.transform == transform_group(sub, basis, indices)
            assert entry.circuit == synthesize(basis)

    def test_find_tau_and_the_conjugation_share_one_column_build(self, monkeypatch):
        """find_tau's commutation check and transform_group's conjugation
        both read the group's cached columns."""
        group = random_commuting_group(6, random.Random(29))
        builds = count_column_builds(monkeypatch)
        taus = find_tau(group)
        transform_group(group, find_sigma(taus))
        assert tuple(taus) != group.products()
        assert builds[group.products()] == 1

    def test_each_group_columns_are_built_once(self, monkeypatch):
        """pipeline transforms the cover check's group Hamiltonians, so the
        check, find_tau and the conjugation share one column build."""
        h = random_graph_hamiltonian(8, 40, random.Random(31))
        cover = cover_rlf(build_graph(h, "fc"))
        builds = count_column_builds(monkeypatch)
        pipeline(h, cover)
        groups = [tuple(h.terms[i][1] for i in indices) for indices in cover.groups]
        assert len(groups) > 1
        assert [builds[products] for products in groups] == [1] * len(groups)

    def test_invalid_cover_rejected(self):
        h = parse_hamiltonian("1.0 X0\n1.0 Z0\n")
        bad = CliqueCover("fc", "manual", ((0, 1),))
        with pytest.raises(ValueError, match="cover invalid"):
            pipeline(h, bad)

    def test_invalid_cover_error_names_the_count_and_the_first_violation(self):
        # all terms in one group: about half of the 44,850 pairs anticommute
        h = random_graph_hamiltonian(8, 300, random.Random(5))
        cover = CliqueCover("fc", "manual", (tuple(range(len(h.terms))),))
        violations = validate_cover(h, cover, "fc").violations
        assert len(violations) > 10_000
        with pytest.raises(ValueError) as info:
            pipeline(h, cover)
        assert str(info.value) == (f"cover invalid under fc: {len(violations)} "
                                   f"violations, first {violations[0]}")
        assert len(str(info.value)) < 100

    def test_invalid_cover_error_counts_the_missing_terms(self):
        h = random_graph_hamiltonian(8, 300, random.Random(5))
        with pytest.raises(ValueError) as info:
            pipeline(h, CliqueCover("fc", "manual", ((4, 7),)))
        assert str(info.value) == ("cover invalid under fc: 1 violations, "
                                   "first 298 terms in no group, first 0")

    def test_spectrum_and_expectation_preserved(self):
        h = six_term_hamiltonian()
        plan = pipeline(h, cover_rlf(build_graph(h, "fc")))
        for entry in plan.groups:
            sub = Hamiltonian(h.n_qubits,
                              tuple(h.terms[i] for i in entry.transform.term_indices))
            assert verify.spectra_equal(sub, entry.transform.transformed)
        assert_dense_oracles(h, plan)

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
            assert a.circuit == b.circuit

    @pytest.mark.parametrize("workload", ["random-w4", "molecular-jw", "wide-sparse"])
    def test_benchmark_instances_parse_and_roundtrip(self, workload, monkeypatch):
        """Every seed-1 benchmark instance parses as the regex tokenizer
        reads it, and its plan text survives the loader unchanged: the
        golden plans never reach a 1,200-term cover."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
        import workloads
        for inst in workloads.generate(workload, 1, PauliProduct):
            text = inst.to_text()
            h = parse_hamiltonian(text)
            header, *lines = text.splitlines()
            want = []
            for line in lines:
                coeff, *tokens = line.split()
                want.append((float(coeff), *regex_parse_term_tokens(tokens)[:2]))
            assert header == f"qubits: {h.n_qubits}"
            assert [(c, p.x, p.z) for c, p in h.terms] == want
            blob = plan_to_json(pipeline(h, cover_rlf(build_graph(h, "fc"))))
            assert plan_to_json(plan_from_dict(json.loads(blob))) == blob


def stdlib_layout(plan) -> str:
    return json.dumps(reference_plan_dict(plan), indent=2) + "\n"


ONE_QUBIT_GATES = [name for name in GATE_NAMES if name != "CNOT"]


@st.composite
def measurement_plans(draw):
    """Plans of any shape the types allow, not only those the pipeline makes."""
    n = draw(st.integers(1, 5))
    paulis = st.builds(PauliProduct, st.just(n), st.integers(0, (1 << n) - 1),
                       st.integers(0, (1 << n) - 1))
    qubit = st.integers(0, n - 1)
    # True and False are qubits 1 and 0 to CliffordCircuit, but JSON booleans.
    gate_qubit = qubit | st.sampled_from((False, True)[:n])
    gate = st.builds(lambda name, q: Gate(name, (q,)), st.sampled_from(ONE_QUBIT_GATES),
                     gate_qubit)
    if n > 1:
        gate |= st.tuples(gate_qubit, gate_qubit).filter(lambda t: t[0] != t[1]).map(
            lambda t: Gate("CNOT", t))
    # Numbers json.dumps writes other than by repr: bools, a float subclass,
    # NaN and the infinities (from st.floats()).
    coeff = (st.floats() | st.sampled_from([1e-05, 5e-324, 1e+16, -0.0, 1e300])
             | st.integers(-2**70, 2**70) | st.booleans() | st.floats().map(np.float64))
    index = st.integers(0, 2**40) | st.booleans()
    axis = st.sampled_from("XYZ") | st.text(max_size=3)
    group = st.builds(
        lambda indices, taus, sigmas, terms, gates: GroupPlan(
            TransformedGroup(tuple(indices), TauSigmaBasis(n, tuple(taus), tuple(sigmas)),
                             Hamiltonian(n, tuple(terms))),
            CliffordCircuit(n, tuple(gates))),
        st.lists(index, max_size=4), st.lists(paulis, max_size=n),
        st.lists(st.tuples(qubit | st.booleans(), axis), max_size=n),
        st.lists(st.tuples(coeff, paulis), max_size=4), st.lists(gate, max_size=12))
    return MeasurementPlan(n, tuple(draw(st.lists(group, max_size=3))))


class TestPlanToJson:
    """plan_to_json writes the stdlib's indented layout of the plan dict."""

    def test_empty_gate_list_and_empty_plan(self):
        h = model_hamiltonian(0.5, 0.25)
        entry = pipeline(h, cover_rlf(build_graph(h, "fc"))).groups[0]
        plan = MeasurementPlan(2, (GroupPlan(entry.transform, CliffordCircuit(2, ())),))
        assert '"gates": []' in plan_to_json(plan)
        assert plan_to_json(plan) == stdlib_layout(plan)
        assert plan_to_json(MeasurementPlan(2, ())) == stdlib_layout(MeasurementPlan(2, ()))

    def test_coefficients_written_with_an_exponent(self):
        terms = [(c, PauliProduct.from_term_string(s, 2))
                 for c, s in ((1e-05, "X0 X1"), (5e-324, "Z0 Z1"), (1e+16, "Y0 Y1"))]
        h = Hamiltonian(2, tuple(terms))
        plan = pipeline(h, cover_rlf(build_graph(h, "fc")))
        text = plan_to_json(plan)
        assert all(f'"coeff": {c!r}' in text or f'"coeff": {-c!r}' in text
                   for c, _ in terms)
        assert text == stdlib_layout(plan)

    @settings(max_examples=200, deadline=None)
    @given(measurement_plans())
    def test_generated_plans(self, plan):
        assert plan_to_json(plan) == stdlib_layout(plan)

    def test_equal_gates_with_int_and_bool_qubits(self):
        """Gate("H", (1,)) equals Gate("H", (True,)) and Gate("H", (1.0,)),
        yet each is written with its own JSON number, in any order."""
        h = model_hamiltonian(0.5, 0.25)
        entry = pipeline(h, cover_rlf(build_graph(h, "fc"))).groups[0]
        for qubits in ([1, True, 1.0, 1], [True, 1, 1.0, True], [1.0, 1, True]):
            gates = tuple(Gate("H", (q,)) for q in qubits)
            plan = MeasurementPlan(2, (GroupPlan(entry.transform, CliffordCircuit(2, gates)),))
            assert plan_to_json(plan) == stdlib_layout(plan)

    def test_plan_to_dict_reads_the_written_text(self):
        h = six_term_hamiltonian()
        plan = pipeline(h, cover_rlf(build_graph(h, "fc")))
        assert plan_to_dict(plan) == reference_plan_dict(plan)


def three_group_plan() -> dict:
    """A 3-qubit plan dict of three equal groups: its taus, transformed terms
    and gates repeat from group to group, and "Z0 Z1" is both a tau and a
    transformed term."""
    group = {"term_indices": [0], "tau": ["Z0 Z1"], "sigma": [{"qubit": 0, "axis": "X"}],
             "transformed": [{"coeff": 0.5, "pauli": "X0"}, {"coeff": -1, "pauli": "Z0 Z1"}],
             "circuit": {"n_qubits": 3, "gates": [{"name": "H", "qubits": [0]},
                                                  {"name": "CNOT", "qubits": [0, 1]}]}}
    return {"n_qubits": 3, "groups": [json.loads(json.dumps(group)) for _ in range(3)]}


def load_error(d: dict) -> str:
    with pytest.raises(ValueError) as exc:
        plan_from_dict(d)
    return str(exc.value)


class TestPlanFromDict:
    """The plan loader shares parsed term strings and checked gates among the
    groups of a plan; every error names the same group and field as a
    loader that builds each group on its own."""

    def test_equal_items_in_different_groups_load_as_one_object(self):
        first, second, third = plan_from_dict(three_group_plan()).groups
        tau = first.transform.basis.taus[0]
        assert second.transform.basis.taus[0] is tau
        assert first.transform.transformed.terms[1][1] is tau
        assert third.transform.transformed.terms[0][1] is first.transform.transformed.terms[0][1]
        for a, b in zip(first.circuit.gates, third.circuit.gates):
            assert a is b

    def test_a_bad_gate_in_groups_0_and_2_is_named_in_group_0(self):
        d = three_group_plan()
        for gi in (0, 2):
            d["groups"][gi]["circuit"]["gates"].append({"name": "H", "qubits": [3]})
        assert load_error(d) == "plan group 0: gate Gate(name='H', qubits=(3,)) outside 3 qubits"

    def test_a_gate_new_in_a_later_group_is_checked(self):
        d = three_group_plan()
        d["groups"][2]["circuit"]["gates"].append({"name": "CNOT", "qubits": [2, 2]})
        assert load_error(d) == (
            "plan group 2: gate Gate(name='CNOT', qubits=(2, 2)) uses qubit 2 twice")

    def test_a_circuit_of_another_width_is_named_after_its_gates_were_seen(self):
        d = three_group_plan()
        d["groups"][1]["circuit"]["n_qubits"] = 4
        assert load_error(d) == "plan group 1: circuit has 4 qubits, the plan 3"
        # narrower, a seen gate falls outside it first, as the constructor finds
        d["groups"][1]["circuit"]["n_qubits"] = 1
        assert load_error(d) == (
            "plan group 1: gate Gate(name='CNOT', qubits=(0, 1)) outside 1 qubits")

    @pytest.mark.parametrize("qubit", [True, 1.0])
    def test_bool_and_float_qubits_fail_after_the_int_gate_was_seen(self, qubit):
        d = three_group_plan()
        d["groups"][0]["circuit"]["gates"].append({"name": "H", "qubits": [1]})
        d["groups"][1]["circuit"]["gates"].append({"name": "H", "qubits": [qubit]})
        assert load_error(d) == "plan group 1: 'qubits' items must each be an integer"

    def test_a_bad_term_string_in_a_later_group_is_named(self):
        d = three_group_plan()
        d["groups"][1]["transformed"][0]["pauli"] = "X7"
        assert load_error(d) == "plan group 1: qubit index 7 >= n_qubits 3"


def validate_outcome(check) -> str | None:
    try:
        check()
    except ValueError as exc:
        return str(exc)
    return None


class TestBasisValidate:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.integers(0, 8))
    def test_first_violation_matches_pairwise_reference(self, n, seed, kind):
        rng = random.Random(seed)
        group = random_commuting_group(n, rng)
        basis = group_basis(group)
        taus, sigmas = list(basis.taus), list(basis.sigmas)
        if taus:
            i, j = rng.randrange(len(taus)), rng.randrange(len(taus))
        elif kind not in (4, 5, 8):
            kind = 4  # a group of constants has no factor to corrupt
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
        elif kind == 6:
            del sigmas[i]
        elif kind == 7:
            taus[i] = PauliProduct.from_packed(
                (taus[i] * PauliProduct.single(n, rng.randrange(n), rng.choice("XYZ"))).packed,
                n)
        elif kind == 8:
            # One more qubit, with no tau on it and no sigma, and a group term
            # times a Pauli there: it commutes with every tau.
            n += 1
            taus = [PauliProduct(n, t.x, t.z) for t in taus]
            _, p = rng.choice(group.terms)
            extra = PauliProduct.single(n, n - 1, rng.choice("XYZ"))
            group = Hamiltonian(n, tuple((c, PauliProduct(n, t.x, t.z)) for c, t in group.terms)
                                + ((1.0, PauliProduct(n, p.x | extra.x, p.z | extra.z)),))
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
        with pytest.raises(ValueError, match="^sigma qubits must be pairwise distinct$"):
            TauSigmaBasis(n,
                          (PauliProduct.from_term_string("X0 X1", n),
                           PauliProduct.from_term_string("Z0 Z1", n)),
                          ((0, "Z"), (0, "Y"))).validate()

    def test_rejects_non_lagrangian_taus(self):
        n = 2
        # Z0 has no axis on sigma_1's qubit.
        with pytest.raises(ValueError, match="^tau_1 does not anticommute with sigma_1$"):
            TauSigmaBasis(n,
                          (PauliProduct.from_term_string("X0", n),
                           PauliProduct.from_term_string("Z0", n)),
                          ((0, "Z"), (1, "X"))).validate()
        # X0 Z1 reaches qubit 1 and X1 does not reach qubit 0: they anticommute.
        with pytest.raises(ValueError, match="^tau_0 and tau_1 anticommute$"):
            TauSigmaBasis(n,
                          (PauliProduct.from_term_string("X0 Z1", n),
                           PauliProduct.from_term_string("X1", n)),
                          ((0, "Z"), (1, "Z"))).validate()

    def test_rejects_group_term_outside_commutant(self):
        basis = model_reference_basis()
        group = parse_hamiltonian("qubits: 2\n1.0 X0\n")
        with pytest.raises(ValueError, match="anticommutes"):
            basis.validate(group)

    def test_rejects_commuting_group_term_on_a_qubit_without_a_sigma(self):
        # Z2 commutes with the taus of X0 X1 and Z0 Z1, which span no term on qubit 2
        group = parse_hamiltonian("qubits: 3\n1.0 X0 X1\n0.5 Z0 Z1\n")
        basis = group_basis(group)
        wider = parse_hamiltonian("qubits: 3\n1.0 X0 X1\n0.5 Z0 Z1 Z2\n")
        with pytest.raises(ValueError,
                           match="^group term 1 acts on qubit 2, which has no sigma$"):
            basis.validate(wider)
        with pytest.raises(ValueError, match="^group term 0 acts on qubit 0, which has no sigma$"):
            TauSigmaBasis(3, (), ()).validate(group)

    def test_rejects_a_group_of_another_width(self):
        basis = model_reference_basis()
        with pytest.raises(ValueError, match="^group qubit count differs from basis$"):
            basis.validate(parse_hamiltonian("qubits: 3\n1.0 Z0\n"))
