"""Turn fully commuting term groups into qubit-wise commuting ones.

For a group of mutually commuting Pauli products the binary images span an
isotropic subspace. A Lagrangian basis containing that subspace supplies N
mutually commuting products (the taus) that commute with every group term;
each tau is paired with a single-qubit sigma that anticommutes with it and
commutes with everything else. Conjugating by the product of reflections
(tau_i + sigma_i)/sqrt(2) then rewrites every term as +/- a product of
sigmas, which is qubit-wise commuting by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import gf2
from .circuits import (CliffordCircuit, _field, circuit_from_dict, circuit_to_dict,
                       synthesize)
from .pauli import I_POWERS, Hamiltonian, PauliProduct, PauliSum

MAX_SYMBOLIC_QUBITS = 8

# Deterministic choice of the anticommuting single-qubit partner.
_SIGMA_AXIS = {"X": "Z", "Y": "X", "Z": "X"}


class TransformError(RuntimeError):
    """Pipeline defect: a contract that valid inputs cannot violate failed."""


@dataclass(frozen=True)
class TauSigmaBasis:
    """Lagrangian tau basis with its single-qubit sigma partners.

    Invariants: taus mutually commute and are GF(2)-independent; sigma_i
    anticommutes with tau_i and commutes with every other tau; sigma qubits
    are pairwise distinct.
    """

    n_qubits: int
    taus: tuple[PauliProduct, ...]
    sigmas: tuple[tuple[int, str], ...]

    def sigma_product(self, i: int) -> PauliProduct:
        qubit, axis = self.sigmas[i]
        return PauliProduct.single(self.n_qubits, qubit, axis)

    def tau_vectors(self) -> list[int]:
        return [t.packed for t in self.taus]

    def validate(self, group: Hamiltonian | None = None) -> None:
        """Raise ValueError naming the first violated invariant."""
        n = self.n_qubits
        if len(self.taus) != n or len(self.sigmas) != n:
            raise ValueError(f"expected {n} taus and sigmas")
        for t in self.taus:
            if t.n_qubits != n:
                raise ValueError("tau qubit count differs from basis")
            if t.phase_exp != 0:
                raise ValueError("taus must carry no phase")
        qubits = [q for q, _ in self.sigmas]
        if len(set(qubits)) != n:
            raise ValueError("sigma qubits must be pairwise distinct")
        vecs = self.tau_vectors()
        if not gf2.is_lagrangian(vecs, n):
            raise ValueError("taus are not a Lagrangian basis")
        sig_vecs = [self.sigma_product(i).packed for i in range(n)]
        for i in range(n):
            for j in range(n):
                inner = gf2.symplectic_inner(vecs[i], sig_vecs[j], n)
                if i == j and inner == 0:
                    raise ValueError(f"tau_{i} does not anticommute with sigma_{i}")
                if i != j and inner == 1:
                    raise ValueError(f"tau_{i} anticommutes with sigma_{j}")
        if group is not None:
            for ti, (_, prod) in enumerate(group.terms):
                pv = prod.packed
                for k, tv in enumerate(vecs):
                    if gf2.symplectic_inner(pv, tv, n):
                        raise ValueError(f"group term {ti} anticommutes with tau_{k}")


@dataclass(frozen=True)
class TransformedGroup:
    """QWC image of one commuting group plus its expansion bookkeeping."""

    term_indices: tuple[int, ...]
    basis: TauSigmaBasis
    transformed: Hamiltonian
    expansions: tuple[tuple[tuple[int, ...], int], ...] = ()


@dataclass(frozen=True)
class GroupPlan:
    transform: TransformedGroup
    circuit: CliffordCircuit


@dataclass(frozen=True)
class MeasurementPlan:
    n_qubits: int
    groups: tuple[GroupPlan, ...]


def find_tau(group: Hamiltonian) -> list[PauliProduct]:
    """N mutually commuting products that commute with every group term.

    Row reduction of the term vectors yields a basis of their span; if its
    rank is below N the basis is grown to a Lagrangian one inside the
    symplectic complement. The terms pairwise commute exactly when that span
    is isotropic, which is checked on the at most 2N reduced rows instead of
    on all term pairs. Constant terms contribute the zero vector.
    """
    n = group.n_qubits
    basis, _ = gf2.row_reduce([p.packed for p in group.products()], 2 * n)
    if not gf2.is_isotropic(basis, n):
        raise ValueError("group terms do not commute")
    if len(basis) < n:
        basis = gf2.lagrangian_extract(gf2.symplectic_complement(basis, n), n)
    return [PauliProduct.from_packed(v, n) for v in basis]


def find_sigma(taus: Sequence[PauliProduct]) -> TauSigmaBasis:
    """Assign a single-qubit sigma to each tau, re-orthogonalizing the rest.

    Step i processes the first remaining tau that still touches an
    unassigned qubit, takes the lowest such qubit, and picks the partner
    axis by the fixed rule X->Z, Y->X, Z->X. Every other tau k (earlier and
    later) is then replaced by tau_k + (tau_k|sigma_i) tau_i: updating only
    the later ones can leave an earlier tau anticommuting with a later
    sigma, which would break the returned invariants.
    """
    if not taus:
        raise ValueError("empty tau basis")
    n = taus[0].n_qubits
    if any(t.n_qubits != n or t.phase_exp != 0 for t in taus):
        raise ValueError("taus must share the qubit count and carry no phase")
    vecs = [t.packed for t in taus]
    if not gf2.is_lagrangian(vecs, n):
        raise ValueError("taus are not a Lagrangian basis")
    mask_n = (1 << n) - 1
    unassigned = mask_n
    sigmas: list[tuple[int, str]] = []
    for i in range(n):
        pick = None
        for j in range(i, n):
            support = (vecs[j] | (vecs[j] >> n)) & mask_n
            if support & unassigned:
                pick = j
                break
        if pick is None:
            raise TransformError("no tau touches an unassigned qubit")
        vecs[i], vecs[pick] = vecs[pick], vecs[i]
        support = (vecs[i] | (vecs[i] >> n)) & mask_n
        avail = support & unassigned
        qubit = (avail & -avail).bit_length() - 1
        tau_axis = {(1, 0): "X", (1, 1): "Y", (0, 1): "Z"}[
            ((vecs[i] >> qubit) & 1, (vecs[i] >> (n + qubit)) & 1)]
        axis = _SIGMA_AXIS[tau_axis]
        sigma_vec = PauliProduct.single(n, qubit, axis).packed
        for k in range(n):
            if k != i and gf2.symplectic_inner(vecs[k], sigma_vec, n):
                vecs[k] ^= vecs[i]
        sigmas.append((qubit, axis))
        unassigned &= ~(1 << qubit)
    return TauSigmaBasis(n, tuple(PauliProduct.from_packed(v, n) for v in vecs),
                         tuple(sigmas))


def expand_in_tau(term: PauliProduct, basis: TauSigmaBasis
                  ) -> tuple[tuple[int, ...], int]:
    """Write term as p * product of taus; returns (tau indices, p in {+1,-1}).

    The subset comes from a GF(2) solve over the tau vectors; the phase from
    exact multiplication of the selected taus in ascending index order.
    Mutually commuting taus force an even i-exponent, so p is a sign.
    """
    if term.n_qubits != basis.n_qubits:
        raise ValueError("qubit-count mismatch")
    n = basis.n_qubits
    try:
        selection = gf2.solve(basis.tau_vectors(), 2 * n, term.packed)
    except gf2.InconsistentSystemError:
        raise TransformError("term not in tau-span") from None
    indices = tuple(k for k in range(n) if (selection >> k) & 1)
    product = PauliProduct.identity(n)
    for k in indices:
        product = product * basis.taus[k]
    diff = (term.phase_exp - product.phase_exp) % 4
    if diff == 0:
        return indices, 1
    if diff == 2:
        return indices, -1
    raise TransformError("expansion phase is imaginary")


def transform_group(group: Hamiltonian, basis: TauSigmaBasis,
                    term_indices: Iterable[int] | None = None) -> TransformedGroup:
    """Map C * P -> C * p * product of sigmas for every group term.

    Constant terms pass through unchanged. The output is supported only on
    sigma qubits with sigma axes, hence qubit-wise commuting, and keeps the
    input coefficient magnitudes term by term.
    """
    basis.validate(group)
    n = group.n_qubits
    indices = tuple(term_indices) if term_indices is not None \
        else tuple(range(len(group.terms)))
    if len(indices) != len(group.terms):
        raise ValueError("term_indices length differs from the group")
    out_terms: list[tuple[float, PauliProduct]] = []
    expansions: list[tuple[tuple[int, ...], int]] = []
    for coeff, prod in group.terms:
        if prod.weight() == 0:
            subset: tuple[int, ...] = ()
            phase = 1
            image = PauliProduct.identity(n)
        else:
            subset, phase = expand_in_tau(prod, basis)
            x = z = 0
            for k in subset:
                s = basis.sigma_product(k)
                x |= s.x
                z |= s.z
            image = PauliProduct(n, x, z)
        out_terms.append((coeff * phase, image))
        expansions.append((subset, phase))
    transformed = Hamiltonian(n, tuple(out_terms))
    return TransformedGroup(indices, basis, transformed, tuple(expansions))


def build_unitary_symbolic(basis: TauSigmaBasis) -> PauliSum:
    """Expand the product of (tau_i + sigma_i)/sqrt(2) into a Pauli sum.

    Factors multiply in ascending i with exact phase tracking; the 2^N
    resulting products are distinct, each weighted by 2^(-N/2) i^k.
    """
    n = basis.n_qubits
    if n > MAX_SYMBOLIC_QUBITS:
        raise ValueError(
            f"symbolic expansion limited to {MAX_SYMBOLIC_QUBITS} qubits, got {n}")
    scale = 2.0 ** (-n / 2)
    sigma_prods = [basis.sigma_product(i) for i in range(n)]
    terms: list[tuple[complex, PauliProduct]] = []
    for mask in range(1 << n):
        product = PauliProduct.identity(n)
        for i in range(n):
            factor = sigma_prods[i] if (mask >> i) & 1 else basis.taus[i]
            product = product * factor
        coeff = scale * I_POWERS[product.phase_exp]
        terms.append((coeff, PauliProduct(n, product.x, product.z)))
    return PauliSum(n, tuple(terms))


def pipeline(h: Hamiltonian, cover) -> MeasurementPlan:
    """Per cover group: find taus and sigmas, transform, synthesize a circuit."""
    from .grouping import validate_cover

    report = validate_cover(h, cover, "fc")
    if not report.valid:
        raise ValueError("cover invalid under fc: " + "; ".join(report.violations))
    entries: list[GroupPlan] = []
    for gi, group_indices in enumerate(cover.groups):
        try:
            sub = Hamiltonian(h.n_qubits,
                              tuple(h.terms[i] for i in group_indices))
            taus = find_tau(sub)
            basis = find_sigma(taus)
            tg = transform_group(sub, basis, group_indices)
            circuit = synthesize(basis)
        except (ValueError, TransformError) as exc:
            raise TransformError(f"group {gi}: {exc}") from exc
        entries.append(GroupPlan(tg, circuit))
    return MeasurementPlan(h.n_qubits, tuple(entries))


def plan_to_dict(plan: MeasurementPlan) -> dict:
    groups = []
    for entry in plan.groups:
        tg = entry.transform
        groups.append({
            "term_indices": list(tg.term_indices),
            "tau": [t.to_term_string() for t in tg.basis.taus],
            "sigma": [{"qubit": q, "axis": a} for q, a in tg.basis.sigmas],
            "transformed": [{"coeff": c, "pauli": p.to_term_string()}
                            for c, p in tg.transformed.terms],
            "circuit": circuit_to_dict(entry.circuit),
        })
    return {"n_qubits": plan.n_qubits, "groups": groups}


def plan_from_dict(d: dict) -> MeasurementPlan:
    """Inverse of plan_to_dict.

    Every field is type-checked in the pass that builds the objects; a
    malformed plan raises ValueError naming the group and the field.
    """
    if not isinstance(d, dict):
        raise ValueError("plan: the top level must be a JSON object")
    try:
        n = _field(d, "n_qubits", int)
        groups = _field(d, "groups", list)
    except ValueError as exc:
        raise ValueError(f"plan: {exc}") from None
    entries = []
    for gi, g in enumerate(groups):
        try:
            basis = TauSigmaBasis(
                n,
                tuple(PauliProduct.from_term_string(s, n)
                      for s in _field(g, "tau", list, str)),
                tuple((_field(s, "qubit", int), _field(s, "axis", str))
                      for s in _field(g, "sigma", list)))
            transformed = Hamiltonian(
                n,
                tuple((float(_field(t, "coeff", (int, float))),
                       PauliProduct.from_term_string(_field(t, "pauli", str), n))
                      for t in _field(g, "transformed", list)))
            tg = TransformedGroup(tuple(_field(g, "term_indices", list, int)),
                                  basis, transformed)
            circuit = circuit_from_dict(_field(g, "circuit", dict))
            if circuit.n_qubits != n:
                raise ValueError(f"circuit has {circuit.n_qubits} qubits, the plan {n}")
        except ValueError as exc:
            raise ValueError(f"plan group {gi}: {exc}") from None
        entries.append(GroupPlan(tg, circuit))
    return MeasurementPlan(n, tuple(entries))
