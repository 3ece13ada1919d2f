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
from functools import cached_property
from typing import Iterable, Sequence

from . import gf2
from .circuits import (CliffordCircuit, _field, circuit_from_dict, circuit_to_dict,
                       synthesize)
from .pauli import (I_POWERS, MAX_QUBITS, Hamiltonian, PauliProduct, PauliSum,
                    anticommuting, qubit_columns)

MAX_SYMBOLIC_QUBITS = 8


class TransformError(RuntimeError):
    """Pipeline defect: a contract that valid inputs cannot violate failed."""


def _commute_pairwise(n: int, products: Sequence[PauliProduct]) -> bool:
    """No two of the products anticommute, tested on their term bitsets."""
    xcol, zcol = qubit_columns(n, products)
    return not any(anticommuting(xcol, zcol, p) for p in products)


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

    @cached_property
    def _sigma_columns(self) -> tuple[list[int], list[int]]:
        """The sigmas as per-qubit term bitsets: bit k stands for sigma_k."""
        return qubit_columns(self.n_qubits, map(self.sigma_product, range(self.n_qubits)))

    def validate(self, group: Hamiltonian | None = None) -> None:
        """Raise ValueError naming the first violated invariant, at the lowest
        index; each tau or group term is tested with one bitset."""
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
        if not (gf2.is_independent([t.packed for t in self.taus], 2 * n)
                and _commute_pairwise(n, self.taus)):
            raise ValueError("taus are not a Lagrangian basis")
        for i, tau in enumerate(self.taus):
            wrong = anticommuting(*self._sigma_columns, tau) ^ (1 << i)
            if wrong:
                j = (wrong & -wrong).bit_length() - 1
                raise ValueError(f"tau_{i} does not anticommute with sigma_{i}" if j == i
                                 else f"tau_{i} anticommutes with sigma_{j}")
        if group is not None:
            tau_columns = qubit_columns(n, self.taus)
            for ti, prod in enumerate(group.products()):
                hits = anticommuting(*tau_columns, prod)
                if hits:
                    k = (hits & -hits).bit_length() - 1
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
    symplectic complement. Pairwise commutation is checked first, one term
    bitset per term. Constant terms contribute the zero vector.
    """
    n = group.n_qubits
    products = group.products()
    if not _commute_pairwise(n, products):
        raise ValueError("group terms do not commute")
    basis, _ = gf2.row_reduce([p.packed for p in products], 2 * n)
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
    if (len(vecs) != n or not gf2.is_independent(vecs, 2 * n)
            or not _commute_pairwise(n, taus)):
        raise ValueError("taus are not a Lagrangian basis")
    unassigned = (1 << n) - 1
    sigmas: list[tuple[int, str]] = []
    for i in range(n):
        pick = next((j for j in range(i, n) if (vecs[j] | vecs[j] >> n) & unassigned),
                    None)
        if pick is None:
            raise TransformError("no tau touches an unassigned qubit")
        vecs[i], vecs[pick] = vecs[pick], vecs[i]
        avail = (vecs[i] | vecs[i] >> n) & unassigned
        qubit = (avail & -avail).bit_length() - 1
        # The partner of a Y or Z is X, which anticommutes with the taus that
        # have a z bit on the qubit; the partner of an X is Z (an x bit).
        if vecs[i] >> (n + qubit) & 1:
            axis, probe = "X", 1 << (n + qubit)
        else:
            axis, probe = "Z", 1 << qubit
        for k in range(n):
            if k != i and vecs[k] & probe:
                vecs[k] ^= vecs[i]
        sigmas.append((qubit, axis))
        unassigned &= ~(1 << qubit)
    return TauSigmaBasis(n, tuple(PauliProduct.from_packed(v, n) for v in vecs),
                         tuple(sigmas))


def expand_in_tau(term: PauliProduct, basis: TauSigmaBasis
                  ) -> tuple[tuple[int, ...], int]:
    """Write term as p * product of taus; returns (tau indices, p in {+1,-1}).

    sigma_k anticommutes with tau_k and with no other tau, so tau_k is in
    the expansion exactly when sigma_k anticommutes with the term: the
    subset is read off the basis's sigma columns. The selected taus,
    multiplied in ascending index order, must give the term up to phase,
    which proves it lies in the tau span. Mutually commuting taus force an
    even i-exponent, so p is a sign. The basis must hold the TauSigmaBasis
    invariants.
    """
    if term.n_qubits != basis.n_qubits:
        raise ValueError("qubit-count mismatch")
    n = basis.n_qubits
    selection = anticommuting(*basis._sigma_columns, term)
    indices = tuple(k for k in range(n) if (selection >> k) & 1)
    product = PauliProduct.identity(n)
    for k in indices:
        product = product * basis.taus[k]
    if (product.x, product.z) != (term.x, term.z):
        raise TransformError("term not in tau-span")
    diff = (term.phase_exp - product.phase_exp) % 4
    if diff % 2:
        raise TransformError("expansion phase is imaginary")
    return indices, 1 - diff


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
    sigmas = [basis.sigma_product(k) for k in range(n)]
    out_terms: list[tuple[float, PauliProduct]] = []
    expansions: list[tuple[tuple[int, ...], int]] = []
    for coeff, prod in group.terms:
        subset, phase = expand_in_tau(prod, basis)
        x = z = 0
        for k in subset:
            x |= sigmas[k].x
            z |= sigmas[k].z
        out_terms.append((coeff * phase, PauliProduct(n, x, z)))
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
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"'n_qubits' must be in 1..{MAX_QUBITS}")
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
