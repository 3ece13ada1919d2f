"""Shared test utilities: random inputs and independent dense references."""

from __future__ import annotations

import random
import re
import sys
from collections import Counter

import numpy as np

from paulimeasure import (CliffordCircuit, CliqueCover, Gate, Hamiltonian, PauliProduct,
                          TauSigmaBasis, find_sigma, find_tau)
from paulimeasure import gf2, pauli
from paulimeasure.circuits import _Fold
from paulimeasure.pauli import (_BITS_FROM_AXIS, I_POWERS, MAX_QUBITS, anticommuting,
                                qubit_columns)
from paulimeasure.transform import _commute_pairwise
from paulimeasure.verify import dense_matrix, dense_pauli

AXES = "IXYZ"


# Test-only builders and writers that the package does not use: a product
# from an 'IXYZ' label, the Hamiltonian text writer and a circuit's dict form.

def pauli_from_label(label: str, phase_exp: int = 0) -> PauliProduct:
    """Build from an 'IXYZ' style string; character ``i`` is qubit ``i``."""
    x = z = 0
    for q, a in enumerate(label):
        bits = _BITS_FROM_AXIS.get(a)
        if bits is None:
            raise ValueError(f"invalid Pauli character {a!r}")
        x |= bits[0] << q
        z |= bits[1] << q
    return PauliProduct(len(label), x, z, phase_exp)


def serialize_hamiltonian(h: Hamiltonian) -> str:
    """Inverse of parse_hamiltonian up to term order and float formatting."""
    lines = [f"qubits: {h.n_qubits}"]
    lines.extend(f"{coeff!r} {prod.to_term_string()}" for coeff, prod in h.terms)
    return "\n".join(lines) + "\n"


def circuit_to_dict(c: CliffordCircuit) -> dict:
    """The circuit object of plan JSON, the input of circuit_from_dict."""
    return {
        "n_qubits": c.n_qubits,
        "global_phase_exp": c.global_phase_exp,
        "gates": [{"name": g.name, "qubits": list(g.qubits)} for g in c.gates],
    }


def count_column_builds(monkeypatch) -> Counter:
    """Calls of ``pauli.qubit_columns`` from here on, counted by the tuple of
    products passed, through every package module that binds the function."""
    original = pauli.qubit_columns
    builds: Counter = Counter()

    def counted(n_qubits, products):
        products = tuple(products)
        builds[products] += 1
        return original(n_qubits, products)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "paulimeasure" and \
                getattr(module, "qubit_columns", None) is original:
            monkeypatch.setattr(module, "qubit_columns", counted)
    return builds


def random_pauli(n_qubits: int, rng: random.Random, phase: bool = False) -> PauliProduct:
    label = "".join(rng.choice(AXES) for _ in range(n_qubits))
    return pauli_from_label(label, rng.randrange(4) if phase else 0)


def all_paulis(n_qubits: int):
    """All 4^n phase-free products, lexicographic in (x, z)."""
    for x in range(1 << n_qubits):
        for z in range(1 << n_qubits):
            yield PauliProduct(n_qubits, x, z)


# GF(2) solving and subspace predicates. The pipeline needs none of them
# (it reads each group's image off its circuit and checks bases on term
# bitsets); they stay here as the references the tests compare against.

class InconsistentSystemError(ValueError):
    """Linear system has no solution over GF(2)."""


def solve(rows: list[int], n_cols: int, b: int) -> int:
    """Selection mask x with XOR of rows[k] over set bits of x equal to b.

    Free variables are fixed to 0; raises InconsistentSystemError when b is
    outside the row span.
    """
    pivots: dict[int, tuple[int, int]] = {}
    for idx, row in enumerate(rows):
        r, comb = row, 1 << idx
        while r:
            p = (r & -r).bit_length() - 1
            if p not in pivots:
                pivots[p] = (r, comb)
                break
            pr, pcomb = pivots[p]
            r ^= pr
            comb ^= pcomb
    x = 0
    r = b
    while r:
        p = (r & -r).bit_length() - 1
        if p not in pivots:
            raise InconsistentSystemError("target vector is outside the row span")
        pr, pcomb = pivots[p]
        r ^= pr
        x ^= pcomb
    return x


def in_span(rows: list[int], n_cols: int, v: int) -> bool:
    try:
        solve(rows, n_cols, v)
    except InconsistentSystemError:
        return False
    return True


def is_isotropic(rows: list[int], n_qubits: int) -> bool:
    return all(gf2.symplectic_inner(rows[i], rows[j], n_qubits) == 0
               for i in range(len(rows)) for j in range(i + 1, len(rows)))


def is_lagrangian(rows: list[int], n_qubits: int) -> bool:
    return (len(rows) == n_qubits
            and gf2.is_independent(rows)
            and is_isotropic(rows, n_qubits))


def random_subspace(n_qubits: int, dim: int, rng: random.Random) -> list[int]:
    """Random independent packed vectors, no isotropy constraint."""
    vecs: list[int] = []
    while len(vecs) < dim:
        v = rng.getrandbits(2 * n_qubits)
        if v and not in_span(vecs, 2 * n_qubits, v):
            vecs.append(v)
    return vecs


def random_isotropic(n_qubits: int, dim: int, rng: random.Random) -> list[int]:
    """Random independent, mutually orthogonal packed vectors."""
    vecs: list[int] = []
    while len(vecs) < dim:
        comp = gf2.symplectic_complement(vecs, n_qubits, (1 << n_qubits) - 1)
        mask = rng.randrange(1, 1 << len(comp))
        v = 0
        for k in range(len(comp)):
            if (mask >> k) & 1:
                v ^= comp[k]
        if v and not in_span(vecs, 2 * n_qubits, v):
            vecs.append(v)
    return vecs


def random_commuting_group(n_qubits: int, rng: random.Random) -> Hamiltonian:
    """Random mutually commuting group from a random Lagrangian basis."""
    basis = random_isotropic(n_qubits, n_qubits, rng)
    max_terms = min(12, 1 << n_qubits)
    n_terms = rng.randint(1, max_terms)
    masks = rng.sample(range(1 << n_qubits), n_terms)
    terms = []
    for mask in masks:
        v = 0
        for k in range(n_qubits):
            if (mask >> k) & 1:
                v ^= basis[k]
        coeff = rng.uniform(0.05, 2.0) * rng.choice((-1.0, 1.0))
        mask_n = (1 << n_qubits) - 1
        terms.append((coeff, PauliProduct(n_qubits, v & mask_n, v >> n_qubits)))
    return Hamiltonian.from_terms(n_qubits, terms)


def embedded_group(k: int, n: int, rng: random.Random) -> Hamiltonian:
    """A random commuting group on k qubits, placed on k random qubits of an
    n-qubit register."""
    small = random_commuting_group(k, rng)
    qubits = rng.sample(range(n), k)

    def place(bits):
        return sum(((bits >> i) & 1) << q for i, q in enumerate(qubits))

    return Hamiltonian(n, tuple((c, PauliProduct(n, place(p.x), place(p.z)))
                                for c, p in small.terms))


def random_graph_hamiltonian(n_qubits: int, n_terms: int, rng: random.Random) -> Hamiltonian:
    """Random Hamiltonian with distinct non-identity terms (no commutation constraint)."""
    seen = set()
    terms = []
    while len(terms) < n_terms:
        x = rng.getrandbits(n_qubits)
        z = rng.getrandbits(n_qubits)
        if (x, z) == (0, 0) or (x, z) in seen:
            continue
        seen.add((x, z))
        terms.append((rng.uniform(0.1, 1.0), PauliProduct(n_qubits, x, z)))
    return Hamiltonian.from_terms(n_qubits, terms)


# The Kronecker-product route to a Pauli's dense matrix, which the
# signed-permutation build of verify.dense_pauli replaced. Tests require
# exact equality.

_PAULI_2X2 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_I_POWERS = (1, 1j, -1, -1j)


def kron_pauli(p: PauliProduct) -> np.ndarray:
    m = np.ones((1, 1), dtype=complex)
    for q in range(p.n_qubits):
        m = np.kron(m, _PAULI_2X2[p.axis(q)])
    return _I_POWERS[p.phase_exp] * m


# The dict form of a plan as plan_to_dict built it before the plan writer
# became a template: json.dumps(reference_plan_dict(p), indent=2) + "\n" is
# the reference for the bytes of transform.plan_to_json.

def reference_plan_dict(plan) -> dict:
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


def conjugation_maps_paulis_to_paulis(u: np.ndarray, n_qubits: int,
                                      tol: float = 1e-8) -> bool:
    """True when U P U^dag is a phase times one Pauli product for every P."""
    dim = 1 << n_qubits
    basis = [dense_pauli(p) for p in all_paulis(n_qubits)]
    for p_mat in basis:
        m = u @ p_mat @ u.conj().T
        hits = 0
        for q_mat in basis:
            coeff = np.trace(q_mat.conj().T @ m) / dim
            if abs(coeff) > tol:
                hits += 1
                if abs(abs(coeff) - 1.0) > tol:
                    return False
        if hits != 1:
            return False
    return True


# Naive references for the bitset grouping code: pairwise relation tests,
# the linear-scan DSATUR it replaced, the bucket-queue DSATUR with its color
# test on shifted ints and the RLF that scans every candidate for each pick.
# Tests require identical results.

def pairwise_graph_rows(h: Hamiltonian, relation: str) -> tuple[int, ...]:
    """Adjacency rows by testing every term pair with the product predicates."""
    prods = h.products()
    rows = []
    for i, p in enumerate(prods):
        row = 0
        for j, q in enumerate(prods):
            ok = p.qwc_with(q) if relation == "qwc" else p.commutes_with(q)
            if j != i and ok:
                row |= 1 << j
        rows.append(row)
    return tuple(rows)


def pairwise_violations(h: Hamiltonian, groups, relation: str) -> list[str]:
    """validate_cover's violation list, with every in-group pair tested."""
    n = len(h.terms)
    prods = h.products()
    violations: list[str] = []
    seen: set[int] = set()
    for gi, group in enumerate(groups):
        for v in group:
            if not 0 <= v < n:
                violations.append(f"group {gi}: index {v} out of range")
                continue
            if v in seen:
                violations.append(f"group {gi}: index {v} appears twice in the cover")
            seen.add(v)
        inside = [v for v in group if 0 <= v < n]
        for a in range(len(inside)):
            for b in range(a + 1, len(inside)):
                i, j = inside[a], inside[b]
                ok = prods[i].qwc_with(prods[j]) if relation == "qwc" \
                    else prods[i].commutes_with(prods[j])
                if not ok:
                    violations.append(f"group {gi}: terms {i} and {j} violate {relation}")
    missing = [v for v in range(n) if v not in seen]
    if missing:
        violations.append(f"{len(missing)} terms in no group, first {missing[0]}")
    return violations


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _lowest_free_color(forbidden: set[int]) -> int:
    c = 0
    while c in forbidden:
        c += 1
    return c


def naive_dsatur_colors(graph) -> list[int]:
    n = graph.n_vertices
    colors = [-1] * n
    neighbor_colors: list[set[int]] = [set() for _ in range(n)]
    for _ in range(n):
        v = min((u for u in range(n) if colors[u] < 0),
                key=lambda u: (-len(neighbor_colors[u]), u))
        c = _lowest_free_color(neighbor_colors[v])
        colors[v] = c
        for u in _bits(graph.conflicts[v]):
            neighbor_colors[u].add(c)
    return colors


def shifting_dsatur_colors(graph) -> list[int]:
    """DSATUR by saturation buckets, as grouping._dsatur_colors was before
    its bit-sliced saturation counter and blocked first fit: ``buckets[s]``
    holds the uncolored vertices of saturation s, a rising vertex moves up
    one bucket by a walk down from the top one, and first fit tests every
    color on the int ``seen[c]``."""
    n = graph.n_vertices
    colors = [-1] * n
    seen: list[int] = []
    buckets = [0] * (n + 1)
    buckets[0] = uncolored = (1 << n) - 1
    top = 0
    for _ in range(n):
        while not buckets[top]:
            top -= 1
        bit = buckets[top] & -buckets[top]
        v = bit.bit_length() - 1
        buckets[top] ^= bit
        uncolored ^= bit
        c = 0
        while c < len(seen) and (seen[c] >> v) & 1:
            c += 1
        if c == len(seen):
            seen.append(0)
        colors[v] = c
        row = graph.conflicts[v]
        rising = row & ~seen[c] & uncolored
        seen[c] |= row
        s = top
        while rising:
            moved = buckets[s] & rising
            if moved:
                buckets[s] ^= moved
                buckets[s + 1] |= moved
                rising ^= moved
            s -= 1
        if buckets[top + 1]:
            top += 1
    return colors


def ripple_add(counter: list[int], row: int) -> None:
    """Add 1 to the count of every vertex in ``row`` of a bit-sliced counter
    (bit v of slice j is bit j of vertex v's count): a ripple-carry add of
    one row, as grouping added rows before its batched carry-save add."""
    j = 0
    while row:
        s = counter[j]
        counter[j] = s ^ row
        row &= s
        j += 1


def scanning_cover_rlf(graph) -> CliqueCover:
    """grouping.cover_rlf with every seed and pick found by a popcount of each
    uncovered vertex's or candidate's row."""
    rows = graph.conflicts
    uncovered = (1 << graph.n_vertices) - 1
    groups: list[tuple[int, ...]] = []
    while uncovered:
        seed = None
        seed_deg = -1
        for v in _bits(uncovered):
            deg = (rows[v] & uncovered).bit_count()
            if deg > seed_deg:
                seed, seed_deg = v, deg
        members = [seed]
        excluded = rows[seed] & uncovered
        candidates = uncovered & ~excluded & ~(1 << seed)
        while candidates:
            pick = None
            pick_score = -1
            for v in _bits(candidates):
                score = (rows[v] & excluded).bit_count()
                if score > pick_score:
                    pick, pick_score = v, score
            members.append(pick)
            nb = rows[pick]
            excluded |= nb & candidates
            candidates &= ~(nb | (1 << pick))
        members.sort()
        groups.append(tuple(members))
        for v in members:
            uncovered &= ~(1 << v)
    return CliqueCover(graph.relation, "rlf", tuple(groups))


# Earlier forms of the tau/sigma stage, kept as references: the row
# reduction that scans every column, the extraction sweep with one
# symplectic_inner call per pair test, the extraction that rescans all pairs
# each round, the expansion by a GF(2) solve and the basis check by pairwise
# symplectic inner products. Tests require results identical to the
# library's lowest-bit reduction, bitset sweep, images read off the circuit
# (``sigma_product`` of the expansion) and bitset checks.

def column_scan_row_reduce(rows: list[int], n_cols: int) -> tuple[list[int], list[int]]:
    """RREF by scanning every column for a pivot, lowest column first."""
    work = list(rows)
    pivots: list[int] = []
    row_i = 0
    for col in range(n_cols):
        sel = None
        for k in range(row_i, len(work)):
            if (work[k] >> col) & 1:
                sel = k
                break
        if sel is None:
            continue
        work[row_i], work[sel] = work[sel], work[row_i]
        piv = work[row_i]
        for k in range(len(work)):
            if k != row_i and (work[k] >> col) & 1:
                work[k] ^= piv
        pivots.append(col)
        row_i += 1
        if row_i == len(work):
            break
    return work[:row_i], pivots


def pairwise_lagrangian_extract(rows: list[int], n_qubits: int) -> list[int]:
    """The left-to-right sweep with one symplectic_inner call per test."""
    work = list(rows)
    i = 0
    while i < len(work):
        ci = work[i]
        j = next((j for j in range(i + 1, len(work))
                  if gf2.symplectic_inner(ci, work[j], n_qubits)), None)
        if j is not None:
            cj = work.pop(j)
            for k in range(i + 1, len(work)):
                ck = work[k]
                if gf2.symplectic_inner(ck, cj, n_qubits):
                    work[k] ^= ci
                if gf2.symplectic_inner(ck, ci, n_qubits):
                    work[k] ^= cj
        i += 1
    if len(work) != n_qubits:
        raise ValueError(
            f"input is not coisotropic: extracted {len(work)} of {n_qubits} vectors")
    return work


def rescanning_lagrangian_extract(rows: list[int], n_qubits: int) -> list[int]:
    work = list(rows)
    while True:
        pair = None
        for i in range(len(work)):
            for j in range(i + 1, len(work)):
                if gf2.symplectic_inner(work[i], work[j], n_qubits):
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            break
        i, j = pair
        ci, cj = work[i], work[j]
        nxt = []
        for k, ck in enumerate(work):
            if k == j:
                continue
            if k == i:
                nxt.append(ci)
                continue
            v = ck
            if gf2.symplectic_inner(ck, cj, n_qubits):
                v ^= ci
            if gf2.symplectic_inner(ck, ci, n_qubits):
                v ^= cj
            nxt.append(v)
        work = nxt
    if len(work) != n_qubits:
        raise ValueError(
            f"input is not coisotropic: extracted {len(work)} of {n_qubits} vectors")
    return work


def solve_expansion(term: PauliProduct, basis) -> tuple[tuple[int, ...], int]:
    """(tau indices, sign) with the subset from solve over the tau rows.

    Raises ValueError when the term is outside the tau span or the phase is
    imaginary.
    """
    n = basis.n_qubits
    selection = solve([t.packed for t in basis.taus], 2 * n, term.packed)
    indices = tuple(k for k in range(n) if (selection >> k) & 1)
    product = PauliProduct.identity(n)
    for k in indices:
        product = product * basis.taus[k]
    diff = (term.phase_exp - product.phase_exp) % 4
    if diff == 0:
        return indices, 1
    if diff == 2:
        return indices, -1
    raise ValueError("expansion phase is imaginary")


# The expansion of a term in the taus, term = sign * the product of the
# selected taus, by one PauliProduct product per selected tau: how the
# transform once computed every group term's image, before it read the
# images off the circuit. Tests require transform_group to map a term with
# this expansion to sign * sigma_product(basis, indices), and to reject a
# term that this rejects.

def product_expand_in_tau(term: PauliProduct, basis: TauSigmaBasis
                          ) -> tuple[tuple[int, ...], int]:
    if term.n_qubits != basis.n_qubits:
        raise ValueError("qubit-count mismatch")
    n = basis.n_qubits
    selection = anticommuting(*basis.sigma_columns, term)
    indices = tuple(k for k in range(n) if (selection >> k) & 1)
    product = PauliProduct.identity(n)
    for k in indices:
        product = product * basis.taus[k]
    if (product.x, product.z) != (term.x, term.z):
        raise ValueError("term not in tau-span")
    diff = (term.phase_exp - product.phase_exp) % 4
    if diff % 2:
        raise ValueError("expansion phase is imaginary")
    return indices, 1 - diff


def sigma_product(basis: TauSigmaBasis, indices) -> PauliProduct:
    """The product of sigma_k over the tau indices k, phase-free since the
    sigma qubits differ: the image of a term whose expansion selects them."""
    x = z = 0
    for k in indices:
        x |= basis.sigma_products[k].x
        z |= basis.sigma_products[k].z
    return PauliProduct(basis.n_qubits, x, z)


# The paper's U as a Pauli sum, which the package exported until the
# tableau row of `measure verify` proved the circuit at every width. Tests
# use it as the symbolic reference.

MAX_SYMBOLIC_QUBITS = 8


class PauliSum(Hamiltonian):
    """Complex linear combination of Pauli products, such as the expanded U.
    As a Hamiltonian, ``verify.dense_matrix`` builds its matrix. Its terms
    may carry phases; only their qubit counts are checked."""

    def __init__(self, n_qubits: int, terms: tuple[tuple[complex, PauliProduct], ...]) -> None:
        if any(p.n_qubits != n_qubits for _, p in terms):
            raise ValueError("term qubit count differs from the sum")
        vars(self).update(n_qubits=n_qubits, terms=terms)


def build_unitary_symbolic(basis: TauSigmaBasis) -> PauliSum:
    """Expand the product of (tau_i + sigma_i)/sqrt(2) into a Pauli sum.

    Factors multiply in ascending i with exact phase tracking; the 2^m
    resulting products of the m factors are distinct, each weighted by
    2^(-m/2) i^k.
    """
    n = basis.n_qubits
    if n > MAX_SYMBOLIC_QUBITS:
        raise ValueError(
            f"symbolic expansion limited to {MAX_SYMBOLIC_QUBITS} qubits, got {n}")
    m = len(basis.taus)
    scale = 2.0 ** (-m / 2)
    sigma_prods = basis.sigma_products
    terms: list[tuple[complex, PauliProduct]] = []
    for mask in range(1 << m):
        product = PauliProduct.identity(n)
        for i in range(m):
            factor = sigma_prods[i] if (mask >> i) & 1 else basis.taus[i]
            product = product * factor
        coeff = scale * I_POWERS[product.phase_exp]
        terms.append((coeff, PauliProduct(n, product.x, product.z)))
    return PauliSum(n, tuple(terms))


def pairwise_validate(basis, group: Hamiltonian | None = None) -> None:
    """TauSigmaBasis.validate with every pair tested by a symplectic inner product."""
    n, m = basis.n_qubits, len(basis.taus)
    if len(basis.sigmas) != m:
        raise ValueError(f"{m} taus for {len(basis.sigmas)} sigmas")
    for t in basis.taus:
        if t.n_qubits != n:
            raise ValueError("tau qubit count differs from basis")
        if t.phase_exp != 0:
            raise ValueError("taus must carry no phase")
    if len({q for q, _ in basis.sigmas}) != m:
        raise ValueError("sigma qubits must be pairwise distinct")
    sig_vecs = [s.packed for s in basis.sigma_products]
    sigma_qubits = {q for q, _ in basis.sigmas}
    for i, t in enumerate(basis.taus):
        for q in range(n):
            if t.axis(q) != "I" and q not in sigma_qubits:
                raise ValueError(f"tau_{i} acts on qubit {q}, which has no sigma")
    vecs = [t.packed for t in basis.taus]
    if not (gf2.is_independent(vecs) and is_isotropic(vecs, n)):
        raise ValueError("taus are not a Lagrangian basis")
    for i in range(m):
        for j in range(m):
            inner = gf2.symplectic_inner(vecs[i], sig_vecs[j], n)
            if i == j and inner == 0:
                raise ValueError(f"tau_{i} does not anticommute with sigma_{i}")
            if i != j and inner == 1:
                raise ValueError(f"tau_{i} anticommutes with sigma_{j}")
    if group is not None:
        if group.n_qubits != n:
            raise ValueError("group qubit count differs from basis")
        for ti, (_, prod) in enumerate(group.terms):
            for k, tv in enumerate(vecs):
                if gf2.symplectic_inner(prod.packed, tv, n):
                    raise ValueError(f"group term {ti} anticommutes with tau_{k}")
        for ti, (_, prod) in enumerate(group.terms):
            for q in range(n):
                if prod.axis(q) != "I" and q not in sigma_qubits:
                    raise ValueError(f"group term {ti} acts on qubit {q}, which has no sigma")


# The Kronecker-embedding route to a circuit's dense matrix: one 2^n x 2^n
# matrix per gate and a matrix product per gate. Tests require
# verify.dense_circuit to agree to 1e-12.

_GATE_2X2 = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _embed_1q(mat: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    left = np.eye(1 << qubit, dtype=complex)
    right = np.eye(1 << (n_qubits - qubit - 1), dtype=complex)
    return np.kron(np.kron(left, mat), right)


def kron_gate(gate: Gate, n_qubits: int) -> np.ndarray:
    if gate.name == "CNOT":
        control, target = gate.qubits
        p0 = np.array([[1, 0], [0, 0]], dtype=complex)
        p1 = np.array([[0, 0], [0, 1]], dtype=complex)
        return (_embed_1q(p0, control, n_qubits)
                + _embed_1q(p1, control, n_qubits)
                @ _embed_1q(_GATE_2X2["X"], target, n_qubits))
    return _embed_1q(_GATE_2X2[gate.name], gate.qubits[0], n_qubits)


def kron_circuit(c: CliffordCircuit) -> np.ndarray:
    u = np.eye(1 << c.n_qubits, dtype=complex)
    for gate in c.gates:
        u = kron_gate(gate, c.n_qubits) @ u
    return np.exp(1j * np.pi / 4 * c.global_phase_exp) * u


_INVERSE_NAME = {"H": "H", "S": "SDG", "SDG": "S",
                 "X": "X", "Y": "Y", "Z": "Z", "CNOT": "CNOT"}


def inverse_circuit(c: CliffordCircuit) -> CliffordCircuit:
    gates = tuple(Gate(_INVERSE_NAME[g.name], g.qubits) for g in reversed(c.gates))
    return CliffordCircuit(c.n_qubits, gates, -c.global_phase_exp)


# append_exponent (below) as it was before it stepped over the set bits of
# the support: one test per register qubit. A target qubit of the support
# goes last in the ladder, as ladder_synthesize puts the sigma qubit. Tests
# require equal gates.

def scanning_exponent_gates(p: PauliProduct, target: int | None = None) -> list[Gate]:
    support = [q for q in range(p.n_qubits) if (p.support >> q) & 1 and q != target]
    if target is not None:
        support.append(target)
    pre: list[Gate] = []
    post: list[Gate] = []
    for q in support:
        a = p.axis(q)
        if a == "X":
            pre.append(Gate("H", (q,)))
            post.append(Gate("H", (q,)))
        elif a == "Y":
            pre.extend((Gate("SDG", (q,)), Gate("H", (q,))))
            post.extend((Gate("H", (q,)), Gate("S", (q,))))
    ladder = [Gate("CNOT", (support[k], support[k + 1]))
              for k in range(len(support) - 1)]
    return pre + ladder + [Gate("SDG", (support[-1],))] + ladder[::-1] + post


class LiteralGates:
    """The ``run`` / ``cnot`` interface of circuits._Fold, keeping every
    gate as it comes."""

    def __init__(self, n_qubits: int) -> None:
        self.n_qubits = n_qubits
        self.gates: list[Gate] = []

    def run(self, names: tuple[str, ...], q: int) -> None:
        self.gates += [Gate(name, (q,)) for name in names]

    def cnot(self, control: int, target: int) -> None:
        self.gates.append(Gate("CNOT", (control, target)))

    def circuit(self, global_phase_exp: int) -> CliffordCircuit:
        return CliffordCircuit(self.n_qubits, tuple(self.gates), global_phase_exp)


# The ladder synthesis that circuits.synthesize used before its graph form,
# kept as a reference: the same unitary, global phase included, factor by
# factor. A factor V = (tau + sigma)/sqrt(2) with {tau, sigma} = 0 is
# (-i) e^(i pi/4 sigma) e^(i pi/4 tau) e^(i pi/4 sigma), and each pi/4 Pauli
# exponent lowers to H/S/CNOT. Its gates go through circuits._Fold with the
# CNOT cancellation that the ladders relied on (after Hastings et al.,
# arXiv:1403.1539).

# Single-qubit runs, first gate first: an axis to Z and back, and the whole
# of e^(-i pi/4) exp(i pi/4 A) for a one-qubit A, as append_exponent lowers it.
_TO_Z = {"X": ("H",), "Y": ("SDG", "H")}
_FROM_Z = {"X": ("H",), "Y": ("H", "S")}
_EXPONENT_1Q = {a: _TO_Z.get(a, ()) + ("SDG",) + _FROM_Z.get(a, ()) for a in "XYZ"}


def append_exponent(fold, p: PauliProduct, ladder: list[int]) -> None:
    """Emit the gates of e^(-i pi/4) exp(i pi/4 P), P phase-free and not I.

    Basis changes map every support axis to Z, a CNOT ladder over the
    support qubits in the order ``ladder`` (the support of P, each qubit
    once) folds the parity onto the last of them, and exp(i pi/4 Z) =
    e^(i pi/4) SDG supplies the rotation; the ladder and basis changes are
    then undone. Weight w costs 2(w-1) CNOTs before any cancels in the
    fold. ``fold`` is anything with the ``run`` and ``cnot`` of
    ``CancellingFold``.
    """
    x, z = p.x, p.z
    # The X and Y qubits with their axes; a Z needs no basis change.
    changes = [(q, "Y" if z >> q & 1 else "X") for q in ladder if x >> q & 1]
    for q, a in changes:
        fold.run(_TO_Z[a], q)
    for k in range(len(ladder) - 1):
        fold.cnot(ladder[k], ladder[k + 1])
    fold.run(("SDG",), ladder[-1])
    for k in reversed(range(len(ladder) - 1)):
        fold.cnot(ladder[k], ladder[k + 1])
    for q, a in changes:
        fold.run(_FROM_Z[a], q)


class CancellingFold(_Fold):
    """circuits._Fold that also cancels a CNOT which would directly follow
    the same CNOT (same control and target) on both of its qubits, with
    both pending runs the identity: neither is written. ``written[q]`` is
    the stack of the indices of the gates written on qubit q, so cancelling
    pops the pair and exposes the gates before it, and a run of such pairs
    telescopes. Runs already written are not folded again. A run of several
    gates is applied one gate at a time."""

    def __init__(self, n_qubits: int) -> None:
        super().__init__(n_qubits)
        self.written = [[-1] for _ in range(n_qubits)]

    def run(self, names: tuple[str, ...], q: int) -> None:
        for name in names:
            super().run((name,), q)

    def _write(self, q: int) -> None:
        if self.pending[q]:
            super()._write(q)
            self.written[q].append(len(self.gates) - 1)

    def cnot(self, control: int, target: int) -> None:
        on_control, on_target = self.written[control], self.written[target]
        k = on_control[-1]
        # Gate k is on both qubits, so it is a CNOT between them.
        if (k == on_target[-1] >= 0 and self.gates[k].qubits[0] == control
                and not self.pending[control] and not self.pending[target]):
            self.gates[k] = None
            on_control.pop()
            on_target.pop()
            return
        super().cnot(control, target)
        on_control.append(len(self.gates) - 1)
        on_target.append(len(self.gates) - 1)

    def circuit(self, global_phase_exp: int) -> CliffordCircuit:
        c = super().circuit(global_phase_exp)
        return CliffordCircuit(c.n_qubits, tuple(filter(None, c.gates)), c.global_phase_exp)


def ladder_synthesize(basis: TauSigmaBasis) -> CliffordCircuit:
    """The product of reflections as CNOT ladders, in prefix order.

    Each factor's tau ladder runs over the tau's other qubits in ascending
    order and ends on its sigma qubit. The factors are emitted in
    lexicographic order of their ladders off the sigma qubit, ties by index,
    so that consecutive ladders share their longest prefixes and the fold
    cancels the shared CNOT pairs: 2(w-1) CNOTs for a weight-w tau is an
    upper bound. A factor adds 6 + 3 = 9 to the phase exponent: -i is
    e^(i pi/4 * 6) and each exponent's gates lack e^(i pi/4). Each factor
    is checked on its own, so a one-factor basis whose tau acts on qubits
    without a sigma is lowered too.
    """
    n = basis.n_qubits
    for i, tau in enumerate(basis.taus):
        q, a = basis.sigmas[i]
        if a not in _EXPONENT_1Q or not 0 <= q < n:
            raise ValueError(f"sigma_{i} must be X, Y or Z on a qubit of the register")
        if tau.phase_exp:
            raise ValueError("exponent Pauli must carry no phase")
        if tau.axis(q) in ("I", a):
            raise ValueError("tau and sigma must anticommute")
    ladders = [[k for k in range(n) if tau.support >> k & 1 and k != q]
               for tau, (q, _) in zip(basis.taus, basis.sigmas)]
    fold = CancellingFold(n)
    for i in sorted(range(len(ladders)), key=ladders.__getitem__):
        q, a = basis.sigmas[i]
        fold.run(_EXPONENT_1Q[a], q)
        append_exponent(fold, basis.taus[i], ladders[i] + [q])
        fold.run(_EXPONENT_1Q[a], q)
    return fold.circuit(9 * len(basis.taus))


def fold_circuit(c: CliffordCircuit) -> CliffordCircuit:
    """c with its gates fed through circuits._Fold one by one."""
    fold = _Fold(c.n_qubits)
    for g in c.gates:
        if g.name == "CNOT":
            fold.cnot(*g.qubits)
        else:
            fold.run((g.name,), g.qubits[0])
    return fold.circuit(c.global_phase_exp)


def qubit_runs(c: CliffordCircuit) -> list[list[int]]:
    """Per qubit, the lengths of its single-qubit runs: the gates before its
    first CNOT, between consecutive CNOTs on it, and after its last."""
    runs = [[0] for _ in range(c.n_qubits)]
    for g in c.gates:
        if g.name == "CNOT":
            for q in g.qubits:
                runs[q].append(0)
        else:
            runs[g.qubits[0]][-1] += 1
    return runs


# The paper's U, the product of (tau_i + sigma_i)/sqrt(2) in factor order,
# as one dense matrix product per factor.

def matrix_product_symbolic_unitary(basis: TauSigmaBasis) -> np.ndarray:
    u = np.eye(1 << basis.n_qubits, dtype=complex)
    for tau, sigma in zip(basis.taus, basis.sigma_products):
        u = u @ ((dense_pauli(tau) + dense_pauli(sigma)) / np.sqrt(2))
    return u


# pauli.parse_term_tokens as it was before it decoded tokens with a table:
# one regex fullmatch per token into a {qubit: axis} dict, here returned
# as (x, z, highest qubit). Tests require the same result or error.

_TERM_TOKEN = re.compile(r"([XYZ])(\d+)\Z")


def regex_parse_term_tokens(tokens: list[str]) -> tuple[int, int, int]:
    if not tokens:
        raise ValueError("empty term")
    if tokens == ["I"]:
        return 0, 0, -1
    assignment: dict[int, str] = {}
    for tok in tokens:
        m = _TERM_TOKEN.fullmatch(tok)
        if m is None:
            raise ValueError(f"malformed token {tok!r}")
        axis, qubit = m.group(1), int(m.group(2))
        if qubit >= MAX_QUBITS:
            raise ValueError(f"qubit index {qubit} exceeds the {MAX_QUBITS}-qubit limit")
        if qubit in assignment:
            raise ValueError(f"qubit {qubit} listed twice in one term")
        assignment[qubit] = axis
    x = sum(1 << q for q, a in assignment.items() if a in "XY")
    z = sum(1 << q for q, a in assignment.items() if a in "YZ")
    return x, z, max(assignment)


def random_state(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """One normalized random state: real then imaginary parts drawn from rng."""
    v = rng.standard_normal(1 << n_qubits) + 1j * rng.standard_normal(1 << n_qubits)
    return v / np.linalg.norm(v)


# Max deviation of <psi|H|psi> from <U psi|A|U psi> over random states:
# one random_state draw and two mat-vec products per trial.

def looped_expectation_invariance(h, a, u, trials: int, rng: np.random.Generator) -> float:
    mh, ma, mu = dense_matrix(h), dense_matrix(a), dense_matrix(u)
    n_qubits = int(mh.shape[0]).bit_length() - 1
    worst = 0.0
    for _ in range(trials):
        psi = random_state(n_qubits, rng)
        phi = mu @ psi
        lhs = np.vdot(psi, mh @ psi)
        rhs = np.vdot(phi, ma @ phi)
        worst = max(worst, abs(lhs - rhs))
    return worst


# The dense oracles of the tests. The exact-sign and tableau rows of
# `measure verify` prove a plan at every width on term bitsets; these check
# that bit algebra (circuits.conjugate_columns, the fold) against literal
# matrices, through the references above, on plans of up to 6 qubits.

def assert_dense_oracles(h: Hamiltonian, plan) -> None:
    """For every group G of a plan for h, with stated transform T, the
    paper's U (``matrix_product_symbolic_unitary``) and the circuit's matrix
    C (``kron_circuit``):

    - conjugation: U^dagger G U = T, to 1e-9;
    - unitarity: U U^dagger = C C^dagger = I, to 1e-10;
    - circuit: C = U, global phase included, to 1e-10;
    - expectation: <psi|G|psi> = <C psi|T|C psi> on 50 seeded random
      states, to 1e-9.
    """
    rng = np.random.default_rng(0)
    for gi, entry in enumerate(plan.groups):
        group = Hamiltonian(h.n_qubits,
                            tuple(h.terms[i] for i in entry.transform.term_indices))
        g, t = dense_matrix(group), dense_matrix(entry.transform.transformed)
        u = matrix_product_symbolic_unitary(entry.transform.basis)
        c = kron_circuit(entry.circuit)
        np.testing.assert_allclose(u.conj().T @ g @ u, t, rtol=0, atol=1e-9,
                                   err_msg=f"group {gi}: conjugation")
        for m in (u, c):
            np.testing.assert_allclose(m @ m.conj().T, np.eye(len(m)), rtol=0, atol=1e-10,
                                       err_msg=f"group {gi}: unitarity")
        np.testing.assert_allclose(c, u, rtol=0, atol=1e-10, err_msg=f"group {gi}: circuit")
        dev = looped_expectation_invariance(g, t, c, 50, rng)
        assert dev <= 1e-9, f"group {gi}: expectation deviation {dev:.2e}"


# verify.dense_matrix of a Hamiltonian or PauliSum as it was before the sum
# became one scatter: one dense matrix per term, added in term order. Tests
# require exact equality.

def per_term_dense_sum(obj) -> np.ndarray:
    m = np.zeros((1 << obj.n_qubits,) * 2, dtype=complex)
    for coeff, prod in obj.terms:
        m += coeff * dense_pauli(prod)
    return m


# The sigma partner rule of transform.find_sigma, written out: step i of the
# taus' packed rows ``vecs`` on ``qubit`` tries both axes there that
# anticommute with tau i, X for a Y or Z and Z for an X first. Each is scored
# by applying its update (tau_k <- tau_k tau_i for every other tau k that
# anticommutes with it) to a copy of the rows and summing their weights; the
# lighter wins, the first on a tie. Returns the axis and the updated rows.

_TIE_PARTNER = {"X": "Z", "Y": "X", "Z": "X"}


def weighted_partner(vecs: list[int], i: int, qubit: int, n: int
                     ) -> tuple[str, list[int]]:
    own = PauliProduct.from_packed(vecs[i], n).axis(qubit)
    first = _TIE_PARTNER[own]
    options = []
    for axis in (first, next(a for a in "XYZ" if a not in (own, first))):
        sx, sz = _BITS_FROM_AXIS[axis]
        # The axis (sx, sz) anticommutes with a row whose bits (x, z) on the
        # qubit make x sz + z sx odd.
        updated = [v ^ vecs[i] if k != i and (v >> qubit & sz) ^ (v >> (n + qubit) & sx)
                   else v for k, v in enumerate(vecs)]
        weight = sum(((v | v >> n) & ((1 << n) - 1)).bit_count() for v in updated)
        options.append((weight, axis, updated))
    _, axis, updated = min(options, key=lambda o: o[0])
    return axis, updated


# transform.find_sigma as it was before it read the taus to update off
# column bitsets: every tau is tested against the partner at every step, and
# each step scans for a tau that touches an unassigned qubit, which is
# always tau i. Tests require the same basis.

def rescanning_find_sigma(taus):
    n = taus[0].n_qubits
    vecs = [t.packed for t in taus]
    unassigned = (1 << n) - 1
    sigmas = []
    for i in range(n):
        pick = next(j for j in range(i, n) if (vecs[j] | vecs[j] >> n) & unassigned)
        vecs[i], vecs[pick] = vecs[pick], vecs[i]
        avail = (vecs[i] | vecs[i] >> n) & unassigned
        qubit = (avail & -avail).bit_length() - 1
        axis, vecs = weighted_partner(vecs, i, qubit, n)
        sigmas.append((qubit, axis))
        unassigned &= ~(1 << qubit)
    return TauSigmaBasis(n, tuple(PauliProduct.from_packed(v, n) for v in vecs),
                         tuple(sigmas))


# The basis of one group as transform.pipeline builds it: a group of
# constants acts on no qubit and gets the empty basis, which find_sigma
# does not build.

def group_basis(group: Hamiltonian) -> TauSigmaBasis:
    taus = find_tau(group)
    return find_sigma(taus) if taus else TauSigmaBasis(group.n_qubits, (), ())


# The qubit-local rule of transform.find_tau, read qubit by qubit off each
# term's axis: the single-qubit tau a_q on every qubit q where all the terms
# that act on q have the one axis a_q, in qubit order, and the term vectors
# with those qubits cleared.

def uniform_axis_taus(group: Hamiltonian) -> tuple[list[PauliProduct], list[int]]:
    n = group.n_qubits
    products = group.products()
    if not _commute_pairwise(qubit_columns(n, products), products):
        raise ValueError("group terms do not commute")
    taus, uniform = [], 0
    for q in range(n):
        axes = {p.axis(q) for p in products} - {"I"}
        if len(axes) == 1:
            taus.append(PauliProduct.single(n, q, axes.pop()))
            uniform |= 1 << q
    return taus, [p.packed & ~(uniform | uniform << n) for p in products]


def _complete(rows: list[int], n: int, qubits: int, taken: int = 0) -> list[int]:
    """The row-reduced span of the rows, grown to a Lagrangian basis of the
    given qubits' symplectic space (they hold the rows' own) while its size
    and the ``taken`` taus number fewer than the register's n qubits."""
    basis, _ = gf2.row_reduce(rows)
    if taken + len(basis) < n:
        basis = gf2.lagrangian_extract(gf2.symplectic_complement(basis, n, qubits), n,
                                       qubits.bit_count())
    return basis


# transform.find_tau as it was before the qubit-local taus: the span of the
# term vectors completed over the whole support, however the completion
# falls, with no single-qubit tau by rule. With ``full_width`` the
# completion runs over every register qubit, as it did before each basis
# acted only on its group's qubits.

def completion_find_tau(group: Hamiltonian, full_width: bool = False) -> list[PauliProduct]:
    n = group.n_qubits
    products = group.products()
    if not _commute_pairwise(qubit_columns(n, products), products):
        raise ValueError("group terms do not commute")
    rows = [p.packed for p in products]
    support = 0
    for v in rows:
        support |= v | v >> n
    qubits = (1 << n) - 1 if full_width else support & ((1 << n) - 1)
    return [PauliProduct.from_packed(v, n) for v in _complete(rows, n, qubits)]


# transform.find_tau and transform.find_sigma as they were before each
# group's basis acted only on the qubits its terms touch, with find_tau's
# qubit-local rule: one tau and one sigma per register qubit, each sigma
# picked by ``weighted_partner``. The completion runs over every qubit
# outside the uniform-axis ones, so on a qubit no term acts on the tau is
# Z_q and its sigma X_q, a factor that measures nothing. Tests require the
# support-local basis to equal this one with those factors dropped.

def full_width_find_tau(group: Hamiltonian) -> list[PauliProduct]:
    n = group.n_qubits
    local, rows = uniform_axis_taus(group)
    uniform = 0
    for t in local:
        uniform |= t.support
    rest = ((1 << n) - 1) & ~uniform
    return local + [PauliProduct.from_packed(v, n)
                    for v in _complete(rows, n, rest, len(local))]


# transform.find_tau as it was before the symplectic complement was built
# over the support's free columns only, with its qubit-local rule: the
# whole complement of the cleared span, then without the unit vectors X_q
# and Z_q of every qubit q outside the rest of the support. Tests require
# the same taus.

def idle_filter_find_tau(group: Hamiltonian) -> list[PauliProduct]:
    n = group.n_qubits
    local, rows = uniform_axis_taus(group)
    basis, _ = gf2.row_reduce(rows)
    if len(local) + len(basis) < n:
        touched = 0
        for v in basis:
            touched |= v
        support = (touched | touched >> n) & ((1 << n) - 1)
        idle = ((1 << n) - 1) & ~support
        idle |= idle << n
        basis = gf2.lagrangian_extract(
            [v for v in gf2.symplectic_complement(basis, n, (1 << n) - 1)
             if not v & idle], n,
            support.bit_count())
    return local + [PauliProduct.from_packed(v, n) for v in basis]


def full_width_find_sigma(taus) -> TauSigmaBasis:
    if not taus:
        raise ValueError("empty tau basis")
    n = taus[0].n_qubits
    if any(t.n_qubits != n or t.phase_exp != 0 for t in taus):
        raise ValueError("taus must share the qubit count and carry no phase")
    vecs = [t.packed for t in taus]
    if (len(vecs) != n or not gf2.is_independent(vecs)
            or not _commute_pairwise(qubit_columns(n, taus), taus)):
        raise ValueError("taus are not a Lagrangian basis")
    unassigned = (1 << n) - 1
    sigmas: list[tuple[int, str]] = []
    for i in range(n):
        avail = (vecs[i] | vecs[i] >> n) & unassigned
        qubit = (avail & -avail).bit_length() - 1
        axis, vecs = weighted_partner(vecs, i, qubit, n)
        sigmas.append((qubit, axis))
        unassigned &= ~(1 << qubit)
    return TauSigmaBasis(n, tuple(PauliProduct.from_packed(v, n) for v in vecs),
                         tuple(sigmas))
