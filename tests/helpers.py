"""Shared test utilities: random inputs and independent dense references."""

from __future__ import annotations

import random

import numpy as np

from paulimeasure import Hamiltonian, PauliProduct
from paulimeasure import gf2
from paulimeasure.verify import dense_pauli

AXES = "IXYZ"


def random_pauli(n_qubits: int, rng: random.Random, phase: bool = False) -> PauliProduct:
    label = "".join(rng.choice(AXES) for _ in range(n_qubits))
    return PauliProduct.from_label(label, rng.randrange(4) if phase else 0)


def all_paulis(n_qubits: int):
    """All 4^n phase-free products, lexicographic in (x, z)."""
    for x in range(1 << n_qubits):
        for z in range(1 << n_qubits):
            yield PauliProduct(n_qubits, x, z)


def random_subspace(n_qubits: int, dim: int, rng: random.Random) -> list[int]:
    """Random independent packed vectors, no isotropy constraint."""
    vecs: list[int] = []
    while len(vecs) < dim:
        v = rng.getrandbits(2 * n_qubits)
        if v and not gf2.in_span(vecs, 2 * n_qubits, v):
            vecs.append(v)
    return vecs


def random_isotropic(n_qubits: int, dim: int, rng: random.Random) -> list[int]:
    """Random independent, mutually orthogonal packed vectors."""
    vecs: list[int] = []
    while len(vecs) < dim:
        comp = gf2.symplectic_complement(vecs, n_qubits)
        mask = rng.randrange(1, 1 << len(comp))
        v = 0
        for k in range(len(comp)):
            if (mask >> k) & 1:
                v ^= comp[k]
        if v and not gf2.in_span(vecs, 2 * n_qubits, v):
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


# Naive references for the bitset grouping code: pairwise relation tests and
# the linear-scan orderings it replaced. Tests require identical results.

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
        violations.append(f"uncovered terms: {missing}")
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


def naive_sequential_colors(graph, order) -> list[int]:
    """Each vertex in order takes the lowest color absent from its complement neighbors."""
    colors = [-1] * graph.n_vertices
    for v in order:
        forbidden = {colors[u] for u in _bits(graph.comp_row(v)) if colors[u] >= 0}
        colors[v] = _lowest_free_color(forbidden)
    return colors


def naive_smallest_last_order(graph) -> list[int]:
    n = graph.n_vertices
    remaining = graph.full_mask
    removal: list[int] = []
    for _ in range(n):
        best = None
        best_deg = None
        for v in _bits(remaining):
            deg = (graph.comp_row(v) & remaining).bit_count()
            if best_deg is None or deg < best_deg:
                best, best_deg = v, deg
        removal.append(best)
        remaining &= ~(1 << best)
    return removal[::-1]


def naive_dsatur_colors(graph) -> list[int]:
    n = graph.n_vertices
    colors = [-1] * n
    neighbor_colors: list[set[int]] = [set() for _ in range(n)]
    for _ in range(n):
        v = min((u for u in range(n) if colors[u] < 0),
                key=lambda u: (-len(neighbor_colors[u]), u))
        c = _lowest_free_color(neighbor_colors[v])
        colors[v] = c
        for u in _bits(graph.comp_row(v)):
            neighbor_colors[u].add(c)
    return colors


# Earlier forms of the tau/sigma stage, kept as references: the extraction
# that rescans all pairs each round, the expansion by a GF(2) solve and the
# basis check by pairwise symplectic inner products. Tests require results
# identical to the library's sweep, sigma read-off and bitset checks.

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
    """(tau indices, sign) with the subset from gf2.solve over the tau rows.

    Raises ValueError when the term is outside the tau span or the phase is
    imaginary.
    """
    n = basis.n_qubits
    selection = gf2.solve([t.packed for t in basis.taus], 2 * n, term.packed)
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


def pairwise_validate(basis, group: Hamiltonian | None = None) -> None:
    """TauSigmaBasis.validate with every pair tested by a symplectic inner product."""
    n = basis.n_qubits
    if len(basis.taus) != n or len(basis.sigmas) != n:
        raise ValueError(f"expected {n} taus and sigmas")
    for t in basis.taus:
        if t.n_qubits != n:
            raise ValueError("tau qubit count differs from basis")
        if t.phase_exp != 0:
            raise ValueError("taus must carry no phase")
    if len({q for q, _ in basis.sigmas}) != n:
        raise ValueError("sigma qubits must be pairwise distinct")
    vecs = [t.packed for t in basis.taus]
    if not gf2.is_lagrangian(vecs, n):
        raise ValueError("taus are not a Lagrangian basis")
    sig_vecs = [basis.sigma_product(i).packed for i in range(n)]
    for i in range(n):
        for j in range(n):
            inner = gf2.symplectic_inner(vecs[i], sig_vecs[j], n)
            if i == j and inner == 0:
                raise ValueError(f"tau_{i} does not anticommute with sigma_{i}")
            if i != j and inner == 1:
                raise ValueError(f"tau_{i} anticommutes with sigma_{j}")
    if group is not None:
        for ti, (_, prod) in enumerate(group.terms):
            for k, tv in enumerate(vecs):
                if gf2.symplectic_inner(prod.packed, tv, n):
                    raise ValueError(f"group term {ti} anticommutes with tau_{k}")
