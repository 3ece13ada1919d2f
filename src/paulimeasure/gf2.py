"""GF(2) linear algebra on bit-packed symplectic vectors.

Vectors are plain ints with 2N significant bits: x-block in bits [0, N),
z-block in bits [N, 2N), matching PauliProduct.packed. Matrices are
lists of such row ints.
"""

from __future__ import annotations

from collections.abc import Iterable


def row_reduce(rows: list[int]) -> tuple[list[int], list[int]]:
    """Reduced row-echelon form; returns (nonzero rows, pivot columns).

    The result is the unique RREF of the row space, rows in increasing
    pivot order, whatever the input order. Each row is reduced by the
    stored row with the same lowest set bit until it is zero or its lowest
    bit is a new pivot. Back-substitution, highest pivot first, then clears
    the pivot columns above each row's own, so the work follows the set
    bits, not the width of the rows.
    """
    by_pivot: dict[int, int] = {}
    for r in rows:
        while r:
            p = (r & -r).bit_length() - 1
            stored = by_pivot.get(p)
            if stored is None:
                by_pivot[p] = r
                break
            r ^= stored
    pivots = sorted(by_pivot)
    pivot_mask = 0
    for p in reversed(pivots):
        r = by_pivot[p]
        above = r & pivot_mask
        while above:
            low = above & -above
            r ^= by_pivot[low.bit_length() - 1]
            above ^= low
        by_pivot[p] = r
        pivot_mask |= 1 << p
    return [by_pivot[p] for p in pivots], pivots


def rank(rows: list[int]) -> int:
    return len(row_reduce(rows)[0])


def null_space(rows: list[int], columns: Iterable[int]) -> list[int]:
    """Basis of {v : row . v = 0 mod 2 for every row}, ordered by free column,
    limited to the basis vectors of the free columns among ``columns``
    (ascending; every column of the rows gives the whole null space).
    """
    rref, pivots = row_reduce(rows)
    pivot_set = set(pivots)
    basis = []
    for free in columns:
        if free in pivot_set:
            continue
        v = 1 << free
        for r, p in zip(rref, pivots):
            if (r >> free) & 1:
                v |= 1 << p
        basis.append(v)
    return basis


def swap_halves(v: int, n_qubits: int) -> int:
    mask = (1 << n_qubits) - 1
    return ((v & mask) << n_qubits) | (v >> n_qubits)


def symplectic_inner(u: int, v: int, n_qubits: int) -> int:
    mask = (1 << n_qubits) - 1
    return (((u & mask) & (v >> n_qubits)).bit_count()
            + ((u >> n_qubits) & (v & mask)).bit_count()) & 1


def symplectic_complement(rows: list[int], n_qubits: int, qubits: int) -> list[int]:
    """Basis of the symplectic orthogonal complement of span(rows).

    The Euclidean null space is computed first, then the x- and z-halves of
    every basis vector are interchanged to turn it into the null space of
    the symplectic form.

    ``qubits`` is a mask of qubits that holds every row's qubits. Only the
    null-space vectors of those qubits' free columns are built: a column of
    any other qubit is free and gives a unit vector, X_q or Z_q, which is
    left out. The vectors kept come in the same order as in the whole
    complement, which the full mask ``(1 << n_qubits) - 1`` gives.
    """
    listed = []
    while qubits:
        low = qubits & -qubits
        listed.append(low.bit_length() - 1)
        qubits ^= low
    columns = listed + [n_qubits + q for q in listed]
    return [swap_halves(v, n_qubits) for v in null_space(rows, columns)]


def lagrangian_extract(rows: list[int], n_qubits: int, size: int) -> list[int]:
    """Shrink a coisotropic basis to ``size`` mutually orthogonal vectors.

    Rows that act only on a set S of qubits and span a coisotropic subspace
    of S's symplectic space shrink to ``size`` = |S|; S is all N qubits for
    a coisotropic subspace of the whole space.

    Repeatedly takes the lexicographically first pair (i < j) with
    (c_i|c_j) = 1, replaces every other c_k by
    c_k + (c_k|c_j) c_i + (c_k|c_i) c_j and drops c_j. Independence is
    preserved, each round keeps exactly the old span's kernel against the
    dropped vector, so any isotropic subspace of the input span survives.
    After a round c_i, and every vector before it, is orthogonal to all the
    others, so the next first pair starts after i and one left-to-right
    sweep finds every pair.
    """
    work = list(rows)
    i = 0
    while i < len(work):
        ci = work[i]
        j = next((j for j in range(i + 1, len(work))
                  if symplectic_inner(ci, work[j], n_qubits)), None)
        if j is not None:
            cj = work.pop(j)
            # (c_k|c) is the parity of c_k AND c with its halves swapped.
            swap_i, swap_j = swap_halves(ci, n_qubits), swap_halves(cj, n_qubits)
            for k in range(i + 1, len(work)):
                ck = work[k]
                if (ck & swap_j).bit_count() & 1:
                    work[k] ^= ci
                if (ck & swap_i).bit_count() & 1:
                    work[k] ^= cj
        i += 1
    if len(work) != size:
        raise ValueError(
            f"input is not coisotropic: extracted {len(work)} of {size} vectors")
    return work
