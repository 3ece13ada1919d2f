"""GF(2) linear algebra on bit-packed symplectic vectors.

Vectors are plain ints with 2N significant bits: x-block in bits [0, N),
z-block in bits [N, 2N), matching PauliProduct.packed. Matrices are
lists of such row ints.
"""

from __future__ import annotations


class InconsistentSystemError(ValueError):
    """Linear system has no solution over GF(2)."""


def row_reduce(rows: list[int], n_cols: int) -> tuple[list[int], list[int]]:
    """Reduced row-echelon form; returns (nonzero rows, pivot columns).

    Pivots are chosen lowest column first, so the result is the unique RREF
    of the row space and deterministic for any input order.
    """
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


def rank(rows: list[int], n_cols: int) -> int:
    return len(row_reduce(rows, n_cols)[0])


def null_space(rows: list[int], n_cols: int) -> list[int]:
    """Basis of {v : row . v = 0 mod 2 for every row}, ordered by free column."""
    rref, pivots = row_reduce(rows, n_cols)
    pivot_set = set(pivots)
    basis = []
    for free in range(n_cols):
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


def symplectic_complement(rows: list[int], n_qubits: int) -> list[int]:
    """Basis of the symplectic orthogonal complement of span(rows).

    The Euclidean null space is computed first, then the x- and z-halves of
    every basis vector are interchanged to turn it into the null space of
    the symplectic form.
    """
    return [swap_halves(v, n_qubits) for v in null_space(rows, 2 * n_qubits)]


def lagrangian_extract(rows: list[int], n_qubits: int) -> list[int]:
    """Shrink a coisotropic basis to N mutually orthogonal vectors.

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
            for k in range(i + 1, len(work)):
                ck = work[k]
                if symplectic_inner(ck, cj, n_qubits):
                    work[k] ^= ci
                if symplectic_inner(ck, ci, n_qubits):
                    work[k] ^= cj
        i += 1
    if len(work) != n_qubits:
        raise ValueError(
            f"input is not coisotropic: extracted {len(work)} of {n_qubits} vectors")
    return work


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


def is_independent(rows: list[int], n_cols: int) -> bool:
    return rank(rows, n_cols) == len(rows)


def is_isotropic(rows: list[int], n_qubits: int) -> bool:
    return all(symplectic_inner(rows[i], rows[j], n_qubits) == 0
               for i in range(len(rows)) for j in range(i + 1, len(rows)))


def is_lagrangian(rows: list[int], n_qubits: int) -> bool:
    return (len(rows) == n_qubits
            and is_independent(rows, 2 * n_qubits)
            and is_isotropic(rows, n_qubits))
