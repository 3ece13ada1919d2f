"""The `measure verify` check suite and its dense matrices.

``plan_checks`` proves a plan at every width on term bitsets (coverage,
basis invariants, qubit-wise commutation, exact images under the circuit,
the circuit's Clifford through the tau/sigma swap of each factor and the
fixed qubits outside the basis) and compares the spectrum of each group's
dense matrix with its transformed group's up to a qubit cap. The dense
matrices are built from first principles (Pauli matrices and sums as
signed permutations of the basis states, literal gate matrices applied to
the amplitudes), so the bit-level algebra elsewhere can be checked against
an independent route. A plan whose width has a spectra row builds one set
of index tables (``_Tables``) that all its groups share. A group's dense
matrix is solved block by block: its terms move a basis state only within
its coset of the span of their x-parts, so the blocks on those cosets are
stacked and solved in one call (``_x_span_blocks``), and a count of the
nonzero entries proves that the blocks hold the whole matrix. A real
Hermitian matrix gets a real symmetric eigenvalue solve. A qubit-wise
commuting transformed group needs no solve: its terms share a
tensor-product eigenbasis, so its spectrum is a closed-form sum of signed
coefficients. Qubit 0 is the leftmost Kronecker factor.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

import numpy as np

from . import circuits, gf2
from .circuits import CliffordCircuit, conjugate_columns
from .grouping import build_graph
from .pauli import Hamiltonian, I_POWERS, PauliProduct, qubit_columns
from .transform import GroupPlan, MeasurementPlan

MAX_DENSE_QUBITS = 12
MAX_SPECTRUM_QUBITS = 10

# The literal gate matrices of ``circuits``, as complex arrays.
_GATE_1Q = {name: np.array(m, dtype=complex) for name, m in circuits._GATE_1Q.items()}


class DimensionError(ValueError):
    """Dense oracle qubit cap exceeded."""


class _Tables:
    """Index tables of one register width, shared by the dense operators of
    a plan: the basis states ``b``, and the parity sign (-1)^|s| of every bit
    pattern s (``signs``)."""

    def __init__(self, n_qubits: int) -> None:
        if n_qubits > MAX_DENSE_QUBITS:
            raise DimensionError(f"{n_qubits} qubits exceed the cap of {MAX_DENSE_QUBITS}")
        self.n_qubits = n_qubits
        self.b = np.arange(1 << n_qubits)
        # Doubling k appends the patterns with bit k set: one more set bit, the
        # opposite sign.
        self.signs = np.ones(1)
        for _ in range(n_qubits):
            self.signs = np.concatenate((self.signs, -self.signs))


def _basis_bits(v: int, n: int) -> int:
    """v with qubit bit q moved to basis-index bit n - 1 - q."""
    out = 0
    while v:
        low = v & -v
        out |= 1 << (n - low.bit_length())
        v ^= low
    return out


def _signed_permutation(p: PauliProduct) -> tuple[int, int, complex]:
    """(flip, sign mask, phase) of p as a map of basis states.

    On each qubit Y = iXZ, so p = i^(phase + |x & z|) X^x Z^z, and X^x Z^z
    maps basis state b to (-1)^|z & b| times state b ^ x, with x and z read
    as basis-index bits: qubit q is bit n - 1 - q (qubit 0 is the leftmost
    factor).
    """
    n = p.n_qubits
    return (_basis_bits(p.x, n), _basis_bits(p.z, n),
            I_POWERS[(p.phase_exp + (p.x & p.z).bit_count()) % 4])


def dense_pauli(p: PauliProduct) -> np.ndarray:
    """The matrix of p as a signed permutation, built in one indexing step."""
    t = _Tables(p.n_qubits)
    flip, sign_mask, phase = _signed_permutation(p)
    m = np.zeros((len(t.b),) * 2, dtype=complex)
    m[t.b ^ flip, t.b] = t.signs[t.b & sign_mask] * phase
    return m


def _dense_sum(obj: Hamiltonian, tables: _Tables | None = None) -> np.ndarray:
    """The sum of coeff * dense_pauli(p) over the terms, in one scatter.

    Every term puts one entry in each column. ``np.bincount`` adds the
    entries of all terms into the flat matrix index in term order, once for
    the real parts and once for the imaginary parts, so the result equals
    the per-term sum exactly. (``np.add.at`` would too, but numpy 1.24, the
    declared floor, has no fast path for it.) The scratch arrays hold one
    entry per term and column: no more than the matrix for a commuting
    group, whose terms number at most 2^n.
    """
    n = obj.n_qubits
    t = _Tables(n) if tables is None else tables
    size = 1 << n
    maps = [_signed_permutation(p) for _, p in obj.terms]
    flips = np.array([f for f, _, _ in maps], dtype=np.int64)
    sign_masks = np.array([s for _, s, _ in maps], dtype=np.int64)
    values = np.array([c * phase for (c, _), (_, _, phase) in zip(obj.terms, maps)],
                      dtype=complex)
    b = t.b
    flat = ((b ^ flips[:, None]) << n | b).ravel()
    entries = (values[:, None] * t.signs[b & sign_masks[:, None]]).ravel()
    m = np.zeros(size * size, dtype=complex)
    m.real = np.bincount(flat, weights=entries.real, minlength=size * size)
    m.imag = np.bincount(flat, weights=entries.imag, minlength=size * size)
    return m.reshape(size, size)


def dense_circuit(c: CliffordCircuit) -> np.ndarray:
    """The gates applied in order to the identity, one numpy operation each:
    a 2x2 matrix on one axis of the amplitudes, or a CNOT row gather (a flip
    of the target bit where the control bit is set); includes the global
    phase."""
    n = c.n_qubits
    b = _Tables(n).b
    u = np.eye(1 << n, dtype=complex)
    for gate in c.gates:
        if gate.name == "CNOT":
            cs, ts = (n - 1 - q for q in gate.qubits)
            u = u[b ^ ((b >> cs) & 1) << ts]
        else:
            q = gate.qubits[0]
            u = (_GATE_1Q[gate.name] @ u.reshape(1 << q, 2, -1)).reshape(u.shape)
    return np.exp(1j * np.pi / 4 * c.global_phase_exp) * u


def dense_matrix(obj, tables: _Tables | None = None) -> np.ndarray:
    """Dense operator for a PauliProduct, Hamiltonian or circuit.
    A sum is built on ``tables``, the register's index tables, when given."""
    if isinstance(obj, np.ndarray):
        return obj
    if isinstance(obj, PauliProduct):
        return dense_pauli(obj)
    if isinstance(obj, Hamiltonian):
        return _dense_sum(obj, tables)
    if isinstance(obj, CliffordCircuit):
        return dense_circuit(obj)
    raise TypeError(f"cannot build a dense matrix from {type(obj).__name__}")


def spectra_equal(h1, h2) -> bool:
    """Sorted-eigenvalue comparison of two Hermitian operators, to 1e-9.

    A 1-D array stands for a spectrum already computed, in any order, and a
    3-D array for a block-diagonal matrix as the stack of its blocks
    (``_x_span_blocks``), which one solver call takes whole. A matrix or
    stack with no imaginary part is real symmetric and gets the real solver.
    """
    m1, m2 = dense_matrix(h1), dense_matrix(h2)
    size1, size2 = (m.shape[-1] * (len(m) if m.ndim == 3 else 1) for m in (m1, m2))
    if size1 != size2:
        return False
    if size1 > 1 << MAX_SPECTRUM_QUBITS:
        raise DimensionError("spectrum comparison cap exceeded")
    e1, e2 = (np.sort(m if m.ndim == 1 else np.linalg.eigvalsh(m if m.imag.any() else m.real),
                      axis=None)
              for m in (m1, m2))
    return bool(np.max(np.abs(e1 - e2)) <= 1e-9)


def _x_span_blocks(h: Hamiltonian, tables: _Tables) -> np.ndarray:
    """The dense matrix of h as the stack of its diagonal blocks.

    A term X^x Z^z moves basis state b only to b ^ x, so the matrix is
    block-diagonal over the cosets of V, the GF(2) span of the terms'
    x-parts in basis-index bits. V is built by doubling on its reduced row
    basis, and each coset holds one state with no bit at a pivot column, its
    representative: block i is the coset of the i-th, in V's order. Raises
    ValueError unless the blocks hold every nonzero entry of the matrix, so
    a wrong span fails the row and never passes it.
    """
    n = h.n_qubits
    rows, pivots = gf2.row_reduce([_basis_bits(p.x, n) for _, p in h.terms], n)
    span = np.zeros(1, dtype=np.int64)
    for r in rows:
        span = np.concatenate((span, span ^ r))
    pivot_mask = sum(1 << p for p in pivots)
    cosets = tables.b[(tables.b & pivot_mask) == 0][:, None] ^ span
    m = dense_matrix(h, tables)
    blocks = m[cosets[:, :, None], cosets[:, None, :]]
    if np.count_nonzero(blocks) != np.count_nonzero(m):
        raise ValueError("dense matrix has entries outside its x-span blocks")
    return blocks


def _qwc_spectrum(h: Hamiltonian, tables: _Tables) -> np.ndarray:
    """The eigenvalues of a qubit-wise commuting sum, in no set order. Its
    terms share the tensor-product eigenbasis of their axes, where term k
    reads c_k (-1)^|b & s_k| on basis state b, s_k its support; the qubits'
    order in b only permutes the states, so the supports are read as stored."""
    masks = np.array([p.x | p.z for _, p in h.terms], dtype=np.int64)
    return np.array(h.coefficients(), dtype=float) @ tables.signs[tables.b & masks[:, None]]


# --- the check suite of `measure verify` -------------------------------------

class _GroupOperators:
    """One plan group and its term bitsets, each built on first use.
    ``tables`` are the register's index tables, or None when no dense row
    runs."""

    def __init__(self, h: Hamiltonian, entry: GroupPlan, tables: _Tables | None) -> None:
        self.entry = entry
        self.source = h
        self.tables = tables

    @cached_property
    def group(self) -> Hamiltonian:
        return Hamiltonian(self.source.n_qubits, tuple(
            self.source.terms[i] for i in self.entry.transform.term_indices))

    @cached_property
    def transformed_columns(self) -> tuple[list[int], list[int]]:
        """The transformed terms as per-qubit term bitsets (``qubit_columns``),
        shared by the qwc and exact-sign rows."""
        return qubit_columns(self.source.n_qubits, self.entry.transform.transformed.products())

    @cached_property
    def transformed_qwc(self) -> bool:
        """On every qubit, the transformed terms with an X, those with a Y
        and those with a Z there are at most one non-empty class."""
        return all(bool(x & ~z) + bool(x & z) + bool(z & ~x) <= 1
                   for x, z in zip(*self.transformed_columns))


def _partition_problems(h: Hamiltonian, plan: MeasurementPlan) -> str:
    """Every term in exactly one group; O(terms), no pairwise pass."""
    times = Counter(i for entry in plan.groups for i in entry.transform.term_indices)
    missing = [i for i in range(len(h.terms)) if not times[i]]
    repeated = [i for i in range(len(h.terms)) if times[i] > 1]
    problems = []
    if missing:
        problems.append(f"{len(missing)} terms in no group, first {missing[0]}")
    if repeated:
        problems.append(f"{len(repeated)} terms in several groups, first {repeated[0]}")
    return "; ".join(problems)


def _check_basis(g: _GroupOperators):
    g.entry.transform.basis.validate(g.group)
    return True, ""


def _check_qwc(g: _GroupOperators):
    """On a clash, the qwc conflict rows name the lowest clashing pair: the
    first term with a non-empty row, and the lowest term of that row."""
    if g.transformed_qwc:
        return True, ""
    rows = build_graph(g.entry.transform.transformed, "qwc").conflicts
    i = next(i for i, clash in enumerate(rows) if clash)
    j = (rows[i] & -rows[i]).bit_length() - 1
    return False, f"transformed terms {i} and {j} are not QWC"


def _check_coeffs(g: _GroupOperators):
    source = sorted(abs(c) for c in g.group.coefficients())
    image = sorted(abs(c) for c in g.entry.transform.transformed.coefficients())
    if len(source) != len(image) or any(abs(a - b) > 1e-12
                                        for a, b in zip(source, image)):
        return False, "coefficient magnitudes changed"
    return True, ""


def _image(n: int, xs: list[int], zs: list[int], minus: int, k: int) -> str:
    """Bit k of conjugated columns (``conjugate_columns``) as a signed term."""
    image = PauliProduct(n, sum(((xs[q] >> k) & 1) << q for q in range(n)),
                         sum(((zs[q] >> k) & 1) << q for q in range(n)))
    return f"{'-' if (minus >> k) & 1 else '+'}{image.to_term_string()}"


def _check_signs(g: _GroupOperators):
    """All group terms through the circuit at once, as term bitsets."""
    n = g.source.n_qubits
    stated = g.entry.transform.transformed
    if len(stated.terms) != len(g.group.terms):
        return False, (f"{len(stated.terms)} transformed terms for "
                       f"{len(g.group.terms)} terms")
    xs, zs, minus = conjugate_columns(g.entry.circuit,
                                      *qubit_columns(n, g.group.products()))
    want_x, want_z = g.transformed_columns
    wrong = 0
    for q in range(n):
        wrong |= (xs[q] ^ want_x[q]) | (zs[q] ^ want_z[q])
    for k, (c, t) in enumerate(zip(g.group.coefficients(), stated.coefficients())):
        if abs(t - (-c if (minus >> k) & 1 else c)) > 1e-12:
            wrong |= 1 << k
    if not wrong:
        return True, ""
    k = (wrong & -wrong).bit_length() - 1
    coeff, term = g.group.terms[k]
    t_coeff, t_term = stated.terms[k]
    return False, (f"term {g.entry.transform.term_indices[k]} "
                   f"({coeff!r} {term.to_term_string()}) maps to "
                   f"{_image(n, xs, zs, minus, k)}, "
                   f"plan states {t_coeff!r} {t_term.to_term_string()}")


def _check_tableau(g: _GroupOperators):
    """U^dagger tau_i U = sigma_i and U^dagger sigma_i U = tau_i, sign +1,
    for the circuit U and every factor i, and U^dagger X_q U = X_q and
    U^dagger Z_q U = Z_q, sign +1, on every qubit q without a sigma, all on
    term bitsets. The product of reflections satisfies them all, since
    factor i swaps tau_i and sigma_i, every other factor commutes with
    them, and the factors act only on sigma qubits (basis invariants). The
    m taus and sigmas span the 2m directions of the m sigma qubits, so with
    the other qubits' X and Z they fix the circuit's Clifford up to a
    global phase. Bit k of the columns stands for tau_k, bit m + k for
    sigma_k, bits 2m + q and 2m + n + q for X_q and Z_q."""
    basis = g.entry.transform.basis
    basis.check_counts()
    n, m = basis.n_qubits, len(basis.taus)
    tau_x, tau_z = basis.tau_columns
    sigma_x, sigma_z = basis.sigma_columns
    # X_q and Z_q of a qubit without a sigma are one bit each; 0 elsewhere.
    other_x = [0 if sx | sz else 1 << (2 * m + q)
               for q, (sx, sz) in enumerate(zip(sigma_x, sigma_z))]
    other_z = [b << n for b in other_x]
    xs, zs, minus = conjugate_columns(
        g.entry.circuit, [t | s << m | o for t, s, o in zip(tau_x, sigma_x, other_x)],
        [t | s << m | o for t, s, o in zip(tau_z, sigma_z, other_z)])
    wrong = minus
    for q in range(n):
        wrong |= xs[q] ^ (sigma_x[q] | tau_x[q] << m | other_x[q])
        wrong |= zs[q] ^ (sigma_z[q] | tau_z[q] << m | other_z[q])
    if not wrong:
        return True, ""
    k = (wrong & -wrong).bit_length() - 1
    image = _image(n, xs, zs, minus, k)
    if k >= 2 * m:
        q = (k - 2 * m) % n
        axis = "X" if k - 2 * m < n else "Z"
        return False, (f"{axis}{q}, on a qubit without a sigma, maps to {image}, "
                       f"not +{axis}{q}")
    tau, sigma = basis.taus[k % m], basis.sigma_products[k % m]
    name, source, want = ((f"tau_{k}", tau, sigma) if k < m
                          else (f"sigma_{k - m}", sigma, tau))
    return False, (f"{name} ({source.to_term_string()}) maps to {image}, "
                   f"not +{want.to_term_string()}")


def _check_spectra(g: _GroupOperators):
    """A qubit-wise commuting transformed group has its spectrum in closed
    form (``_qwc_spectrum``), so only the group's matrix is solved, block by
    block (``_x_span_blocks``); any other transformed group is split into
    blocks and solved too."""
    blocks = _x_span_blocks(g.group, g.tables)
    t = g.entry.transform.transformed
    image = _qwc_spectrum(t, g.tables) if g.transformed_qwc else _x_span_blocks(t, g.tables)
    return spectra_equal(blocks, image), "eigenvalue mismatch beyond 1e-9"


# (row name, check, qubit cap or None) in row order.
_CHECKS = (
    ("basis invariants", _check_basis, None),
    ("transformed groups qubit-wise commuting", _check_qwc, None),
    ("coefficient magnitudes preserved", _check_coeffs, None),
    ("circuit maps each group term to its transformed term (exact sign)",
     _check_signs, None),
    ("circuit equals the product of (tau_i + sigma_i)/sqrt(2) up to global phase "
     "(tableau)", _check_tableau, None),
    ("spectra preserved (tol 1e-9)", _check_spectra, MAX_SPECTRUM_QUBITS),
)


def plan_checks(h: Hamiltonian, plan: MeasurementPlan) -> list[tuple[str, str, str]]:
    """Run the check suite on a plan for h; returns (name, status, detail) rows.

    Raises ValueError when the plan's width differs from h or a term index
    is out of range. The status is "pass", "fail", or "skip" for the spectra
    check above its qubit cap. Groups are visited one at a time and every
    check runs on a group before the next, so each group's term bitsets
    are built once and only one group's dense matrices are alive. The
    index tables of the dense matrices are built once per plan, and only
    when the spectra row runs. A check that raises ValueError or IndexError on a malformed group
    fails with that message. A check that has failed is not run on later
    groups; its row names the first failing group.
    """
    n = plan.n_qubits
    if n != h.n_qubits:
        raise ValueError("plan qubit count differs from the Hamiltonian")
    for gi, entry in enumerate(plan.groups):
        for i in entry.transform.term_indices:
            if not 0 <= i < len(h.terms):
                raise ValueError(f"plan group {gi}: term index {i} out of range")
    running = [(name, fn) for name, fn, cap in _CHECKS if cap is None or n <= cap]
    dense = any(cap is not None and n <= cap for _, _, cap in _CHECKS)
    tables = _Tables(n) if dense else None
    failures: dict[str, str] = {}
    for gi, entry in enumerate(plan.groups):
        g = _GroupOperators(h, entry, tables)
        for name, fn in running:
            if name not in failures:
                try:
                    ok, detail = fn(g)
                except (ValueError, IndexError) as exc:
                    ok, detail = False, str(exc)
                if not ok:
                    failures[name] = f"group {gi}: {detail}"

    problems = _partition_problems(h, plan)
    results = [("groups partition the terms", "fail" if problems else "pass", problems)]
    for name, _, cap in _CHECKS:
        if cap is not None and n > cap:
            results.append((name, "skip", f"skipped: {n} qubits exceed cap"))
        elif name in failures:
            results.append((name, "fail", failures[name]))
        else:
            results.append((name, "pass", ""))
    return results
