"""The `measure verify` check suite and the dense matrices of the tests.

``plan_checks`` proves a plan at every width on term bitsets; no check
builds a matrix. The dense matrices are built from first principles (Pauli
matrices and sums as signed permutations of the basis states, literal gate
matrices applied to the amplitudes), so the tests can check the bit-level
algebra against an independent route. Qubit 0 is the leftmost Kronecker
factor. Only the dense helpers use numpy, and each imports it when called,
so ``plan_checks`` runs without it.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cache
from typing import TYPE_CHECKING

from .circuits import CliffordCircuit, conjugate_columns
from .grouping import build_graph
from .pauli import Hamiltonian, I_POWERS, PauliProduct
from .transform import GroupPlan, MeasurementPlan

if TYPE_CHECKING:
    import numpy as np

MAX_DENSE_QUBITS = 12
_R = 1 / math.sqrt(2)
# The literal 2x2 matrices of the single-qubit gates, rows then columns.
_GATE_1Q = {
    "H": ((_R, _R), (_R, -_R)),
    "S": ((1, 0), (0, 1j)),
    "SDG": ((1, 0), (0, -1j)),
    "X": ((0, 1), (1, 0)),
    "Y": ((0, -1j), (1j, 0)),
    "Z": ((1, 0), (0, -1)),
}


@cache
def _gate_1q() -> dict[str, np.ndarray]:
    """The literal gate matrices, as complex arrays."""
    import numpy as np
    return {name: np.array(m, dtype=complex) for name, m in _GATE_1Q.items()}


class DimensionError(ValueError):
    """Dense oracle qubit cap exceeded."""


class _Tables:
    """Index tables of one register width: the basis states ``b``, and the
    parity sign (-1)^|s| of every bit pattern s (``signs``)."""

    def __init__(self, n_qubits: int) -> None:
        import numpy as np
        if n_qubits > MAX_DENSE_QUBITS:
            raise DimensionError(f"{n_qubits} qubits exceed the cap of {MAX_DENSE_QUBITS}")
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
    import numpy as np
    t = _Tables(p.n_qubits)
    flip, sign_mask, phase = _signed_permutation(p)
    m = np.zeros((len(t.b),) * 2, dtype=complex)
    m[t.b ^ flip, t.b] = t.signs[t.b & sign_mask] * phase
    return m


def _dense_sum(obj: Hamiltonian) -> np.ndarray:
    """The sum of coeff * dense_pauli(p) over the terms, in one scatter.

    Every term puts one entry in each column. ``np.bincount`` adds the
    entries of all terms into the flat matrix index in term order, once for
    the real parts and once for the imaginary parts, so the result equals
    the per-term sum exactly. (``np.add.at`` would too, but numpy 1.24, the
    declared floor, has no fast path for it.) The scratch arrays hold one
    entry per term and column: no more than the matrix for a commuting
    group, whose terms number at most 2^n.
    """
    import numpy as np
    n = obj.n_qubits
    t = _Tables(n)
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
    of the target bit where the control bit is set). The circuit fixes
    its unitary only up to a global phase; this is the one of its literal
    gates."""
    import numpy as np
    gate_1q = _gate_1q()
    n = c.n_qubits
    b = _Tables(n).b
    u = np.eye(1 << n, dtype=complex)
    for gate in c.gates:
        if gate.name == "CNOT":
            cs, ts = (n - 1 - q for q in gate.qubits)
            u = u[b ^ ((b >> cs) & 1) << ts]
        else:
            q = gate.qubits[0]
            u = (gate_1q[gate.name] @ u.reshape(1 << q, 2, -1)).reshape(u.shape)
    return u


def dense_matrix(obj) -> np.ndarray:
    """Dense operator for a PauliProduct, Hamiltonian or circuit."""
    import numpy as np
    if isinstance(obj, np.ndarray):
        return obj
    if isinstance(obj, PauliProduct):
        return dense_pauli(obj)
    if isinstance(obj, Hamiltonian):
        return _dense_sum(obj)
    if isinstance(obj, CliffordCircuit):
        return dense_circuit(obj)
    raise TypeError(f"cannot build a dense matrix from {type(obj).__name__}")


def spectra_equal(h1, h2) -> bool:
    """Sorted-eigenvalue comparison of two Hermitian operators, to 1e-9. A
    matrix with no imaginary part is real symmetric and gets the real solver."""
    import numpy as np
    e1, e2 = (np.linalg.eigvalsh(m if m.imag.any() else m.real)
              for m in (dense_matrix(h1), dense_matrix(h2)))
    return e1.shape == e2.shape and bool(np.max(np.abs(e1 - e2)) <= 1e-9)


# --- the check suite of `measure verify` -------------------------------------

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


def _check_basis(group: Hamiltonian, entry: GroupPlan) -> None:
    entry.transform.basis.validate(group)


def _check_qwc(group: Hamiltonian, entry: GroupPlan) -> None:
    """On every qubit, the transformed terms with an X, a Y and a Z there
    are at most one non-empty class. On a clash, the qwc conflict rows name
    the lowest pair: the first term with a non-empty row, and its lowest."""
    if all(bool(x & ~z) + bool(x & z) + bool(z & ~x) <= 1
           for x, z in zip(*entry.transform.transformed.columns)):
        return
    rows = build_graph(entry.transform.transformed, "qwc").conflicts
    i = next(i for i, clash in enumerate(rows) if clash)
    j = (rows[i] & -rows[i]).bit_length() - 1
    raise ValueError(f"transformed terms {i} and {j} are not QWC")


def _check_coeffs(group: Hamiltonian, entry: GroupPlan) -> None:
    source = sorted(abs(c) for c in group.coefficients())
    image = sorted(abs(c) for c in entry.transform.transformed.coefficients())
    if len(source) != len(image) or any(abs(a - b) > 1e-12
                                        for a, b in zip(source, image)):
        raise ValueError("coefficient magnitudes changed")


def _check_term_count(group: Hamiltonian, entry: GroupPlan) -> None:
    """Raise ValueError unless the group has as many stated terms as terms."""
    stated, m = len(entry.transform.transformed.terms), len(group.terms)
    if stated != m:
        raise ValueError(f"{stated} transformed terms for {m} terms")


def _differ(got: tuple, want: tuple) -> int:
    """Bitset of the terms whose bits differ between two (xcol, zcol) pairs."""
    wrong = 0
    if got != want:
        for a, b in zip(got[0] + got[1], want[0] + want[1]):
            wrong |= a ^ b
    return wrong


def _image(n: int, xs: list[int], zs: list[int], minus: int, k: int) -> str:
    """Bit k of per-qubit term bitsets, signed by bit k of ``minus``, as a
    term string."""
    image = PauliProduct(n, sum(((xs[q] >> k) & 1) << q for q in range(n)),
                         sum(((zs[q] >> k) & 1) << q for q in range(n)))
    return f"{'-' if (minus >> k) & 1 else '+'}{image.to_term_string()}"


def _check_signs(group: Hamiltonian, entry: GroupPlan) -> None:
    """All group terms through the circuit at once, as term bitsets."""
    _check_term_count(group, entry)
    n = group.n_qubits
    stated = entry.transform.transformed
    xs, zs, minus = conjugate_columns(entry.circuit, *group.columns)
    wrong = _differ((xs, zs), stated.columns)
    for k, (c, t) in enumerate(zip(group.coefficients(), stated.coefficients())):
        if abs(t - (-c if (minus >> k) & 1 else c)) > 1e-12:
            wrong |= 1 << k
    if wrong:
        k = (wrong & -wrong).bit_length() - 1
        coeff, term = group.terms[k]
        t_coeff, t_term = stated.terms[k]
        raise ValueError(f"term {entry.transform.term_indices[k]} "
                         f"({coeff!r} {term.to_term_string()}) maps to "
                         f"{_image(n, xs, zs, minus, k)}, "
                         f"plan states {t_coeff!r} {t_term.to_term_string()}")


def _check_tableau(group: Hamiltonian, entry: GroupPlan) -> None:
    """C^dagger tau_i C = sigma_i, sign +1, for the circuit C and every
    factor i, and C^dagger X_q C = X_q and C^dagger Z_q C = Z_q, sign +1, on
    every qubit q without a sigma, all on term bitsets. The product of
    reflections U satisfies them all, and so does C = U Delta^dagger for
    any Clifford Delta that commutes with every sigma_i and acts as the
    identity off the sigma qubits: such a Delta is diagonal in the measured
    basis, so C^dagger and U^dagger give every measurement outcome with the
    same probability. The equations pin C up to exactly such a Delta, which
    is what the plan's contract T = C^dagger G C with T a sum of sigma
    strings needs. Bit k of the columns stands for tau_k, bits m + q and
    m + n + q for X_q and Z_q."""
    basis = entry.transform.basis
    basis.check_counts()
    n, m = basis.n_qubits, len(basis.taus)
    tau_x, tau_z = basis.tau_columns
    sigma_x, sigma_z = basis.sigma_columns
    # X_q and Z_q of a qubit without a sigma are one bit each; 0 elsewhere.
    other_x = [0 if sx | sz else 1 << (m + q)
               for q, (sx, sz) in enumerate(zip(sigma_x, sigma_z))]
    other_z = [b << n for b in other_x]
    xs, zs, minus = conjugate_columns(
        entry.circuit, [t | o for t, o in zip(tau_x, other_x)],
        [t | o for t, o in zip(tau_z, other_z)])
    wrong = minus
    for q in range(n):
        wrong |= xs[q] ^ (sigma_x[q] | other_x[q])
        wrong |= zs[q] ^ (sigma_z[q] | other_z[q])
    if not wrong:
        return
    k = (wrong & -wrong).bit_length() - 1
    image = _image(n, xs, zs, minus, k)
    if k >= m:
        q = (k - m) % n
        axis = "X" if k - m < n else "Z"
        raise ValueError(f"{axis}{q}, on a qubit without a sigma, maps to {image}, "
                         f"not +{axis}{q}")
    raise ValueError(f"tau_{k} ({basis.taus[k].to_term_string()}) maps to {image}, "
                     f"not +{basis.sigma_products[k].to_term_string()}")


def _check_spectra(group: Hamiltonian, entry: GroupPlan) -> None:
    """The stated group is the group's image under tau_i -> sigma_i, proved
    on term bitsets without the circuit. The taus commute and sigma_i
    anticommutes with tau_i alone, so taus and sigmas are each L independent
    commuting Hermitian generators, every joint sign pattern of multiplicity
    2^(n - L). Term k is e_k times the ascending product of the taus over
    S_k, the sigmas that anticommute with it, and its stated term must be
    e_k c_k times the product of those sigmas: both sums agree on every sign
    pattern, so their spectra are equal (a failing group may have equal
    spectra too). e_k comes from the i-exponent of the tau product (the
    ``PauliProduct.__mul__`` rule, telescoped) less the term's Y count, kept
    mod 4 in two bit planes over the terms: it must be even, its high bit e_k = -1.
    The basis invariants come first, read from ``basis.neighbours`` (cached
    by the basis row), so a defect of the basis fails this row with the
    basis row's detail."""
    basis = entry.transform.basis
    basis.neighbours
    _check_term_count(group, entry)
    n = group.n_qubits
    sigma_x, sigma_z = basis.sigma_columns
    group_x, group_z = group.columns
    # Per factor: S_i off one column (a one-qubit sigma anticommutes with the
    # products with a z bit on its qubit if it has an x bit, and vice versa),
    # then tau_i's bits XORed over S_i and its share of the exponent planes.
    xs, zs, want_x, want_z = [0] * n, [0] * n, [0] * n, [0] * n
    low = high = 0
    for i, (tau, (q, _)) in enumerate(zip(basis.taus, basis.sigmas)):
        x, z = sigma_x[q] >> i & 1, sigma_z[q] >> i & 1
        s = (group_z[q] if x else 0) ^ (group_x[q] if z else 0)
        want_x[q], want_z[q] = s if x else 0, s if z else 0
        clash = 0
        tx, tz = tau.x, tau.z
        bits = tx | tz
        while bits:
            t = (bits & -bits).bit_length() - 1
            if tx >> t & 1:
                clash ^= zs[t]
                xs[t] ^= s
            if tz >> t & 1:
                zs[t] ^= s
                if tx >> t & 1:
                    high ^= low & s
                    low ^= s
            bits &= bits - 1
        high ^= clash & s
    for x, z in zip(group_x, group_z):
        high ^= x & z & ~low
        low ^= x & z
    wrong = low | _differ((xs, zs), group.columns)
    indices = entry.transform.term_indices
    if wrong:
        k = (wrong & -wrong).bit_length() - 1
        raise ValueError(f"term {indices[k]} ({group.terms[k][1].to_term_string()}) is not "
                         "+/- the product of the taus whose sigmas anticommute with it")
    stated_wrong = _differ(entry.transform.transformed.columns, (want_x, want_z))
    stated = entry.transform.transformed.terms
    for k, ((c, _), (t, _)) in enumerate(zip(group.terms, stated)):
        if abs(t - (-c if (high >> k) & 1 else c)) > 1e-12:
            stated_wrong |= 1 << k
    if stated_wrong:
        k = (stated_wrong & -stated_wrong).bit_length() - 1
        (coeff, term), (t_coeff, t_term) = group.terms[k], stated[k]
        raise ValueError(f"term {indices[k]} ({coeff!r} {term.to_term_string()}) maps to "
                         f"{_image(n, want_x, want_z, high, k)} under tau_i -> sigma_i, "
                         f"plan states {t_coeff!r} {t_term.to_term_string()}")


# (row name, check) in row order. A check fails by raising ValueError(detail).
_CHECKS = (
    ("basis invariants", _check_basis),
    ("transformed groups qubit-wise commuting", _check_qwc),
    ("coefficient magnitudes preserved", _check_coeffs),
    ("circuit maps each group term to its transformed term (exact sign)", _check_signs),
    ("circuit maps each tau_i to +sigma_i and fixes the qubits without a sigma "
     "(tableau)", _check_tableau),
    ("spectra preserved (each group maps onto its transformed group under "
     "tau_i -> sigma_i)", _check_spectra),
)


def plan_checks(h: Hamiltonian, plan: MeasurementPlan) -> list[tuple[str, str, str]]:
    """Run the check suite on a plan for h; returns (name, status, detail) rows.

    Raises ValueError when the plan's width differs from h or a term index
    is out of range. The status is "pass" or "fail". Each group's
    ``Hamiltonian`` is built once and every check runs on it before the
    next group, so its ``columns``, and its transformed group's, are built
    once. A check fails by raising ValueError, or IndexError on a malformed
    group, with its detail as the message. A check that has failed is not
    run on later groups; its row names the first failing group.
    """
    if plan.n_qubits != h.n_qubits:
        raise ValueError("plan qubit count differs from the Hamiltonian")
    for gi, entry in enumerate(plan.groups):
        for i in entry.transform.term_indices:
            if not 0 <= i < len(h.terms):
                raise ValueError(f"plan group {gi}: term index {i} out of range")
    failures: dict[str, str] = {}
    for gi, entry in enumerate(plan.groups):
        group = Hamiltonian(h.n_qubits, tuple(h.terms[i] for i in entry.transform.term_indices))
        for name, fn in _CHECKS:
            if name not in failures:
                try:
                    fn(group, entry)
                except (ValueError, IndexError) as exc:
                    failures[name] = f"group {gi}: {exc}"

    problems = _partition_problems(h, plan)
    return [("groups partition the terms", "fail" if problems else "pass", problems)] + [
        (name, "fail", failures[name]) if name in failures else (name, "pass", "")
        for name, _ in _CHECKS]
