"""Pauli-product algebra on bit-packed symplectic vectors.

A tensor product of single-qubit Paulis is stored as two integers: bit ``i``
of ``x`` is set when qubit ``i`` carries X or Y, bit ``i`` of ``z`` when it
carries Z or Y. A global factor ``i**phase_exp`` is tracked exactly as an
integer mod 4, so operator algebra never touches floating point.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable

DROP_TOLERANCE = 1e-10
# Widest input accepted, so that no small input asks for unbounded work.
MAX_QUBITS = 1024

_AXIS_FROM_BITS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_BITS_FROM_AXIS = {a: b for b, a in _AXIS_FROM_BITS.items()}
_TERM_TOKEN = re.compile(r"([XYZ])(\d+)\Z")
_HEADER = re.compile(r"qubits\s*:\s*(\d+)\Z")

I_POWERS = (1, 1j, -1, -1j)


class HamiltonianFormatError(ValueError):
    """Malformed Hamiltonian text input."""


@dataclass(frozen=True)
class PauliProduct:
    """``i**phase_exp`` times a tensor product of {I, X, Y, Z} over qubits."""

    n_qubits: int
    x: int = 0
    z: int = 0
    phase_exp: int = 0

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        mask = (1 << self.n_qubits) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("axis bits outside qubit range")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    @classmethod
    def identity(cls, n_qubits: int) -> PauliProduct:
        return cls(n_qubits, 0, 0, 0)

    @classmethod
    def single(cls, n_qubits: int, qubit: int, axis: str) -> PauliProduct:
        """One non-identity axis on ``qubit``, identity elsewhere."""
        if not 0 <= qubit < n_qubits:
            raise ValueError(f"qubit {qubit} out of range for {n_qubits} qubits")
        if axis not in ("X", "Y", "Z"):
            raise ValueError(f"axis must be X, Y or Z, got {axis!r}")
        xb, zb = _BITS_FROM_AXIS[axis]
        return cls(n_qubits, xb << qubit, zb << qubit, 0)

    @classmethod
    def from_label(cls, label: str, phase_exp: int = 0) -> PauliProduct:
        """Build from an 'IXYZ' style string; character ``i`` is qubit ``i``."""
        bad = next((a for a in label if a not in _BITS_FROM_AXIS), None)
        if bad is not None:
            raise ValueError(f"invalid Pauli character {bad!r}")
        return _from_axes(len(label), dict(enumerate(label)), phase_exp)

    @classmethod
    def from_term_string(cls, term: str, n_qubits: int) -> PauliProduct:
        """Build from token form, e.g. ``"X0 Z3"`` or ``"I"``."""
        assignment = parse_term_tokens(term.split())
        if assignment and max(assignment) >= n_qubits:
            raise ValueError(f"qubit index {max(assignment)} >= n_qubits {n_qubits}")
        return _from_axes(n_qubits, assignment)

    @classmethod
    def from_packed(cls, packed: int, n_qubits: int) -> PauliProduct:
        """Phase-free product whose GF(2) row is ``packed``."""
        return cls(n_qubits, packed & ((1 << n_qubits) - 1), packed >> n_qubits)

    def axis(self, qubit: int) -> str:
        return _AXIS_FROM_BITS[((self.x >> qubit) & 1, (self.z >> qubit) & 1)]

    def to_label(self) -> str:
        return "".join(self.axis(q) for q in range(self.n_qubits))

    def to_term_string(self) -> str:
        parts = [f"{self.axis(q)}{q}" for q in range(self.n_qubits)
                 if (self.support >> q) & 1]
        return " ".join(parts) if parts else "I"

    @property
    def packed(self) -> int:
        """GF(2) row ``x | z << n``: x-block in bits [0, N), z-block in [N, 2N).

        The phase is discarded.
        """
        return self.x | (self.z << self.n_qubits)

    @property
    def support(self) -> int:
        """Bitmask of qubits carrying a non-identity axis."""
        return self.x | self.z

    def weight(self) -> int:
        return self.support.bit_count()

    def commutes_with(self, other: PauliProduct) -> bool:
        """Zero symplectic form: an even number of anticommuting qubits."""
        if other.n_qubits != self.n_qubits:
            raise ValueError("qubit-count mismatch")
        return not ((self.x & other.z) ^ (self.z & other.x)).bit_count() & 1

    def qwc_with(self, other: PauliProduct) -> bool:
        if other.n_qubits != self.n_qubits:
            raise ValueError("qubit-count mismatch")
        clash = ((self.x ^ other.x) | (self.z ^ other.z)) & self.support & other.support
        return clash == 0

    def __mul__(self, other: PauliProduct) -> PauliProduct:
        if not isinstance(other, PauliProduct):
            return NotImplemented
        if other.n_qubits != self.n_qubits:
            raise ValueError("qubit-count mismatch")
        x3 = self.x ^ other.x
        z3 = self.z ^ other.z
        # i-exponent of the product, summed over qubits; derived from
        # sigma(x,z) = i^(xz) X^x Z^z and X Z = -Z X.
        g = ((self.x & self.z).bit_count() + (other.x & other.z).bit_count()
             + 2 * (self.z & other.x).bit_count() - (x3 & z3).bit_count())
        return PauliProduct(self.n_qubits, x3, z3,
                            (self.phase_exp + other.phase_exp + g) % 4)

    def __repr__(self) -> str:
        return f"PauliProduct({self.to_label()!r}, phase_exp={self.phase_exp})"


@dataclass(frozen=True)
class Hamiltonian:
    """Real linear combination of phase-free Pauli products."""

    n_qubits: int
    terms: tuple[tuple[float, PauliProduct], ...]

    def __post_init__(self) -> None:
        for coeff, prod in self.terms:
            if prod.n_qubits != self.n_qubits:
                raise ValueError("term qubit count differs from Hamiltonian")
            if prod.phase_exp != 0:
                raise ValueError("Hamiltonian terms must carry no phase")

    @classmethod
    def from_terms(cls, n_qubits: int,
                   terms: Iterable[tuple[float, PauliProduct]],
                   drop_tolerance: float = DROP_TOLERANCE) -> Hamiltonian:
        """Merge duplicate axis patterns and drop negligible coefficients."""
        merged: dict[tuple[int, int], list] = {}
        for coeff, prod in terms:
            if isinstance(coeff, complex):
                raise ValueError("non-real coefficient")
            c = float(coeff)
            if not math.isfinite(c):
                raise ValueError("non-finite coefficient")
            key = (prod.x, prod.z)
            if key in merged:
                merged[key][0] += c
            else:
                merged[key] = [c, prod]
        kept = tuple((c, p) for c, p in merged.values() if abs(c) >= drop_tolerance)
        return cls(n_qubits, kept)

    def coefficients(self) -> tuple[float, ...]:
        return tuple(c for c, _ in self.terms)

    def products(self) -> tuple[PauliProduct, ...]:
        return tuple(p for _, p in self.terms)

    def __len__(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class PauliSum:
    """Complex linear combination of phase-free Pauli products.

    Used for operators that are not Hermitian by construction, e.g. the
    expanded group unitaries.
    """

    n_qubits: int
    terms: tuple[tuple[complex, PauliProduct], ...]


def _from_axes(n_qubits: int, axes: dict[int, str], phase_exp: int = 0
               ) -> PauliProduct:
    """Product with axis ``axes[q]`` ("I", "X", "Y" or "Z") on each qubit q."""
    x = z = 0
    for q, a in axes.items():
        xb, zb = _BITS_FROM_AXIS[a]
        x |= xb << q
        z |= zb << q
    return PauliProduct(n_qubits, x, z, phase_exp)


def qubit_columns(n_qubits: int, products: Iterable[PauliProduct]
                  ) -> tuple[list[int], list[int]]:
    """Per-qubit term bitsets of a product list.

    Bit k of ``xcol[q]`` is set when product k has an X or a Y on qubit q,
    bit k of ``zcol[q]`` when it has a Z or a Y. Costs one big-int OR per
    non-identity axis.
    """
    xcol = [0] * n_qubits
    zcol = [0] * n_qubits
    for k, p in enumerate(products):
        bit = 1 << k
        for bits, col in ((p.x, xcol), (p.z, zcol)):
            while bits:
                low = bits & -bits
                col[low.bit_length() - 1] |= bit
                bits ^= low
    return xcol, zcol


def anticommuting(xcol: list[int], zcol: list[int], p: PauliProduct) -> int:
    """Bitset of the products, given as ``qubit_columns``, that anticommute
    with p: an XOR of zcol[q] over the x bits of p and of xcol[q] over its z
    bits, since anticommuting means an odd number of such clashes."""
    row = 0
    for bits, cols in ((p.x, zcol), (p.z, xcol)):
        while bits:
            low = bits & -bits
            row ^= cols[low.bit_length() - 1]
            bits ^= low
    return row


def parse_term_tokens(tokens: list[str]) -> dict[int, str]:
    """Parse term tokens like ["X0", "Z3"] or ["I"] into {qubit: axis}."""
    if not tokens:
        raise ValueError("empty term")
    if tokens == ["I"]:
        return {}
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
    return assignment


def parse_hamiltonian(source: str | Iterable[str],
                      drop_tolerance: float = DROP_TOLERANCE) -> Hamiltonian:
    """Parse the term-per-line text format.

    Lines hold ``<coefficient> <term>`` where the term is ``I`` or
    whitespace-separated ``X<k>``/``Y<k>``/``Z<k>`` tokens with 0-based qubit
    indices. ``#`` starts a comment, blank lines are skipped, and an optional
    ``qubits: <N>`` header overrides the inferred qubit count.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    declared: int | None = None
    raw: list[tuple[int, float, dict[int, str]]] = []
    max_index = -1
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            header = _HEADER.fullmatch(text)
            if header:
                if declared is not None:
                    raise ValueError("duplicate qubits header")
                declared = int(header.group(1))
                if not 1 <= declared <= MAX_QUBITS:
                    raise ValueError(f"qubits must be in 1..{MAX_QUBITS}")
                continue
            tokens = text.split()
            if len(tokens) < 2:
                raise ValueError("expected coefficient and term")
            try:
                coeff = float(tokens[0])
            except ValueError:
                raise ValueError(f"malformed coefficient {tokens[0]!r}") from None
            if not math.isfinite(coeff):
                raise ValueError("non-finite coefficient")
            assignment = parse_term_tokens(tokens[1:])
        except ValueError as exc:
            raise HamiltonianFormatError(f"line {lineno}: {exc}") from None
        if assignment:
            max_index = max(max_index, max(assignment))
        raw.append((lineno, coeff, assignment))
    if not raw:
        raise HamiltonianFormatError("no terms")
    n_qubits = declared if declared is not None else max(1, max_index + 1)
    terms = []
    for lineno, coeff, assignment in raw:
        if assignment and max(assignment) >= n_qubits:
            raise HamiltonianFormatError(
                f"line {lineno}: qubit index {max(assignment)} >= qubits {n_qubits}")
        terms.append((coeff, _from_axes(n_qubits, assignment)))
    return Hamiltonian.from_terms(n_qubits, terms, drop_tolerance)


def serialize_hamiltonian(h: Hamiltonian) -> str:
    """Inverse of parse_hamiltonian up to term order and float formatting."""
    lines = [f"qubits: {h.n_qubits}"]
    lines.extend(f"{coeff!r} {prod.to_term_string()}" for coeff, prod in h.terms)
    return "\n".join(lines) + "\n"
