"""Pauli-product algebra on bit-packed symplectic vectors.

A tensor product of single-qubit Paulis is stored as two integers: bit ``i``
of ``x`` is set when qubit ``i`` carries X or Y, bit ``i`` of ``z`` when it
carries Z or Y. A global factor ``i**phase_exp`` is tracked exactly as an
integer mod 4, so operator algebra never touches floating point.
"""

from __future__ import annotations

import math
import re
from functools import cached_property
from typing import Iterable

DROP_TOLERANCE = 1e-10
# Widest input accepted, so that no small input asks for unbounded work.
MAX_QUBITS = 1024
# Widest template that ``count_compatible`` enumerates.
MAX_COUNT_QUBITS = 8

_AXIS_FROM_BITS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_BITS_FROM_AXIS = {a: b for b, a in _AXIS_FROM_BITS.items()}
# (x bit, z bit) of the axis letter that starts a term token.
_TOKEN_BITS = {a: b for a, b in _BITS_FROM_AXIS.items() if a != "I"}
_HEADER = re.compile(r"qubits\s*:\s*(\d+)\Z")

I_POWERS = (1, 1j, -1, -1j)


class HamiltonianFormatError(ValueError):
    """Malformed Hamiltonian text input."""


class FrozenRecord:
    """Base of the records whose constructor checks or normalizes its fields,
    or that cache values derived from them: equality, hash and repr over
    ``_fields``, which ``__init__`` writes past the refusing ``__setattr__``
    and ``__delattr__``. Pickling and copying call the constructor again.
    Every method is written out here, so defining a record runs no code
    generator at import."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


class PauliProduct(FrozenRecord):
    """``i**phase_exp`` times a tensor product of {I, X, Y, Z} over qubits.

    Slotted, so it takes no attributes beyond its four fields. ``__init__``
    checks them and writes them through the slot descriptors; pickling and
    copying go through it too.
    """

    __slots__ = _fields = ("n_qubits", "x", "z", "phase_exp")
    n_qubits: int
    x: int
    z: int
    phase_exp: int

    def __init__(self, n_qubits: int, x: int = 0, z: int = 0, phase_exp: int = 0) -> None:
        if n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        mask = (1 << n_qubits) - 1
        if x & ~mask or z & ~mask:
            raise ValueError("axis bits outside qubit range")
        _set_n_qubits(self, n_qubits)
        _set_x(self, x)
        _set_z(self, z)
        _set_phase_exp(self, phase_exp % 4)

    @classmethod
    def identity(cls, n_qubits: int) -> PauliProduct:
        return cls(n_qubits, 0, 0, 0)

    @classmethod
    def single(cls, n_qubits: int, qubit: int, axis: str) -> PauliProduct:
        """One non-identity axis on ``qubit``, identity elsewhere."""
        return cls(n_qubits, *single_bits(n_qubits, qubit, axis))

    @classmethod
    def from_term_string(cls, term: str, n_qubits: int) -> PauliProduct:
        """Build from token form, e.g. ``"X0 Z3"`` or ``"I"``."""
        x, z, top = parse_term_tokens(term.split())
        if x | z and top >= n_qubits:
            raise ValueError(f"qubit index {top} >= n_qubits {n_qubits}")
        return cls(n_qubits, x, z)

    @classmethod
    def from_packed(cls, packed: int, n_qubits: int) -> PauliProduct:
        """Phase-free product whose GF(2) row is ``packed``."""
        return cls(n_qubits, packed & ((1 << n_qubits) - 1), packed >> n_qubits)

    def axis(self, qubit: int) -> str:
        return _AXIS_FROM_BITS[((self.x >> qubit) & 1, (self.z >> qubit) & 1)]

    def to_label(self) -> str:
        return "".join(self.axis(q) for q in range(self.n_qubits))

    def to_term_string(self) -> str:
        """Token form, e.g. ``"X0 Z3"`` or ``"I"``; one step per support
        qubit, reading its axis off the x and z bits."""
        x, z = self.x, self.z
        parts = []
        rest = x | z
        while rest:
            low = rest & -rest
            axis = ("Y" if z & low else "X") if x & low else "Z"
            parts.append(f"{axis}{low.bit_length() - 1}")
            rest ^= low
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


# Slot setters that get past the frozen ``__setattr__``, for ``__init__``.
_set_n_qubits, _set_x, _set_z, _set_phase_exp = (
    PauliProduct.__dict__[name].__set__ for name in PauliProduct._fields)


class Hamiltonian(FrozenRecord):
    """Real linear combination of phase-free Pauli products."""

    _fields = ("n_qubits", "terms")
    n_qubits: int
    terms: tuple[tuple[float, PauliProduct], ...]

    def __init__(self, n_qubits: int, terms: tuple[tuple[float, PauliProduct], ...]) -> None:
        for coeff, prod in terms:
            if prod.n_qubits != n_qubits:
                raise ValueError("term qubit count differs from Hamiltonian")
            if prod.phase_exp != 0:
                raise ValueError("Hamiltonian terms must carry no phase")
        vars(self).update(n_qubits=n_qubits, terms=terms)

    @classmethod
    def from_terms(cls, n_qubits: int,
                   terms: Iterable[tuple[float, PauliProduct]],
                   drop_tolerance: float = DROP_TOLERANCE) -> Hamiltonian:
        """Merge duplicate axis patterns and drop negligible coefficients:
        those below drop_tolerance in magnitude, and exact zeros at any
        tolerance. A sum of finite coefficients that overflows is an error."""
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
        for c, prod in merged.values():
            if not math.isfinite(c):
                raise ValueError(
                    f"merged coefficient of {prod.to_term_string()} is not finite")
        kept = tuple((c, p) for c, p in merged.values() if c and abs(c) >= drop_tolerance)
        return cls(n_qubits, kept)

    def coefficients(self) -> tuple[float, ...]:
        return tuple(c for c, _ in self.terms)

    def products(self) -> tuple[PauliProduct, ...]:
        return tuple(p for _, p in self.terms)

    @cached_property
    def columns(self) -> tuple[list[int], list[int]]:
        """The terms' ``qubit_columns``, built on first use and kept in the
        instance ``__dict__``, outside ``_fields``. Callers only read them."""
        return qubit_columns(self.n_qubits, self.products())


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


def single_bits(n_qubits: int, qubit: int, axis: str) -> tuple[int, int]:
    """(x, z) bitmasks of one non-identity axis on ``qubit``; ValueError for
    a qubit outside the register or an axis other than X, Y and Z."""
    if not 0 <= qubit < n_qubits:
        raise ValueError(f"qubit {qubit} out of range for {n_qubits} qubits")
    if axis not in ("X", "Y", "Z"):
        raise ValueError(f"axis must be X, Y or Z, got {axis!r}")
    xb, zb = _BITS_FROM_AXIS[axis]
    return xb << qubit, zb << qubit


def count_compatible(template: PauliProduct) -> dict[str, int]:
    """Exhaustive census of the 4^N products that are QWC / commuting with template."""
    n = template.n_qubits
    if n > MAX_COUNT_QUBITS:
        raise ValueError(f"enumeration limited to {MAX_COUNT_QUBITS} qubits")
    xt, zt, st = template.x, template.z, template.support
    n_qwc = n_commuting = 0
    for x in range(1 << n):
        for z in range(1 << n):
            if (((xt ^ x) | (zt ^ z)) & st & (x | z)) == 0:
                n_qwc += 1
            if (((xt & z).bit_count() + (zt & x).bit_count()) & 1) == 0:
                n_commuting += 1
    return {"n_qwc": n_qwc, "n_commuting": n_commuting}


# Canonical token (axis letter, then the qubit's ``str``) -> (x bit, z bit,
# qubit bit, qubit), filled as tokens first parse: at most 3 * MAX_QUBITS
# entries, none at import. Each entry is a function of its key alone, so
# sharing the memo across callers changes no result.
_TOKEN_MEMO: dict[str, tuple[int, int, int, int]] = {}


def parse_term_tokens(tokens: list[str]) -> tuple[int, int, int]:
    """Parse term tokens like ["X0", "Z3"] or ["I"] into (x, z, top): the
    product's axis bitmasks and its highest qubit, -1 for ["I"].

    A token is an axis letter of ``_TOKEN_BITS`` followed by decimal digits
    (``str.isdecimal``, the digits a regex ``\\d`` matches). One pass in
    token order: a token in ``_TOKEN_MEMO`` costs one lookup, any other goes
    through ``_parse_token``, and a qubit listed twice raises where its
    second token stands, so the first bad token is the one named.
    """
    if not tokens:
        raise ValueError("empty term")
    if tokens == ["I"]:
        return 0, 0, -1
    x = z = seen = 0
    top = -1
    memo = _TOKEN_MEMO
    for tok in tokens:
        xb, zb, qb, qubit = memo.get(tok) or _parse_token(tok)
        if seen & qb:
            raise ValueError(f"qubit {qubit} listed twice in one term")
        x |= xb
        z |= zb
        seen |= qb
        if qubit > top:
            top = qubit
    return x, z, top


def _parse_token(tok: str) -> tuple[int, int, int, int]:
    """The ``_TOKEN_MEMO`` entry of one token, added to the memo when the
    token is canonical; ValueError for a malformed token or a qubit past
    ``MAX_QUBITS``."""
    bits = _TOKEN_BITS.get(tok[:1])
    digits = tok[1:]
    if bits is None or not digits.isdecimal():
        raise ValueError(f"malformed token {tok!r}")
    qubit = int(digits)
    if qubit >= MAX_QUBITS:
        raise ValueError(f"qubit index {qubit} exceeds the {MAX_QUBITS}-qubit limit")
    entry = (bits[0] << qubit, bits[1] << qubit, 1 << qubit, qubit)
    if digits == str(qubit):
        _TOKEN_MEMO[tok] = entry
    return entry


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
    raw: list[tuple[int, float, int, int, int]] = []
    max_index = -1
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            header = _HEADER.fullmatch(text) if text[0] == "q" else None
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
            x, z, top = parse_term_tokens(tokens[1:])
        except ValueError as exc:
            raise HamiltonianFormatError(f"line {lineno}: {exc}") from None
        max_index = max(max_index, top)
        raw.append((lineno, coeff, x, z, top))
    if not raw:
        raise HamiltonianFormatError("no terms")
    n_qubits = declared if declared is not None else max(1, max_index + 1)
    terms = []
    for lineno, coeff, x, z, top in raw:
        if top >= n_qubits:
            raise HamiltonianFormatError(
                f"line {lineno}: qubit index {top} >= qubits {n_qubits}")
        terms.append((coeff, PauliProduct(n_qubits, x, z)))
    return Hamiltonian.from_terms(n_qubits, terms, drop_tolerance)
