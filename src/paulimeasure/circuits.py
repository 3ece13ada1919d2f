"""Clifford gate synthesis for the group-transforming unitaries.

Each factor V = (tau + sigma)/sqrt(2) with {tau, sigma} = 0 satisfies
V = (-i) e^(i pi/4 sigma) e^(i pi/4 tau) e^(i pi/4 sigma), so the whole
unitary lowers to pi/4 Pauli exponents, which in turn decompose into
H/S/CNOT with an exactly tracked global phase.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .pauli import PauliProduct

if TYPE_CHECKING:
    from .transform import TauSigmaBasis

GATE_NAMES = ("H", "S", "SDG", "X", "Y", "Z", "CNOT")
_INVERSE_NAME = {"H": "H", "S": "SDG", "SDG": "S",
                 "X": "X", "Y": "Y", "Z": "Z", "CNOT": "CNOT"}


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.name not in GATE_NAMES:
            raise ValueError(f"unknown gate {self.name!r}")
        want = 2 if self.name == "CNOT" else 1
        if len(self.qubits) != want:
            raise ValueError(f"{self.name} takes {want} qubit(s)")


@dataclass(frozen=True)
class CliffordCircuit:
    """Gate list applied left to right, with global phase e^(i pi/4 k)."""

    n_qubits: int
    gates: tuple[Gate, ...]
    global_phase_exp: int = 0

    def __post_init__(self) -> None:
        for g in self.gates:
            if any(q < 0 or q >= self.n_qubits for q in g.qubits):
                raise ValueError(f"gate {g} outside {self.n_qubits} qubits")
        object.__setattr__(self, "global_phase_exp", self.global_phase_exp % 8)

    def inverse(self) -> CliffordCircuit:
        gates = tuple(Gate(_INVERSE_NAME[g.name], g.qubits)
                      for g in reversed(self.gates))
        return CliffordCircuit(self.n_qubits, gates, -self.global_phase_exp)


@dataclass(frozen=True)
class PauliExponent:
    """exp(i pi/4 P) for a phase-free, non-identity Pauli product."""

    pauli: PauliProduct

    def __post_init__(self) -> None:
        if self.pauli.phase_exp != 0:
            raise ValueError("exponent Pauli must carry no phase")
        if self.pauli.weight() == 0:
            raise ValueError("exponent Pauli must be non-identity")


def exponent_sequence(tau: PauliProduct, sigma: PauliProduct
                      ) -> tuple[int, tuple[PauliExponent, ...]]:
    """Exponent form of (tau + sigma)/sqrt(2).

    Returns (global_phase_exp, exponents) where the ordered product of the
    exponents times e^(i pi/4 global_phase_exp) equals the reflection; the
    phase is 6, i.e. the factor -i.
    """
    if tau.n_qubits != sigma.n_qubits:
        raise ValueError("qubit-count mismatch")
    if sigma.weight() != 1:
        raise ValueError("sigma must act on a single qubit")
    if tau.commutes_with(sigma):
        raise ValueError("tau and sigma must anticommute")
    return 6, (PauliExponent(sigma), PauliExponent(tau), PauliExponent(sigma))


def decompose_exponent(e: PauliExponent) -> CliffordCircuit:
    """Exact gate realization of exp(i pi/4 P).

    Basis changes map every support axis to Z, a CNOT ladder folds the
    parity onto the last support qubit, and exp(i pi/4 Z) = e^(i pi/4) SDG
    supplies the rotation; the ladder and basis changes are then undone.
    Weight w costs 2(w-1) CNOTs.
    """
    p = e.pauli
    support = [q for q in range(p.n_qubits) if (p.support >> q) & 1]
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
    target = support[-1]
    gates = pre + ladder + [Gate("SDG", (target,))] + ladder[::-1] + post
    return CliffordCircuit(p.n_qubits, tuple(gates), global_phase_exp=1)


def synthesize(basis: TauSigmaBasis) -> CliffordCircuit:
    """Full circuit for the product of reflections, factor 1 first.

    The factors commute pairwise, so the concatenation order does not change
    the operator; gates of factor i appear before those of factor i+1.
    """
    n = basis.n_qubits
    gates: list[Gate] = []
    phase = 0
    for i in range(n):
        seq_phase, exponents = exponent_sequence(basis.taus[i], basis.sigma_product(i))
        phase += seq_phase
        for exp in exponents:
            part = decompose_exponent(exp)
            gates.extend(part.gates)
            phase += part.global_phase_exp
    return CliffordCircuit(n, tuple(gates), phase)


def gate_counts(c: CliffordCircuit) -> dict[str, int]:
    """CNOT and single-qubit gate counts of the circuit."""
    cnots = sum(1 for g in c.gates if g.name == "CNOT")
    return {"cnots": cnots, "single_qubit": len(c.gates) - cnots}


def conjugate_columns(c: CliffordCircuit, xcol: list[int], zcol: list[int]
                      ) -> tuple[list[int], list[int], int]:
    """U^dagger P U for a whole set of products P at once, U the circuit.

    The products come as per-qubit term bitsets (``pauli.qubit_columns``):
    bit k of ``xcol[q]`` / ``zcol[q]`` is the x / z bit of product k on
    qubit q. Returns the bitsets of the images and the bitset of products
    whose image carries a minus sign. U applies the gates left to right, so
    the last gate acts on P first; the global phase cancels. Each gate costs
    a few big-int operations whatever the number of products.
    """
    x, z = list(xcol), list(zcol)
    sign = 0
    for gate in reversed(c.gates):
        name = gate.name
        if name == "CNOT":
            a, b = gate.qubits
            sign ^= x[a] & z[b] & ~(x[b] ^ z[a])
            x[b] ^= x[a]
            z[a] ^= z[b]
            continue
        q = gate.qubits[0]
        if name == "H":
            sign ^= x[q] & z[q]
            x[q], z[q] = z[q], x[q]
        elif name == "S":
            sign ^= x[q] & ~z[q]
            z[q] ^= x[q]
        elif name == "SDG":
            sign ^= x[q] & z[q]
            z[q] ^= x[q]
        elif name == "X":
            sign ^= z[q]
        elif name == "Z":
            sign ^= x[q]
        else:  # Y
            sign ^= x[q] ^ z[q]
    return x, z, sign


def circuit_to_dict(c: CliffordCircuit) -> dict:
    return {
        "n_qubits": c.n_qubits,
        "global_phase_exp": c.global_phase_exp,
        "gates": [{"name": g.name, "qubits": list(g.qubits)} for g in c.gates],
    }


_JSON_KINDS = {int: "an integer", str: "a string", list: "an array",
               dict: "an object", (int, float): "a number"}


def _field(obj, key: str, kind, item=None):
    """``obj[key]`` after checking that obj is a JSON object and the value
    has type kind (every element exactly of type item, for arrays);
    ValueError otherwise. Booleans never pass as numbers."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected an object with key {key!r}")
    if key not in obj:
        raise ValueError(f"missing key {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{key!r} must be {_JSON_KINDS[kind]}")
    if kind == (int, float) and not abs(value) <= sys.float_info.max:  # NaN too
        raise ValueError(f"{key!r} must be a finite number")
    if item is not None and not all(type(v) is item for v in value):
        raise ValueError(f"{key!r} items must each be {_JSON_KINDS[item]}")
    return value


def circuit_from_dict(d: dict) -> CliffordCircuit:
    """Inverse of circuit_to_dict; ValueError names the first bad field."""
    gates = tuple(Gate(_field(g, "name", str), tuple(_field(g, "qubits", list, int)))
                  for g in _field(d, "gates", list))
    return CliffordCircuit(_field(d, "n_qubits", int), gates,
                           _field(d, "global_phase_exp", int))


def circuit_to_text(c: CliffordCircuit) -> str:
    """One gate per line, e.g. "CNOT 0 3" or "H 2"."""
    return "\n".join(f"{g.name} {' '.join(str(q) for q in g.qubits)}"
                     for g in c.gates) + ("\n" if c.gates else "")
