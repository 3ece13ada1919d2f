"""Clifford gate synthesis for the group-transforming unitaries.

Each factor V = (tau + sigma)/sqrt(2) with {tau, sigma} = 0 satisfies
V = (-i) e^(i pi/4 sigma) e^(i pi/4 tau) e^(i pi/4 sigma), and each
pi/4 Pauli exponent lowers to H/S/CNOT with an exactly tracked global phase.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .pauli import PauliProduct

if TYPE_CHECKING:
    from .transform import TauSigmaBasis

GATE_NAMES = ("H", "S", "SDG", "X", "Y", "Z", "CNOT")


class Gate(NamedTuple):
    """One gate; ``CliffordCircuit`` checks its name and qubits."""

    name: str
    qubits: tuple[int, ...]


@dataclass(frozen=True)
class CliffordCircuit:
    """Gate list applied left to right, with global phase e^(i pi/4 k)."""

    n_qubits: int
    gates: tuple[Gate, ...]
    global_phase_exp: int = 0

    def __post_init__(self) -> None:
        """Reject a gate with an unknown name, the wrong number of qubits, a
        qubit out of range, or (a CNOT) the same qubit twice. Each distinct
        gate is checked once, in order of first occurrence, so the first bad
        gate is the one named."""
        for g in dict.fromkeys(self.gates):
            if g.name not in GATE_NAMES:
                raise ValueError(f"unknown gate {g.name!r}")
            want = 2 if g.name == "CNOT" else 1
            if len(g.qubits) != want:
                raise ValueError(f"{g.name} takes {want} qubit(s)")
            if any(q < 0 or q >= self.n_qubits for q in g.qubits):
                raise ValueError(f"gate {g} outside {self.n_qubits} qubits")
            if want == 2 and g.qubits[0] == g.qubits[1]:
                raise ValueError(f"gate {g} uses qubit {g.qubits[0]} twice")
        object.__setattr__(self, "global_phase_exp", self.global_phase_exp % 8)


def _append_exponent(gates: list[Gate], p: PauliProduct) -> None:
    """Append the gates of e^(-i pi/4) exp(i pi/4 P), P phase-free and not I.

    Basis changes map every support axis to Z, a CNOT ladder folds the
    parity onto the last support qubit, and exp(i pi/4 Z) = e^(i pi/4) SDG
    supplies the rotation; the ladder and basis changes are then undone.
    Weight w costs 2(w-1) CNOTs.
    """
    support = []
    rest = p.support
    while rest:
        support.append((rest & -rest).bit_length() - 1)
        rest &= rest - 1
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
    gates += pre + ladder + [Gate("SDG", (support[-1],))] + ladder[::-1] + post


def synthesize(basis: TauSigmaBasis) -> CliffordCircuit:
    """Full circuit for the product of reflections, factor 1 first.

    The factors commute pairwise, so the concatenation order does not change
    the operator; gates of factor i appear before those of factor i+1. A
    factor is (-i) e^(i pi/4 sigma) e^(i pi/4 tau) e^(i pi/4 sigma): -i is
    e^(i pi/4 * 6) and each exponent's gates lack e^(i pi/4), so a factor
    adds 6 + 3 = 9 to the phase exponent.
    """
    gates: list[Gate] = []
    for i, tau in enumerate(basis.taus):
        sigma = basis.sigma_product(i)
        if tau.phase_exp:
            raise ValueError("exponent Pauli must carry no phase")
        if tau.commutes_with(sigma):
            raise ValueError("tau and sigma must anticommute")
        for p in (sigma, tau, sigma):
            _append_exponent(gates, p)
    return CliffordCircuit(basis.n_qubits, tuple(gates), 9 * len(basis.taus))


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
    """Inverse of circuit_to_dict; ValueError names the first bad field.

    One pass over the gate list. A gate whose fields have exactly the JSON
    types asked for is looked up in a memo of this circuit's gates, so equal
    gates share one ``Gate``; the types are checked on every gate, since
    ``True`` and ``1.0`` equal ``1`` as keys. Any other gate goes through
    ``_field``, which raises the one-line error.
    """
    memo: dict[tuple, Gate] = {}
    gates = []
    for g in _field(d, "gates", list):
        try:
            name, qubits = g["name"], g["qubits"]
        except (TypeError, KeyError):
            name = qubits = None
        if type(name) is str and type(qubits) is list:
            for q in qubits:
                if type(q) is not int:
                    break
            else:
                key = (name, *qubits)
                gate = memo.get(key)
                if gate is None:
                    gate = memo[key] = Gate(name, tuple(qubits))
                gates.append(gate)
                continue
        gates.append(Gate(_field(g, "name", str), tuple(_field(g, "qubits", list, int))))
    return CliffordCircuit(_field(d, "n_qubits", int), tuple(gates),
                           _field(d, "global_phase_exp", int))
