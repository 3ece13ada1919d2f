"""Clifford gate synthesis for the group-transforming unitaries.

Each factor V = (tau + sigma)/sqrt(2) with {tau, sigma} = 0 satisfies
V = (-i) e^(i pi/4 sigma) e^(i pi/4 tau) e^(i pi/4 sigma), and each
pi/4 Pauli exponent lowers to H/S/CNOT with an exactly tracked global phase.
Each qubit's runs of single-qubit gates fold, as they are emitted, into one
of the 24 single-qubit Cliffords, written out as at most 3 gates, and a CNOT
that meets the same CNOT with nothing left between them cancels it. Each tau
ladder ends on its sigma qubit and the factors are emitted in prefix order,
so consecutive ladders share CNOTs that cancel (after Hastings et al.,
arXiv:1403.1539).
"""

from __future__ import annotations

import math
from functools import cache
from typing import TYPE_CHECKING, NamedTuple

from .pauli import FrozenRecord, PauliProduct

if TYPE_CHECKING:
    from .transform import TauSigmaBasis

GATE_NAMES = ("H", "S", "SDG", "X", "Y", "Z", "CNOT")
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


class Gate(NamedTuple):
    """One gate; ``CliffordCircuit`` checks its name and qubits."""

    name: str
    qubits: tuple[int, ...]


class CliffordCircuit(FrozenRecord):
    """Gate list applied left to right, with global phase e^(i pi/4 k)."""

    _fields = ("n_qubits", "gates", "global_phase_exp")
    n_qubits: int
    gates: tuple[Gate, ...]
    global_phase_exp: int

    def __init__(self, n_qubits: int, gates: tuple[Gate, ...],
                 global_phase_exp: int = 0) -> None:
        """Check each distinct gate once (``check_gate``), in order of first
        occurrence, so the first bad gate is the one named."""
        for g in dict.fromkeys(gates):
            check_gate(g, n_qubits)
        vars(self).update(n_qubits=n_qubits, gates=gates,
                          global_phase_exp=global_phase_exp % 8)

    @classmethod
    def unchecked(cls, n_qubits: int, gates: tuple[Gate, ...],
                  global_phase_exp: int) -> CliffordCircuit:
        """A circuit of gates that its caller has checked, without the
        constructor's checks."""
        circuit = object.__new__(cls)
        vars(circuit).update(n_qubits=n_qubits, gates=gates,
                             global_phase_exp=global_phase_exp % 8)
        return circuit


def check_gate(g: Gate, n_qubits: int) -> None:
    """Reject a gate with an unknown name, the wrong number of qubits, a
    qubit outside ``n_qubits``, or (a CNOT) the same qubit twice."""
    if g.name not in GATE_NAMES:
        raise ValueError(f"unknown gate {g.name!r}")
    want = 2 if g.name == "CNOT" else 1
    if len(g.qubits) != want:
        raise ValueError(f"{g.name} takes {want} qubit(s)")
    if any(q < 0 or q >= n_qubits for q in g.qubits):
        raise ValueError(f"gate {g} outside {n_qubits} qubits")
    if want == 2 and g.qubits[0] == g.qubits[1]:
        raise ValueError(f"gate {g} uses qubit {g.qubits[0]} twice")


# Single-qubit runs, first gate first: an axis to Z and back, and the whole
# of e^(-i pi/4) exp(i pi/4 A) for a one-qubit A, as _append_exponent lowers it.
_TO_Z = {"X": ("H",), "Y": ("SDG", "H")}
_FROM_Z = {"X": ("H",), "Y": ("H", "S")}
_EXPONENT_1Q = {a: _TO_Z.get(a, ()) + ("SDG",) + _FROM_Z.get(a, ()) for a in "XYZ"}


def _matmul(a, b):
    return tuple(tuple(sum(a[r][k] * b[k][c] for k in range(2)) for c in range(2))
                 for r in range(2))


@cache
def _clifford_group() -> tuple[dict[tuple[str, ...], tuple[int, ...]],
                               tuple[tuple[str, ...], ...]]:
    """The 24 single-qubit Cliffords up to phase, as (step, runs).

    Element j stands for the matrix C_j of the gate run ``runs[j]`` (first
    gate first). The elements are found breadth first, trying the gates in
    ``GATE_NAMES`` order, so each run is a shortest one (at most 3 gates) and
    ``runs[0]`` is the empty run of the identity. ``step[(name,)][j]`` is
    8 k + l where G C_j = e^(i pi/4 l) C_k for the literal matrix G of gate
    name: the 24 x 6 transition table, built on first use from 2x2 complex
    matrices, with every phase a multiple of pi/4 read off the overlap
    tr(C_k^dagger G C_j) / 2. ``step`` also holds, under the run itself,
    the composed table of each run that ``synthesize`` applies at once.
    """
    matrices = [((1, 0), (0, 1))]
    runs: list[tuple[str, ...]] = [()]
    step: dict[tuple[str, ...], list[int]] = {(name,): [] for name in _GATE_1Q}
    j = 0
    while j < len(matrices):
        for name, g in _GATE_1Q.items():
            m = _matmul(g, matrices[j])
            for k, c in enumerate(matrices):
                overlap = sum(c[r][s].conjugate() * m[r][s]
                              for r in range(2) for s in range(2)) / 2
                if abs(abs(overlap) - 1) < 1e-9:
                    angle = math.atan2(overlap.imag, overlap.real)
                    step[(name,)].append(8 * k + round(angle / (math.pi / 4)) % 8)
                    break
            else:
                step[(name,)].append(8 * len(matrices))
                matrices.append(m)
                runs.append(runs[j] + (name,))
        j += 1
    for names in {*_TO_Z.values(), *_FROM_Z.values(), *_EXPONENT_1Q.values()}:
        table = [8 * j for j in range(len(runs))]
        for name in names:
            gate = step[(name,)]
            table = [gate[e >> 3] & ~7 | (gate[e >> 3] + e) & 7 for e in table]
        step[names] = table
    return {names: tuple(table) for names, table in step.items()}, tuple(runs)


class _Fold:
    """A gate list under construction that holds each qubit's current run of
    single-qubit gates as one pending element of ``_clifford_group`` and adds
    the run's exact phase to ``phase``.

    A CNOT first writes out the pending runs of its two qubits, each as the
    element's shortest run; ``circuit`` writes out the rest in qubit order.
    Every run stays between the same two CNOTs on its qubit, and none grows:
    a run costs at most 3 gates, none when it multiplies to the identity.
    A CNOT that would directly follow the same CNOT (same control and
    target) on both of its qubits, with both pending runs the identity,
    cancels it instead: neither is written. ``written[q]`` is the stack of
    the indices of the gates written on qubit q, so cancelling pops the
    pair and exposes the gates before it, and a run of such pairs
    telescopes. Runs already written are not folded again.
    """

    def __init__(self, n_qubits: int) -> None:
        self.step, self.runs = _clifford_group()
        self.n_qubits = n_qubits
        self.pending = [0] * n_qubits
        self.gates: list[Gate | None] = []
        self.written = [[-1] for _ in range(n_qubits)]
        self.phase = 0

    def run(self, names: tuple[str, ...], q: int) -> None:
        """Apply the gates ``names`` to qubit q, first gate first: one
        single gate, or a run that ``step`` holds composed."""
        e = self.step[names][self.pending[q]]
        self.pending[q] = e >> 3
        self.phase += e & 7

    def _write(self, q: int) -> None:
        j = self.pending[q]
        if j:
            gates = self.gates
            gates += [Gate(name, (q,)) for name in self.runs[j]]
            self.written[q].append(len(gates) - 1)
            self.pending[q] = 0

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
        self._write(control)
        self._write(target)
        on_control.append(len(self.gates))
        on_target.append(len(self.gates))
        self.gates.append(Gate("CNOT", (control, target)))

    def circuit(self, global_phase_exp: int) -> CliffordCircuit:
        """The written gates as a circuit, without the constructor's checks:
        every name is "CNOT" or from a ``_clifford_group`` run, the callers
        range-check every qubit, and a CNOT's two qubits differ."""
        for q in range(self.n_qubits):
            self._write(q)
        return CliffordCircuit.unchecked(self.n_qubits, tuple(filter(None, self.gates)),
                                         global_phase_exp + self.phase)


def _qubits(bits: int) -> list[int]:
    """The qubits of a support bitset, ascending, in O(weight)."""
    qubits = []
    while bits:
        qubits.append((bits & -bits).bit_length() - 1)
        bits &= bits - 1
    return qubits


def _append_exponent(fold: _Fold, p: PauliProduct, ladder: list[int]) -> None:
    """Emit the gates of e^(-i pi/4) exp(i pi/4 P), P phase-free and not I.

    Basis changes map every support axis to Z, a CNOT ladder over the
    support qubits in the order ``ladder`` (the support of P, each qubit
    once) folds the parity onto the last of them, and exp(i pi/4 Z) =
    e^(i pi/4) SDG supplies the rotation; the ladder and basis changes are
    then undone. Weight w costs 2(w-1) CNOTs before any cancels in the
    fold. ``fold`` is a ``_Fold`` or anything else with its ``run`` and
    ``cnot``.
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


def synthesize(basis: TauSigmaBasis) -> CliffordCircuit:
    """Full circuit for the product of reflections, in prefix order.

    The factors commute pairwise, so the order in which they are emitted
    does not change the operator. Each factor's tau ladder runs over the
    tau's other qubits in ascending order and ends on its sigma qubit. The
    factors are emitted in lexicographic order of their ladders off the
    sigma qubit, ties by index, so that consecutive ladders share their
    longest prefixes and the fold cancels the shared CNOT pairs: 2(w-1)
    CNOTs for a weight-w tau is an upper bound. A ladder is keyed by its
    qubits alone. Its (qubit, axis) pairs would order the same: every
    qubit of a tau off its own sigma qubit carries another factor's sigma,
    with which the tau commutes, so the tau's axis there is that sigma's
    axis (basis invariants).

    A factor is (-i) e^(i pi/4 sigma) e^(i pi/4 tau) e^(i pi/4 sigma): -i
    is e^(i pi/4 * 6) and each exponent's gates lack e^(i pi/4), so a
    factor adds 6 + 3 = 9 to the phase exponent. A sigma exponent is one
    run on the sigma's qubit. The gates are folded as they are emitted
    (``_Fold``), which keeps the operator and its phase exact: a one-qubit
    factor (Z + X)/sqrt(2) costs one H, not seven gates. Every factor acts
    only on the basis's sigma qubits, so no gate touches another qubit.
    Every factor is checked, in index order, before any ladder is built.
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
    ladders = [_qubits(tau.support & ~(1 << q))
               for tau, (q, _) in zip(basis.taus, basis.sigmas)]
    fold = _Fold(n)
    for i in sorted(range(len(ladders)), key=ladders.__getitem__):
        q, a = basis.sigmas[i]
        ladder = ladders[i]
        ladder.append(q)  # the key has been read; the sigma qubit goes last
        fold.run(_EXPONENT_1Q[a], q)
        _append_exponent(fold, basis.taus[i], ladder)
        fold.run(_EXPONENT_1Q[a], q)
    return fold.circuit(9 * len(basis.taus))


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

