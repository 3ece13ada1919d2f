"""Clifford gate synthesis for the group-transforming unitaries.

The product U of the reflections (tau_i + sigma_i)/sqrt(2) of a basis is
compiled whole, in graph form: in the frame where every sigma is Z, the
taus are, up to sign, the stabilizers of a graph state (Van den Nest,
Dehaene and De Moor, arXiv:quant-ph/0308151), and U is a CZ layer on the
graph's edges, an H layer and the same CZ layer again, between single-qubit
runs; a frame Pauli fixes the signs and the global phase is read off one
amplitude (``synthesize``). A weight-w tau costs w - 1 CNOTs. Each qubit's
runs of single-qubit gates fold, as they are emitted, into one of the 24
single-qubit Cliffords, written out as at most 3 gates.
"""

from __future__ import annotations

import math
from functools import cache
from typing import TYPE_CHECKING, NamedTuple

from .pauli import FrozenRecord

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


# Per sigma axis a, the frame runs on the sigma's qubit, first gate first:
# R_a^dagger, which the circuit applies first, and R_a, which it applies
# last, with R_a^dagger a R_a = +Z.
_FRAME_IN = {"X": ("H",), "Y": ("SDG", "H"), "Z": ()}
_FRAME_OUT = {"X": ("H",), "Y": ("H", "S"), "Z": ()}
# Per (sigma axis, tau axis on the sigma's qubit), R^dagger b R for that tau
# axis b: (1 for a Y, 0 for an X; 1 for a minus sign). The pairs that miss
# are the tau axes that commute with the sigma.
_OWN = {("Z", "X"): (0, 0), ("Z", "Y"): (1, 0), ("X", "Z"): (0, 0), ("X", "Y"): (1, 1),
        ("Y", "Z"): (0, 0), ("Y", "X"): (1, 0)}
# The run on a sigma qubit between the CZ layers: the middle H, between the
# S of both layers of D at a Y vertex.
_MIDDLE = (("H",), ("S", "H", "S"))
# The gate of each (x, z) bit pair of the frame Pauli.
_LETTER = {(0, 0): (), (1, 0): ("X",), (1, 1): ("Y",), (0, 1): ("Z",)}


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
    the composed table of each frame and middle run that ``synthesize``
    applies at once.
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
    for names in {*_FRAME_IN.values(), *_FRAME_OUT.values(), *_MIDDLE}:
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
    """

    def __init__(self, n_qubits: int) -> None:
        self.step, self.runs = _clifford_group()
        self.n_qubits = n_qubits
        self.pending = [0] * n_qubits
        self.gates: list[Gate] = []
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
            self.gates += [Gate(name, (q,)) for name in self.runs[j]]
            self.pending[q] = 0

    def cnot(self, control: int, target: int) -> None:
        self._write(control)
        self._write(target)
        self.gates.append(Gate("CNOT", (control, target)))

    def circuit(self, global_phase_exp: int) -> CliffordCircuit:
        """The written gates as a circuit, without the constructor's checks:
        every name is "CNOT" or from a ``_clifford_group`` run, the callers
        range-check every qubit, and a CNOT's two qubits differ."""
        for q in range(self.n_qubits):
            self._write(q)
        return CliffordCircuit.unchecked(self.n_qubits, tuple(self.gates),
                                         global_phase_exp + self.phase)


def _qubits(bits: int) -> list[int]:
    """The qubits of a support bitset, ascending, in O(weight)."""
    qubits = []
    while bits:
        qubits.append((bits & -bits).bit_length() - 1)
        bits &= bits - 1
    return qubits


def _lowest(bits: int) -> int:
    return (bits & -bits).bit_length() - 1


def _cz_layer(fold: _Fold, blocks: list[tuple[int, list[int]]]) -> None:
    """A CZ on every edge of ``blocks``, (target, controls) pairs: each
    target's CZs as one H, a CNOT from each control, and one H."""
    for target, controls in blocks:
        fold.run(("H",), target)
        for control in controls:
            fold.cnot(control, target)
        fold.run(("H",), target)


def synthesize(basis: TauSigmaBasis) -> CliffordCircuit:
    """The circuit of U = prod_i (tau_i + sigma_i)/sqrt(2), global phase
    included, in graph form: sum_i (w_i - 1) CNOTs for taus of weights w_i.

    Frame. Each sigma qubit with axis a is conjugated by the run R_a of
    ``_FRAME_IN`` / ``_FRAME_OUT``, R_a^dagger a R_a = +Z; F is their
    product, so F^dagger sigma_i F = Z_i. On its sigma's qubit q_i, tau_i's
    axis anticommutes with sigma_i. On each other qubit it acts on, which
    carries a sigma_j that it commutes with, it has sigma_j's axis. So
    F^dagger tau_i F = s_i B_i, with B_i = (X or Y on q_i) Z_{N(i)} and N(i)
    the rest of tau_i's support. The taus commute, so N is symmetric: a
    graph G on the sigma qubits, with a Y mark where B_i has a Y. The mark
    and the sign s_i depend only on sigma_i's axis and tau_i's axis on q_i
    (``_OWN``), since the neighbours map to +Z.

    D H D. Let D be a CZ on every edge of G and an S on every Y vertex,
    and W = D H D with H on every sigma qubit. Conjugation by W maps B_i to
    +Z_i and Z_i to B_i, or to -B_i at a Y vertex (S^dagger X S = -Y). A
    frame Pauli P fixes the signs, so that V = P W maps tau_i to Z_i and
    Z_i to tau_i, as F^dagger U F does: P's x bit on q_i is set where
    exactly one of s_i = -1 and the Y mark holds, and P anticommutes with
    B_i where s_i = -1. The Z_i and tau_i generate every Pauli on the sigma
    qubits, so U = e^(i phi) F V F^dagger. In the gates, a CZ is H CNOT H
    on its higher qubit, the target; both CZ layers take the targets in
    ascending order (``_cz_layer``), so each qubit is a target, then a
    control, and its Hs fold. The S of D sit next to the middle H layer,
    with which they fold. An H layer lies between the two layers and no
    edge repeats in one, so no two CNOTs are adjacent copies.

    Phase. On |0...0> in the frame, only the all-sigma term of the
    expanded product has no X, so <0|F^dagger U F|0> = 2^(-m/2) for m
    factors. <0|P W|0> = 2^(-m/2) (-1)^e i^y (-i)^l, with e the edges
    inside P's x part, y the Y vertices in it and l the Y letters of P. The
    phase exponent, in units of pi/4, is the fold's minus 4 e + 2 y + 6 l.
    Gates touch only sigma qubits.

    The basis is checked first, with a few bitset operations per tau and
    one per neighbour, so in O(total tau weight) bitset steps: as many taus
    as sigmas; each sigma X, Y or Z on its own register qubit; each tau of
    the basis's width, phase-free, anticommuting with its sigma, with the
    sigma's axis on every other sigma qubit it acts on and on no other
    qubit; and N symmetric. Together these are ``TauSigmaBasis.validate``
    without a group. ValueError names the first violation.
    """
    n, taus, sigmas = basis.n_qubits, basis.taus, basis.sigmas
    if len(taus) != len(sigmas):
        raise ValueError(f"{len(taus)} taus for {len(sigmas)} sigmas")
    vertex: dict[int, int] = {}
    sx = sz = 0  # bit q: the axis of the sigma on qubit q has an x / z bit
    for i, (q, a) in enumerate(sigmas):
        if a not in _FRAME_IN or not 0 <= q < n:
            raise ValueError(f"sigma_{i} must be X, Y or Z on a qubit of the register")
        if vertex.setdefault(q, i) != i:
            raise ValueError(f"sigma_{vertex[q]} and sigma_{i} share qubit {q}")
        sx |= (a != "Z") << q
        sz |= (a != "X") << q
    neighbours = []
    ys = minus = 0  # qubit bitsets: the Y marks; the vertices with s_i = -1
    for i, tau in enumerate(taus):
        q, a = sigmas[i]
        if tau.n_qubits != n:
            raise ValueError(f"tau_{i} has {tau.n_qubits} qubits, the basis {n}")
        if tau.phase_exp:
            raise ValueError(f"tau_{i} must carry no phase")
        own = _OWN.get((a, tau.axis(q)))
        if own is None:
            raise ValueError(f"tau_{i} does not anticommute with sigma_{i}")
        rest = tau.support & ~(1 << q)
        if rest & ~(sx | sz):
            raise ValueError(f"tau_{i} acts on qubit {_lowest(rest & ~(sx | sz))}, "
                             "which has no sigma")
        wrong = ((tau.x ^ sx) | (tau.z ^ sz)) & rest
        if wrong:
            raise ValueError(f"tau_{i} anticommutes with sigma_{vertex[_lowest(wrong)]}")
        neighbours.append(rest)
        ys |= own[0] << q
        minus |= own[1] << q
    xs = minus ^ ys  # P's x part
    zs = 0  # P's z part
    edges = 0  # twice the edges inside P's x part
    blocks = []  # (target, controls) per qubit with a lower neighbour
    for i, rest in enumerate(neighbours):
        q = sigmas[i][0]
        for p in _qubits(rest):
            if not neighbours[vertex[p]] >> q & 1:
                raise ValueError(f"tau_{i} and tau_{vertex[p]} anticommute")
        inside = (rest & xs).bit_count()
        zs |= ((minus >> q ^ inside ^ ys >> q & xs >> q) & 1) << q
        edges += inside * (xs >> q & 1)
        below = rest & ((1 << q) - 1)
        if below:
            blocks.append((q, _qubits(below)))
    blocks.sort()
    fold = _Fold(n)
    for q, a in sigmas:
        fold.run(_FRAME_IN[a], q)
    _cz_layer(fold, blocks)
    for q, _ in sigmas:
        fold.run(_MIDDLE[ys >> q & 1], q)
    _cz_layer(fold, blocks)
    for q, a in sigmas:
        fold.run(_LETTER[xs >> q & 1, zs >> q & 1], q)
        fold.run(_FRAME_OUT[a], q)
    return fold.circuit(-(2 * edges + 2 * (ys & xs).bit_count() + 6 * (xs & zs).bit_count()))


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

