"""Clifford gate synthesis for the group-transforming unitaries.

A group with basis taus and sigmas is measured through a Clifford C with
C^dagger tau_i C = +sigma_i, so that C^dagger G C is a sum of sigma
strings: prepare the state, apply C^dagger, measure each sigma qubit. The
product U of the reflections (tau_i + sigma_i)/sqrt(2) is one such C. In
the frame where every sigma is Z, the taus are, up to sign, the stabilizers
of a graph state (Van den Nest, Dehaene and De Moor, arXiv:quant-ph/0308151),
and U is a CZ layer on the graph's edges, an H layer and the same CZ layer
again, between single-qubit runs. ``synthesize`` emits one CZ layer, as in
the measurement circuits of Gokhale et al. (arXiv:1907.13623): C = U
Delta^dagger for a Clifford Delta that is diagonal in the measured basis,
so the outcomes are those of U. A frame Pauli fixes the signs, and a group
costs one CNOT per graph edge, half its total tau weight less one per tau.
A circuit stands for its unitary up to a global phase, which cancels in
C^dagger G C and no measurement observes. Each qubit's runs of
single-qubit gates fold, as they are emitted, into one of the 24
single-qubit Cliffords, written out as at most 3 gates. Delta is also
free on each sigma qubit alone, so each sigma qubit's first run takes the
diagonal gate (I, S, Z or S^dagger) that makes it shortest.
"""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING, NamedTuple

from .pauli import FrozenRecord

if TYPE_CHECKING:
    from .transform import TauSigmaBasis

GATE_NAMES = ("H", "S", "SDG", "X", "Y", "Z", "CNOT")


class Gate(NamedTuple):
    """One gate; ``CliffordCircuit`` checks its name and qubits."""

    name: str
    qubits: tuple[int, ...]


class CliffordCircuit(FrozenRecord):
    """Gate list applied left to right: a Clifford unitary up to phase."""

    _fields = ("n_qubits", "gates")
    n_qubits: int
    gates: tuple[Gate, ...]

    def __init__(self, n_qubits: int, gates: tuple[Gate, ...]) -> None:
        """Check each distinct gate once (``check_gate``), in order of first
        occurrence, so the first bad gate is the one named."""
        for g in dict.fromkeys(gates):
            check_gate(g, n_qubits)
        vars(self).update(n_qubits=n_qubits, gates=gates)

    @classmethod
    def unchecked(cls, n_qubits: int, gates: tuple[Gate, ...]) -> CliffordCircuit:
        """A circuit of gates that its caller has checked, without the
        constructor's checks."""
        circuit = object.__new__(cls)
        vars(circuit).update(n_qubits=n_qubits, gates=gates)
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
# The run on a sigma qubit between its frame run and the CZ layer, per Y
# mark: the H layer's H, then the S of D at a Y vertex.
_H_RUN = (("H",), ("H", "S"))
# The diagonal gates Delta_q that ``synthesize`` may put between a sigma
# qubit's frame run and its H run, in order of preference on a tie.
_DELTAS = ((), ("S",), ("Z",), ("SDG",))
# The gate of each (x, z) bit pair of the frame Pauli.
_LETTER = {(0, 0): (), (1, 0): ("X",), (1, 1): ("Y",), (0, 1): ("Z",)}


@cache
def _clifford_group() -> tuple[dict[tuple[str, ...], tuple[int, ...]],
                               tuple[tuple[str, ...], ...]]:
    """The 24 single-qubit Cliffords up to phase, as (step, runs).

    Element j stands for the Clifford C_j of the gate run ``runs[j]`` (first
    gate first), keyed by the signed images of X and Z under it
    (``conjugate_columns``), which fix it up to phase. The elements are
    found breadth first, trying the gates in ``GATE_NAMES`` order, so each
    run is a shortest one (at most 3 gates) and ``runs[0]`` is the empty
    run of the identity. ``step[(name,)][j]`` is the k with G C_j = C_k up
    to phase for gate name G: the 24 x 6 transition table, built on first
    use. ``step`` also holds, under the run itself, the composed table of
    each run that ``synthesize`` applies at once: the frame-out runs, and
    each frame-in run, Delta and H run in a row.
    """
    def key(run: tuple[str, ...]) -> tuple[int, int, int]:
        circuit = CliffordCircuit(1, tuple(Gate(name, (0,)) for name in run))
        (x,), (z,), sign = conjugate_columns(circuit, [0b01], [0b10])  # X, Z
        return x, z, sign

    runs: list[tuple[str, ...]] = [()]
    index = {key(()): 0}
    step: dict[tuple[str, ...], list[int]] = {(name,): [] for name in GATE_NAMES[:-1]}
    for run in runs:  # runs grows as it is read: breadth first
        for name, table in step.items():
            grown = run + name
            k = index.setdefault(key(grown), len(runs))
            if k == len(runs):
                runs.append(grown)
            table.append(k)
    for names in {*_FRAME_OUT.values(), *(frame + delta + h for frame in _FRAME_IN.values()
                                          for delta in _DELTAS for h in _H_RUN)}:
        table = list(range(len(runs)))
        for name in names:
            table = [step[(name,)][j] for j in table]
        step[names] = table
    return {names: tuple(table) for names, table in step.items()}, tuple(runs)


@cache
def _first_runs() -> dict[tuple[str, int, tuple[str, ...]], tuple[str, ...]]:
    """Per (sigma axis a, Y mark y, tail), the run ``_FRAME_IN[a]``, Delta,
    ``_H_RUN[y]`` for the Delta of ``_DELTAS`` whose run, followed by the
    tail, is the shortest element of ``_clifford_group``; the first such
    Delta on a tie. A tail is the rest of a sigma qubit's first run in
    ``synthesize``: the H of a CZ target, nothing, or the frame letter and
    ``_FRAME_OUT[a]`` of a qubit without a neighbour."""
    step, runs = _clifford_group()

    def length(names: tuple[str, ...]) -> int:
        j = 0
        for name in names:
            j = step[(name,)][j]
        return len(runs[j])

    choice = {}
    for a, frame in _FRAME_IN.items():
        for tail in (("H",), (), *(letter + _FRAME_OUT[a] for letter in _LETTER.values())):
            for y, h in enumerate(_H_RUN):
                choice[a, y, tail] = min((frame + delta + h for delta in _DELTAS),
                                         key=lambda names: length(names + tail))
    return choice


class _Fold:
    """A gate list under construction that holds each qubit's current run of
    single-qubit gates as one pending element of ``_clifford_group``.

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

    def run(self, names: tuple[str, ...], q: int) -> None:
        """Apply the gates ``names`` to qubit q, first gate first: one
        single gate, or a run that ``step`` holds composed."""
        self.pending[q] = self.step[names][self.pending[q]]

    def _write(self, q: int) -> None:
        j = self.pending[q]
        if j:
            self.gates += [Gate(name, (q,)) for name in self.runs[j]]
            self.pending[q] = 0

    def cnot(self, control: int, target: int) -> None:
        self._write(control)
        self._write(target)
        self.gates.append(Gate("CNOT", (control, target)))

    def circuit(self) -> CliffordCircuit:
        """The written gates as a circuit, without the constructor's checks:
        every name is "CNOT" or from a ``_clifford_group`` run, the callers
        range-check every qubit, and a CNOT's two qubits differ."""
        for q in range(self.n_qubits):
            self._write(q)
        return CliffordCircuit.unchecked(self.n_qubits, tuple(self.gates))


def _qubits(bits: int) -> list[int]:
    """The qubits of a support bitset, ascending, in O(weight)."""
    qubits = []
    while bits:
        qubits.append((bits & -bits).bit_length() - 1)
        bits &= bits - 1
    return qubits


def synthesize(basis: TauSigmaBasis) -> CliffordCircuit:
    """A measurement circuit C of the basis: C^dagger tau_i C = +sigma_i
    for every i, and C fixes every qubit without a sigma. It is C = U
    Delta^dagger for U = prod_i (tau_i + sigma_i)/sqrt(2) and a Clifford
    Delta that commutes with every sigma_i and acts only on sigma qubits,
    so C^dagger G C = U^dagger G U for a group G of the basis, and C^dagger
    and U^dagger give each measurement outcome with the same probability.
    It costs one CNOT per graph edge, sum_i (w_i - 1)/2 for taus of weights
    w_i.

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

    D H. Let D be a CZ on every edge of G and an S on every Y vertex, and
    W = D H with H on every sigma qubit. Conjugation by W maps B_i to +Z_i,
    or to -Z_i at a Y vertex (S^dagger X S = -Y). A frame Pauli P fixes the
    signs, so that V = P W maps tau_i to +Z_i: P's x bit on q_i is set
    where exactly one of s_i = -1 and the Y mark holds, and P anticommutes
    with B_i where s_i = -1. So C = F V F^dagger. U is F P D H D F^dagger
    up to phase; in U^dagger A U its first D acts last, on Z strings, so
    dropping it leaves Delta = F D F^dagger, diagonal in the sigma basis.
    In the gates, a CZ is H CNOT H on its higher qubit, the target; each
    target's CZs share one H on each side, and the layer takes the targets
    in ascending order, so each qubit is a target, then a control, and its
    Hs fold. The S of D sit next to the H layer, with which they fold. No
    edge repeats, so no two CNOTs are adjacent copies. Gates touch only
    sigma qubits.

    Delta per qubit. Between its frame-in run and its H run each sigma
    qubit q takes one diagonal gate Delta_q of I, S, Z and S^dagger: the one
    whose folded first run on q is shortest, I on a tie, then S, Z and
    S^dagger (``_first_runs``). The first run is the qubit's gates before
    its first CNOT: the frame-in run, Delta_q and the H run, then the H of
    a CZ target, or for a qubit without a neighbour its letter of P and
    frame-out run, which make up its whole circuit. No other run moves.
    This multiplies C on the right by F Delta_q F^dagger, which commutes
    with every sigma_i and is the identity off the sigma qubits, so the
    contract above still holds, with the same taus, sigmas and transformed
    terms. A Y tau on its sigma's qubit alone, with sigma X, becomes the
    one gate S, where the frame gave S^dagger H.

    The basis is checked first, by reading ``basis.neighbours``, which
    raises ValueError naming its first violated invariant.
    """
    n, sigmas, neighbours = basis.n_qubits, basis.sigmas, basis.neighbours
    ys = minus = 0  # qubit bitsets: the Y marks; the vertices with s_i = -1
    for tau, (q, a) in zip(basis.taus, sigmas):
        y, sign = _OWN[a, tau.axis(q)]
        ys |= y << q
        minus |= sign << q
    xs = minus ^ ys  # P's x part
    zs = 0  # P's z part
    blocks = []  # (target, controls) per qubit with a lower neighbour
    first_runs = _first_runs()
    fold = _Fold(n)
    for (q, a), rest in zip(sigmas, neighbours):
        x = xs >> q & 1
        z = (minus >> q ^ (rest & xs).bit_count() ^ ys >> q & x) & 1
        zs |= z << q
        below = rest & ((1 << q) - 1)
        if below:
            blocks.append((q, _qubits(below)))
        tail = ("H",) if below else () if rest else _LETTER[x, z] + _FRAME_OUT[a]
        fold.run(first_runs[a, ys >> q & 1, tail], q)
    blocks.sort()
    for target, controls in blocks:
        fold.run(("H",), target)
        for control in controls:
            fold.cnot(control, target)
        fold.run(("H",), target)
    for q, a in sigmas:
        fold.run(_LETTER[xs >> q & 1, zs >> q & 1], q)
        fold.run(_FRAME_OUT[a], q)
    return fold.circuit()


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

