"""Independent checks and cost metrics for measurement plans.

Nothing here uses the program's algebra. Each gate's conjugation action is
read off its literal matrix, and terms are propagated through circuits with
an explicit sign, so the check holds at any width and catches a flipped sign.

Terms are ``(coefficient, ((qubit, axis), ...))`` as the workload generators
emit them; plans and covers are the program's JSON output, already decoded.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

AXES = "IXYZ"
_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_GATE_1Q = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "S": np.diag([1, 1j]),
    "SDG": np.diag([1, -1j]),
    "X": _PAULI["X"],
    "Y": _PAULI["Y"],
    "Z": _PAULI["Z"],
}
# Control is the first tensor factor.
_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                 dtype=complex)


def _as_signed_pauli(m: np.ndarray, labels) -> tuple[int, str]:
    """(sign, label) with m == sign * Pauli(label); exactly one must match."""
    hits = []
    for label in labels:
        p = _PAULI[label[0]]
        for a in label[1:]:
            p = np.kron(p, _PAULI[a])
        for sign in (1, -1):
            if np.allclose(m, sign * p, atol=1e-12):
                hits.append((sign, label))
    if len(hits) != 1:
        raise ValueError(f"conjugate is not a single signed Pauli: {hits}")
    return hits[0]


def _conjugation_tables():
    """G^dagger P G for every gate and Pauli on its qubits, as (sign, Pauli)."""
    one = {name: {a: _as_signed_pauli(g.conj().T @ _PAULI[a] @ g, AXES)
                  for a in AXES}
           for name, g in _GATE_1Q.items()}
    pairs = ["".join(p) for p in itertools.product(AXES, repeat=2)]
    two = {}
    for pair in pairs:
        m = np.kron(_PAULI[pair[0]], _PAULI[pair[1]])
        two[pair] = _as_signed_pauli(_CNOT.conj().T @ m @ _CNOT, pairs)
    return one, two


_ONE_QUBIT, _CNOT_TABLE = _conjugation_tables()


def parse_term(text: str) -> dict[int, str]:
    """``"X0 Z3"`` or ``"I"`` to {qubit: axis}."""
    if text == "I":
        return {}
    return {int(tok[1:]): tok[0] for tok in text.split()}


def conjugate(ops: dict[int, str], gates) -> tuple[int, dict[int, str]]:
    """U^dagger P U for the circuit U that applies ``gates`` left to right.

    Returns (sign, {qubit: axis}). U = G_m ... G_1, so the last gate acts
    first on P.
    """
    axes = dict(ops)
    sign = 1
    for gate in reversed(gates):
        qubits = gate["qubits"]
        if gate["name"] == "CNOT":
            c, t = qubits
            before = axes.get(c, "I") + axes.get(t, "I")
            if before == "II":
                continue
            s, after = _CNOT_TABLE[before]
            for q, a in zip((c, t), after):
                if a == "I":
                    axes.pop(q, None)
                else:
                    axes[q] = a
        else:
            q = qubits[0]
            a = axes.get(q, "I")
            if a == "I":
                continue
            s, axes[q] = _ONE_QUBIT[gate["name"]][a]
        sign *= s
    return sign, axes


def pauli_bits(ops) -> tuple[int, int]:
    """(x, z) bitmasks of {qubit: axis} or ((qubit, axis), ...)."""
    x = z = 0
    for q, a in (ops.items() if isinstance(ops, dict) else ops):
        if a in "XY":
            x |= 1 << q
        if a in "ZY":
            z |= 1 << q
    return x, z


def commute(p: tuple[int, int], q: tuple[int, int]) -> bool:
    return ((p[0] & q[1]).bit_count() + (p[1] & q[0]).bit_count()) % 2 == 0


def _qubitwise_commute(p: tuple[int, int], q: tuple[int, int]) -> bool:
    shared = (p[0] | p[1]) & (q[0] | q[1])
    return ((p[0] ^ q[0]) | (p[1] ^ q[1])) & shared == 0


def check_cover(terms, groups, relation: str) -> list[str]:
    """Problems with a grouping: every index exactly once, relation inside groups."""
    problems = []
    n = len(terms)
    seen = [0] * n
    for gi, group in enumerate(groups):
        for i in group:
            if not (isinstance(i, int) and 0 <= i < n):
                problems.append(f"group {gi}: index {i!r} out of range")
            else:
                seen[i] += 1
    problems += [f"term {i} appears {k} times" for i, k in enumerate(seen) if k != 1]
    if problems:
        return problems
    ok = commute if relation == "fc" else _qubitwise_commute
    bits = [pauli_bits(ops) for _, ops in terms]
    for gi, group in enumerate(groups):
        for i, j in itertools.combinations(group, 2):
            if not ok(bits[i], bits[j]):
                problems.append(f"group {gi}: terms {i} and {j} violate {relation}")
    return problems


def check_plan(terms, n_qubits: int, plan: dict) -> list[str]:
    """Problems with a plan; an empty list means every check passed.

    Checks the fc partition, that each circuit maps each group term to its
    stated transformed term with the exact sign and coefficient, and that
    every transformed group is qubit-wise commuting.
    """
    if plan.get("n_qubits") != n_qubits:
        return [f"plan has {plan.get('n_qubits')} qubits, input has {n_qubits}"]
    groups = plan["groups"]
    problems = check_cover(terms, [g["term_indices"] for g in groups], "fc")
    if problems:
        return problems
    for gi, g in enumerate(groups):
        if len(g["transformed"]) != len(g["term_indices"]):
            problems.append(f"group {gi}: {len(g['transformed'])} transformed terms "
                            f"for {len(g['term_indices'])} terms")
            continue
        gates = g["circuit"]["gates"]
        images = []
        for i, t in zip(g["term_indices"], g["transformed"]):
            coeff, ops = terms[i]
            sign, image = conjugate(dict(ops), gates)
            stated = parse_term(t["pauli"])
            if image != stated or t["coeff"] != sign * coeff:
                problems.append(f"group {gi}: term {i} maps to {sign:+d}*{image} "
                                f"times {coeff!r}, plan states {t['coeff']!r} "
                                f"{t['pauli']}")
            images.append(pauli_bits(stated))
        for a, b in itertools.combinations(range(len(images)), 2):
            if not _qubitwise_commute(images[a], images[b]):
                problems.append(f"group {gi}: transformed terms {a} and {b} not QWC")
    return problems


def circuit_depth(gates) -> int:
    """ASAP depth: each gate starts after the last gate on any of its qubits."""
    level: dict[int, int] = {}
    depth = 0
    for gate in gates:
        d = 1 + max(level.get(q, 0) for q in gate["qubits"])
        for q in gate["qubits"]:
            level[q] = d
        depth = max(depth, d)
    return depth


def plan_costs(terms, plan: dict) -> dict:
    """Group count, gate counts, summed depth, shot-cost proxy and tau weights.

    The shot-cost proxy is (sum over groups of the 2-norm of the group's
    non-identity coefficients) squared, with the coefficients scaled to unit
    2-norm overall so that it rates the grouping, not the random scale of the
    coefficients: it is 1 for a single group and at most the group count.
    An idle-qubit gate touches only qubits that no term of its group acts on.
    """
    cnots = gates_total = depth = idle = 0
    norm_sum = total_squares = 0.0
    tau_weights = []
    for g in plan["groups"]:
        gates = g["circuit"]["gates"]
        gates_total += len(gates)
        cnots += sum(1 for gate in gates if gate["name"] == "CNOT")
        depth += circuit_depth(gates)
        support = set()
        squares = 0.0
        for i in g["term_indices"]:
            coeff, ops = terms[i]
            support.update(q for q, _ in ops)
            if ops:
                squares += coeff * coeff
        norm_sum += math.sqrt(squares)
        total_squares += squares
        idle += sum(1 for gate in gates if support.isdisjoint(gate["qubits"]))
        tau_weights += [len(parse_term(t)) for t in g["tau"]]
    return {
        "groups": len(plan["groups"]),
        "cnots": cnots,
        "gates": gates_total,
        "depth": depth,
        "shot_cost": norm_sum * norm_sum / total_squares if total_squares else 0.0,
        "idle_qubit_gates": idle,
        "tau_weight_sum": sum(tau_weights),
        "tau_count": len(tau_weights),
    }


def fc_edge_density(terms, n_qubits: int, block: int = 512) -> float:
    """Share of term pairs that commute, from (X Z^T + Z X^T) mod 2 in row blocks."""
    m = len(terms)
    if m < 2:
        return 1.0
    x = np.zeros((m, n_qubits), dtype=np.float32)
    z = np.zeros((m, n_qubits), dtype=np.float32)
    for i, (_, ops) in enumerate(terms):
        for q, a in ops:
            x[i, q] = a in "XY"
            z[i, q] = a in "ZY"
    anticommuting = 0
    for lo in range(0, m, block):
        odd = (x[lo:lo + block] @ z.T + z[lo:lo + block] @ x.T) % 2
        anticommuting += int(odd.sum())
    return 1.0 - anticommuting / (m * (m - 1))
