"""Seeded Hamiltonian generators for the benchmark workloads.

Every workload is a list of instances. An instance is a qubit count plus a
list of distinct terms ``(coefficient, ((qubit, axis), ...))`` in file order,
so the program's parser keeps exactly this order and merges nothing. The same
(workload, seed) always gives the same instances, byte for byte.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from plancheck import commute, pauli_bits

# Terms below this magnitude are never emitted. It sits above the program's
# ingest drop tolerance (1e-10) so the parser keeps every term we write.
MIN_COEFF = 1e-9

AXES = "XYZ"


@dataclass(frozen=True)
class Instance:
    name: str
    n_qubits: int
    terms: tuple[tuple[float, tuple[tuple[int, str], ...]], ...]

    def to_text(self) -> str:
        lines = [f"qubits: {self.n_qubits}"]
        for coeff, ops in self.terms:
            term = " ".join(f"{a}{q}" for q, a in ops) if ops else "I"
            lines.append(f"{coeff!r} {term}")
        return "\n".join(lines) + "\n"


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _random_term(rng: random.Random, n_qubits: int, max_weight: int) -> tuple:
    weight = rng.randint(1, max_weight)
    return tuple((q, rng.choice(AXES))
                 for q in sorted(rng.sample(range(n_qubits), weight)))


def random_w4(seed: int) -> list[Instance]:
    """Four 30-qubit sums of 1,500 random weight-<=4 draws (~1,200 terms each).

    Four mid-sized sums rather than one of 5,000 draws: a run then holds
    several samples of each command, and the plan counts, summed over four
    independent draws, spread less from seed to seed.
    """
    out = []
    for i in range(4):
        rng = _rng("random-w4", seed, i)
        merged: dict[tuple, float] = {}
        for _ in range(1500):
            ops = _random_term(rng, 30, 4)
            merged[ops] = merged.get(ops, 0.0) + rng.uniform(-1.0, 1.0)
        terms = tuple((c, ops) for ops, c in merged.items() if abs(c) >= MIN_COEFF)
        out.append(Instance(f"random-w4-{i}", 30, terms))
    return out


def wide_sparse(seed: int) -> list[Instance]:
    """Twelve commuting weight-<=4 terms on each of 100, 150 and 200 qubits.

    The terms follow one fixed pattern of mutually commuting products on 24
    slots. The seed picks which qubits carry the slots, in increasing order,
    and the coefficients. Commutation keeps one fc group per instance, and
    the order-preserving placement keeps group, gate and depth counts the
    same for every seed, so a seed moves timings only through the qubits.
    """
    pattern_rng = random.Random("wide-sparse-pattern")
    pattern: list[tuple] = []
    while len(pattern) < 12:
        ops = _random_term(pattern_rng, 24, 4)
        if ops not in pattern and all(commute(pauli_bits(ops), pauli_bits(t))
                                       for t in pattern):
            pattern.append(ops)
    out = []
    for i, n in enumerate((100, 150, 200)):
        rng = _rng("wide-sparse", seed, i)
        place = sorted(rng.sample(range(n), 24))
        terms = tuple((rng.uniform(0.1, 1.0), tuple((place[s], a) for s, a in ops))
                      for ops in pattern)
        out.append(Instance(f"wide-sparse-{n}q", n, terms))
    return out


# --- Jordan-Wigner molecular-shape Hamiltonians -------------------------------

_I_POWERS = (1, 1j, -1, -1j)


def _ladder(pauli_cls, n: int, p: int, dagger: bool) -> dict:
    """JW image of a_p (or a_p^dagger): Z_0..Z_{p-1} (X_p +/- i Y_p) / 2."""
    zs = (1 << p) - 1
    bit = 1 << p
    # A product with both bits set on a qubit is the Hermitian Y there.
    return {pauli_cls(n, bit, zs): 0.5,
            pauli_cls(n, bit, zs | bit): -0.5j if dagger else 0.5j}


def _times(a: dict, b: dict) -> dict:
    out: dict = {}
    for pa, ca in a.items():
        for pb, cb in b.items():
            prod = pa * pb
            key = type(pa)(prod.n_qubits, prod.x, prod.z)
            out[key] = out.get(key, 0) + ca * cb * _I_POWERS[prod.phase_exp]
    return out


def _symmetric_integrals(rng: random.Random, n: int):
    """Random real one-body h_pq and chemist-notation (pq|rs) with 8-fold symmetry."""
    h = [[0.0] * n for _ in range(n)]
    for p in range(n):
        for q in range(p, n):
            h[p][q] = h[q][p] = rng.uniform(-1.0, 1.0)
    g: dict[tuple[int, int, int, int], float] = {}
    for p, q, r, s in itertools.product(range(n), repeat=4):
        if (p, q, r, s) in g:
            continue
        v = rng.uniform(-0.5, 0.5)
        for key in ((p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
                    (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p)):
            g[key] = v
    return h, g


def jordan_wigner_hamiltonian(pauli_cls, n: int, h, g) -> dict:
    """Exact JW map of sum h_pq a+_p a_q + 1/2 sum (pq|rs) a+_p a+_r a_s a_q.

    ``pauli_cls`` is the program's PauliProduct; products are formed with its
    exact i**k phase algebra. Returns {(x, z): real coefficient} after
    asserting that every imaginary part cancels.
    """
    create = [_ladder(pauli_cls, n, p, True) for p in range(n)]
    annihilate = [_ladder(pauli_cls, n, p, False) for p in range(n)]
    total: dict = {}

    def add(op: dict, scale: float) -> None:
        for p, c in op.items():
            total[p] = total.get(p, 0) + scale * c

    for p, q in itertools.product(range(n), repeat=2):
        if h[p][q]:
            add(_times(create[p], annihilate[q]), h[p][q])
    pairs_create = {(p, r): _times(create[p], create[r])
                    for p, r in itertools.product(range(n), repeat=2) if p != r}
    pairs_annihilate = {(s, q): _times(annihilate[s], annihilate[q])
                        for s, q in itertools.product(range(n), repeat=2) if s != q}
    for (p, r), cr in pairs_create.items():
        for (s, q), an in pairs_annihilate.items():
            v = g[(p, q, r, s)]
            if v:
                add(_times(cr, an), 0.5 * v)
    real: dict[tuple[int, int], float] = {}
    for p, c in total.items():
        if abs(c.imag) >= 1e-12:
            raise ArithmeticError(f"imaginary part {c.imag} survived the JW map")
        if abs(c.real) >= MIN_COEFF:
            real[(p.x, p.z)] = c.real
    return real


def molecular_jw(seed: int, pauli_cls) -> list[Instance]:
    """Three JW Hamiltonians on 6 spin-orbitals from random symmetric integrals."""
    n = 6
    out = []
    for i in range(3):
        rng = _rng("molecular-jw", seed, i)
        h, g = _symmetric_integrals(rng, n)
        terms = []
        for (x, z), c in jordan_wigner_hamiltonian(pauli_cls, n, h, g).items():
            ops = tuple((q, "IXZY"[((x >> q) & 1) | (((z >> q) & 1) << 1)])
                        for q in range(n) if ((x | z) >> q) & 1)
            terms.append((c, ops))
        out.append(Instance(f"molecular-jw-{i}", n, tuple(terms)))
    return out


WORKLOADS = ("random-w4", "molecular-jw", "wide-sparse")


def generate(workload: str, seed: int, pauli_cls) -> list[Instance]:
    if workload == "random-w4":
        return random_w4(seed)
    if workload == "molecular-jw":
        return molecular_jw(seed, pauli_cls)
    if workload == "wide-sparse":
        return wide_sparse(seed)
    raise ValueError(f"unknown workload {workload!r}")
