"""Turn fully commuting term groups into qubit-wise commuting ones.

For a group of mutually commuting Pauli products the binary images span an
isotropic subspace. The group acts on a set S of qubits, its support. A
Lagrangian basis of S's symplectic space containing that subspace supplies
|S| mutually commuting products on S (the taus) that commute with every
group term; each tau is paired with a single-qubit sigma on S that
anticommutes with it and commutes with everything else. Conjugating by the
product of reflections (tau_i + sigma_i)/sqrt(2) then rewrites every term
as +/- a product of sigmas, which is qubit-wise commuting by construction.
Qubits outside S get no factor, so the circuit leaves them alone. Any such
basis will do, and a weight-w tau costs w - 1 CNOTs (``circuits.synthesize``),
so on each qubit where the group uses one axis the tau is that single-qubit
axis, which costs none; a qubit-wise commuting group gets no CNOT at all. Each
group's transformed terms are read off its circuit, with exact signs.
"""

from __future__ import annotations

import json
import sys
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from . import gf2
from .circuits import CliffordCircuit, Gate, check_gate, conjugate_columns, synthesize
from .grouping import _array, _number, validate_cover
from .pauli import (MAX_QUBITS, FrozenRecord, Hamiltonian, PauliProduct, anticommuting,
                    qubit_columns, single_bits)


def _commute_pairwise(columns: tuple[list[int], list[int]],
                      products: Sequence[PauliProduct]) -> bool:
    """No two of the products anticommute, tested on their term bitsets
    ``columns``, the products' ``qubit_columns``."""
    return not any(anticommuting(*columns, p) for p in products)


def _qubits(rows: Iterable[int], n: int) -> int:
    """Bitmask of the qubits that any of the packed rows acts on."""
    touched = 0
    for v in rows:
        touched |= v
    return (touched | touched >> n) & ((1 << n) - 1)


class TauSigmaBasis(FrozenRecord):
    """Lagrangian tau basis with its single-qubit sigma partners.

    Invariants: there are as many taus as sigmas; sigma qubits are pairwise
    distinct; every tau acts only on sigma qubits; taus mutually commute
    and are GF(2)-independent, so they are a Lagrangian basis of the sigma
    qubits; sigma_i anticommutes with tau_i and commutes with every other
    tau. A basis of one tau per register qubit is the case where the sigma
    qubits are the whole register.
    """

    _fields = ("n_qubits", "taus", "sigmas")
    n_qubits: int
    taus: tuple[PauliProduct, ...]
    sigmas: tuple[tuple[int, str], ...]

    def __init__(self, n_qubits: int, taus: tuple[PauliProduct, ...],
                 sigmas: tuple[tuple[int, str], ...]) -> None:
        vars(self).update(n_qubits=n_qubits, taus=taus, sigmas=sigmas)

    @cached_property
    def sigma_products(self) -> tuple[PauliProduct, ...]:
        """The sigmas as single-qubit products, sigma_k at index k."""
        return tuple(PauliProduct.single(self.n_qubits, q, a) for q, a in self.sigmas)

    @cached_property
    def tau_columns(self) -> tuple[list[int], list[int]]:
        """The taus as per-qubit term bitsets: bit k stands for tau_k."""
        return qubit_columns(self.n_qubits, self.taus)

    @cached_property
    def sigma_columns(self) -> tuple[list[int], list[int]]:
        """The sigmas as per-qubit term bitsets: bit k stands for sigma_k.
        Read off the (qubit, axis) pairs; raises the ValueError of
        ``PauliProduct.single`` for the first sigma it rejects."""
        n = self.n_qubits
        xcol = [0] * n
        zcol = [0] * n
        for k, (q, a) in enumerate(self.sigmas):
            x, z = single_bits(n, q, a)
            if x:
                xcol[q] |= 1 << k
            if z:
                zcol[q] |= 1 << k
        return xcol, zcol

    def check_counts(self) -> None:
        """Raise ValueError unless there are as many taus as sigmas."""
        if len(self.taus) != len(self.sigmas):
            raise ValueError(f"{len(self.taus)} taus for {len(self.sigmas)} sigmas")

    def validate(self, group: Hamiltonian | None = None) -> None:
        """Raise ValueError naming the first violated invariant, at the lowest
        index; each tau or group term is tested with one bitset. With a group
        this is the whole precondition for transforming it: a term of the
        basis's width that commutes with the taus, a Lagrangian basis of the
        sigma qubits, and acts only on those qubits lies in the tau span."""
        n = self.n_qubits
        self.check_counts()
        for t in self.taus:
            if t.n_qubits != n:
                raise ValueError("tau qubit count differs from basis")
            if t.phase_exp != 0:
                raise ValueError("taus must carry no phase")
        if len({q for q, _ in self.sigmas}) != len(self.sigmas):
            raise ValueError("sigma qubits must be pairwise distinct")
        sigma_x, sigma_z = self.sigma_columns
        sigma_qubits = 0
        for q, _ in self.sigmas:
            sigma_qubits |= 1 << q
        for i, tau in enumerate(self.taus):
            outside = tau.support & ~sigma_qubits
            if outside:
                q = (outside & -outside).bit_length() - 1
                raise ValueError(f"tau_{i} acts on qubit {q}, which has no sigma")
        if not (gf2.is_independent([t.packed for t in self.taus])
                and _commute_pairwise(self.tau_columns, self.taus)):
            raise ValueError("taus are not a Lagrangian basis")
        for i, tau in enumerate(self.taus):
            wrong = anticommuting(sigma_x, sigma_z, tau) ^ (1 << i)
            if wrong:
                j = (wrong & -wrong).bit_length() - 1
                raise ValueError(f"tau_{i} does not anticommute with sigma_{i}" if j == i
                                 else f"tau_{i} anticommutes with sigma_{j}")
        if group is not None:
            if group.n_qubits != n:
                raise ValueError("group qubit count differs from basis")
            for ti, prod in enumerate(group.products()):
                hits = anticommuting(*self.tau_columns, prod)
                if hits:
                    k = (hits & -hits).bit_length() - 1
                    raise ValueError(f"group term {ti} anticommutes with tau_{k}")
            for ti, prod in enumerate(group.products()):
                outside = prod.support & ~sigma_qubits
                if outside:
                    q = (outside & -outside).bit_length() - 1
                    raise ValueError(f"group term {ti} acts on qubit {q}, which has no sigma")


class TransformedGroup(NamedTuple):
    """QWC image of one commuting group under its tau/sigma basis."""

    term_indices: tuple[int, ...]
    basis: TauSigmaBasis
    transformed: Hamiltonian


class GroupPlan(NamedTuple):
    transform: TransformedGroup
    circuit: CliffordCircuit


class MeasurementPlan(NamedTuple):
    n_qubits: int
    groups: tuple[GroupPlan, ...]


def find_tau(group: Hamiltonian) -> list[PauliProduct]:
    """|S| mutually commuting products on the group's support S (the qubits
    its terms act on) that commute with every group term, whose span holds
    every term.

    Let U be the qubits of S on which every term that acts there has the
    same axis a_q: only one of x & ~z, z & ~x and x & z is non-zero among
    the group's ``columns`` on q, and R the rest of S. The taus start with
    the single-qubit a_q for each q in U, in qubit order; ``find_sigma``
    then pairs each with a sigma on its own qubit and no carrier, so they
    cost no CNOT. U's bits are cleared from the term vectors, which still
    commute pairwise, as on U the terms commute qubit by qubit. Row
    reduction of what is left yields a basis of its span on R, and every
    term is a product of U's taus and that basis.

    When the taus number fewer than the register's N qubits, the basis is
    grown to a Lagrangian one of R inside the symplectic complement, built
    over R's free columns only: those of any other qubit q would give X_q
    and Z_q. That leaves a coisotropic subspace of R's symplectic space.
    The completion runs even when the basis is already Lagrangian on R,
    below N rather than below |R|, as it did before the single-qubit taus;
    the benchmark's tracer self-test counts its ``gf2.symplectic_inner``
    calls on ``wide-sparse``. Walking U over S's set bits, not the
    register, keeps wide sparse groups cheap.

    Pairwise commutation is checked first, on the group's ``columns``
    (``pipeline``'s cover check's). Constant terms contribute the zero
    vector; a group of constants has no taus.
    """
    n = group.n_qubits
    products = group.products()
    xcol, zcol = group.columns
    if not _commute_pairwise((xcol, zcol), products):
        raise ValueError("group terms do not commute")
    vecs = [p.packed for p in products]
    local: list[int] = []
    uniform = 0
    rest = _qubits(vecs, n)
    while rest:
        low = rest & -rest
        q = low.bit_length() - 1
        x, z = xcol[q], zcol[q]
        # One axis on the qubit: all X (no z bit), all Z (no x bit) or all Y.
        if not x or not z or x == z:
            local.append((low if x else 0) | (low << n if z else 0))
            uniform |= low
        rest ^= low
    keep = ~(uniform | uniform << n)
    basis, _ = gf2.row_reduce([v & keep for v in vecs])
    if len(local) + len(basis) < n:
        support = _qubits(basis, n)
        basis = gf2.lagrangian_extract(gf2.symplectic_complement(basis, n, support), n,
                                       support.bit_count())
    return [PauliProduct.from_packed(v, n) for v in local + basis]


def find_sigma(taus: Sequence[PauliProduct]) -> TauSigmaBasis:
    """Assign a single-qubit sigma to each tau, re-orthogonalizing the rest.

    The taus must be a Lagrangian basis of the qubits they act on: as many
    independent, commuting taus as qubits in their joint support. Each of
    those qubits gets one sigma; the rest of the register gets none.

    Step i takes the lowest qubit that tau i touches among the unassigned
    ones. Two axes there anticommute with tau i, and either can partner it;
    one of them may be Y. Every other tau k (earlier and later) that
    anticommutes with the partner, a carrier, is then replaced by
    tau_k tau_i: updating only the later ones can leave an earlier tau
    anticommuting with a later sigma, which would break the returned
    invariants. The step takes the axis whose update leaves the smaller
    total tau weight: the circuit costs exactly w - 1 CNOTs for a weight-w
    tau (``circuits.synthesize``), so that is the smaller CNOT count after
    the step. On a tie it takes X for a Y or Z and Z for an X.
    The taus with tau i's own axis on the qubit carry either partner, so
    only the others are scored, one popcount pair each. The carriers are
    read off per-bit column bitsets that follow every change to the
    vectors, so a step costs in proportion to the weight of tau_i and the
    number of taus with a non-identity axis on its qubit, not to n.

    The sweep proves independence. If every step finds an unassigned qubit,
    sigma_i anticommutes with tau_i alone, so the final taus are
    independent, and so are the inputs, whose span holds them. If tau i
    touches none, after the earlier steps it commutes with every earlier
    sigma_j, so it is a product of some of them. It would anticommute with
    tau_j for each sigma_j in that product, since tau_j anticommutes with
    sigma_j alone among them. The taus commute, so the product is empty,
    tau i is the identity and the input was dependent: the step raises.
    """
    if not taus:
        raise ValueError("empty tau basis")
    n = taus[0].n_qubits
    if any(t.n_qubits != n or t.phase_exp != 0 for t in taus):
        raise ValueError("taus must share the qubit count and carry no phase")
    vecs = [t.packed for t in taus]
    xcol, zcol = qubit_columns(n, taus)
    unassigned = _qubits(vecs, n)
    if len(vecs) != unassigned.bit_count() or not _commute_pairwise((xcol, zcol), taus):
        raise ValueError("taus are not a Lagrangian basis")
    # Bit k of cols[b] is bit b of vecs[k]: the x columns, then the z columns.
    cols = xcol + zcol
    mask = (1 << n) - 1
    sigmas: list[tuple[int, str]] = []
    for i in range(len(vecs)):
        tau = vecs[i]
        avail = (tau | tau >> n) & unassigned
        if not avail:
            raise ValueError("taus are not a Lagrangian basis")
        qubit = (avail & -avail).bit_length() - 1
        # X anticommutes with the taus that have a z bit on the qubit, Z with
        # those that have an x bit, Y with those that have exactly one.
        xs, zs = cols[qubit], cols[n + qubit]
        if tau >> (n + qubit) & 1:
            axis, carriers = "X", zs
            alt, alt_carriers = ("Z", xs) if tau >> qubit & 1 else ("Y", xs ^ zs)
        else:
            axis, carriers = "Z", xs
            alt, alt_carriers = "Y", xs ^ zs
        # The weight that the alternative's update adds over this axis's.
        change = 0
        rest = carriers ^ alt_carriers
        while rest:
            low = rest & -rest
            v = vecs[low.bit_length() - 1]
            w = v ^ tau
            w = ((w | w >> n) & mask).bit_count() - ((v | v >> n) & mask).bit_count()
            change += w if low & alt_carriers else -w
            rest ^= low
        if change < 0:
            axis, carriers = alt, alt_carriers
        carriers &= ~(1 << i)
        rest = carriers
        while rest:
            low = rest & -rest
            vecs[low.bit_length() - 1] ^= tau
            rest ^= low
        rest = tau
        while rest:
            low = rest & -rest
            cols[low.bit_length() - 1] ^= carriers
            rest ^= low
        sigmas.append((qubit, axis))
        unassigned &= ~(1 << qubit)
    return TauSigmaBasis(n, tuple(PauliProduct.from_packed(v, n) for v in vecs),
                         tuple(sigmas))


def _conjugated(group: Hamiltonian, circuit: CliffordCircuit) -> Hamiltonian:
    """U^dagger G U for the group G and the circuit U: the group's
    ``columns`` through the gates at once (``conjugate_columns``), each
    image read back as one product. A coefficient is multiplied by -1 or 1,
    so an int stays one."""
    n = group.n_qubits
    xs, zs, minus = conjugate_columns(circuit, *group.columns)
    x, z = [0] * len(group.terms), [0] * len(group.terms)
    for q in range(n):
        for cols, masks in ((xs, x), (zs, z)):
            rest = cols[q]
            while rest:
                low = rest & -rest
                masks[low.bit_length() - 1] |= 1 << q
                rest ^= low
    return Hamiltonian(n, tuple(
        (coeff * (-1 if minus >> k & 1 else 1), PauliProduct(n, x[k], z[k]))
        for k, coeff in enumerate(group.coefficients())))


def transform_group(group: Hamiltonian, basis: TauSigmaBasis,
                    term_indices: Iterable[int] | None = None) -> TransformedGroup:
    """Map C * P -> C * p * product of sigmas for every group term, its image
    under the basis's circuit (``_conjugated``), after ``basis.validate``.
    Constant terms pass through unchanged. The output is supported only on
    sigma qubits with sigma axes, hence qubit-wise commuting, and keeps the
    input coefficient magnitudes term by term."""
    basis.validate(group)
    indices = tuple(term_indices) if term_indices is not None \
        else tuple(range(len(group.terms)))
    if len(indices) != len(group.terms):
        raise ValueError("term_indices length differs from the group")
    return TransformedGroup(indices, basis, _conjugated(group, synthesize(basis)))


def pipeline(h: Hamiltonian, cover) -> MeasurementPlan:
    """Per cover group: find taus and sigmas, synthesize the circuit and read
    the transformed terms off it. ``find_sigma`` proves the invariants of
    its basis and ``find_tau``'s taus span every group term on the group's
    support, so no basis is validated against its group again;
    ``synthesize`` checks its own input, in O(total tau weight). The cover
    check uses the rule of ``find_tau``'s, so no group that passes it fails
    there. Each group is the cover check's ``Hamiltonian``, so its
    ``columns`` are built once."""
    report = validate_cover(h, cover, "fc")
    if report.violations:
        raise ValueError(f"cover invalid under fc: {len(report.violations)} violations, "
                         f"first {report.violations[0]}")
    entries: list[GroupPlan] = []
    for group_indices, sub in zip(cover.groups, report.groups):
        taus = find_tau(sub)
        # A group of constants acts on no qubit: no factors, no gates.
        basis = find_sigma(taus) if taus else TauSigmaBasis(h.n_qubits, (), ())
        circuit = synthesize(basis)
        tg = TransformedGroup(tuple(group_indices), basis, _conjugated(sub, circuit))
        entries.append(GroupPlan(tg, circuit))
    return MeasurementPlan(h.n_qubits, tuple(entries))


# Objects of the plan file, indented for where they sit: plan > groups >
# group (level 2) > its fields > sigma, term and gate items (levels 4, 5).
_SIGMA = """{{
          "qubit": {},
          "axis": {}
        }}"""
_TERM = """{{
          "coeff": {},
          "pauli": "{}"
        }}"""
_GATE = """{{
            "name": {},
            "qubits": {}
          }}"""
_GROUP = """{{
      "term_indices": {},
      "tau": {},
      "sigma": {},
      "transformed": {},
      "circuit": {{
        "n_qubits": {},
        "global_phase_exp": {},
        "gates": {}
      }}
    }}"""


def _gate_block(gate: Gate) -> str:
    return _GATE.format(json.dumps(gate.name),
                        _array([_number(q) for q in gate.qubits], 6))


def plan_to_json(plan: MeasurementPlan) -> str:
    """The plan file: byte for byte ``json.dumps(d, indent=2) + "\\n"`` of
    its dict form ``d``, built without that dict.

    This is where the plan schema is written down. Every object is filled
    into a template indented for its place. Numbers follow ``_number``.
    Term strings from ``to_term_string`` hold only axis letters, digits
    and spaces, so they are written unescaped; a sigma axis and a gate name
    go through json.dumps. Each distinct gate's block is built once per
    call, so the cost per gate is a dict lookup.
    """
    blocks: dict[Gate, str] = {}
    groups = []
    for entry in plan.groups:
        tg, c = entry.transform, entry.circuit
        gates = []
        for g in c.gates:
            # True and 1.0 equal 1 as keys, so only exact ints share a block;
            # a gate has one or two qubits.
            if type(g.qubits[0]) is int is type(g.qubits[-1]):
                gates.append(blocks.get(g) or blocks.setdefault(g, _gate_block(g)))
            else:
                gates.append(_gate_block(g))
        groups.append(_GROUP.format(
            _array([_number(i) for i in tg.term_indices], 3),
            _array([f'"{t.to_term_string()}"' for t in tg.basis.taus], 3),
            _array([_SIGMA.format(_number(q), json.dumps(a))
                    for q, a in tg.basis.sigmas], 3),
            _array([_TERM.format(_number(coeff), p.to_term_string())
                    for coeff, p in tg.transformed.terms], 3),
            _number(c.n_qubits), _number(c.global_phase_exp), _array(gates, 4)))
    return (f'{{\n  "n_qubits": {_number(plan.n_qubits)},\n  "groups": '
            f'{_array(groups, 1)}\n}}\n')


def plan_to_dict(plan: MeasurementPlan) -> dict:
    """The plan's JSON form as Python objects: ``json.loads(plan_to_json(plan))``."""
    return json.loads(plan_to_json(plan))


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


def _gates_from_list(items: list, memo: dict[tuple, Gate]) -> tuple[list[Gate], list[Gate]]:
    """The gates of a circuit's gate objects, and those of them new to
    ``memo``, in order of first occurrence.

    A gate is looked up in ``memo`` by (name, *qubits), so equal gates
    share one ``Gate``. Its fields are read directly when they have exactly
    the JSON types asked for, and through ``_field``, which raises the
    one-line error, otherwise; the types are checked on every gate, since
    ``True`` and ``1.0`` equal ``1`` as keys.
    """
    gates, new = [], []
    for g in items:
        try:
            name, qubits = g["name"], g["qubits"]
        except (TypeError, KeyError):
            name = qubits = None
        exact = type(name) is str and type(qubits) is list
        for q in qubits if exact else ():
            if type(q) is not int:
                exact = False
                break
        if not exact:
            name, qubits = _field(g, "name", str), _field(g, "qubits", list, int)
        key = (name, *qubits)
        gate = memo.get(key)
        if gate is None:
            gate = memo[key] = Gate(name, tuple(qubits))
            new.append(gate)
        gates.append(gate)
    return gates, new


def _circuit(d: dict, memo: dict[tuple, Gate], n: int | None) -> CliffordCircuit:
    """A circuit from its plan-JSON object, its gates shared through
    ``memo`` (``_gates_from_list``) and checked against its own width. When
    that width is n, every gate in ``memo`` before the call was checked
    against n, so only the new ones are checked; otherwise every distinct
    gate is, in order of first occurrence, as the constructor would."""
    gates, new = _gates_from_list(_field(d, "gates", list), memo)
    width, phase = _field(d, "n_qubits", int), _field(d, "global_phase_exp", int)
    for gate in new if width == n else dict.fromkeys(gates):
        check_gate(gate, width)
    return CliffordCircuit.unchecked(width, tuple(gates), phase)


def circuit_from_dict(d: dict) -> CliffordCircuit:
    """A circuit from its plan-JSON object; ValueError names the first bad
    field. One pass over the gate list; equal gates share one ``Gate``."""
    return _circuit(d, {}, None)


def _sigmas_from_list(items: list) -> tuple[tuple[int, str], ...]:
    """The (qubit, axis) pairs of a plan group's sigma objects. An object
    with an exact int qubit and a str axis is read directly; any other goes
    through ``_field``, which raises the one-line error."""
    sigmas = []
    for s in items:
        try:
            qubit, axis = s["qubit"], s["axis"]
        except (TypeError, KeyError):
            qubit = axis = None
        if type(qubit) is int and type(axis) is str:
            sigmas.append((qubit, axis))
        else:
            sigmas.append((_field(s, "qubit", int), _field(s, "axis", str)))
    return tuple(sigmas)


def _product(term: str, n: int, memo: dict[str, PauliProduct]) -> PauliProduct:
    """The product of a term string on n qubits, parsed once per ``memo``:
    equal strings share one product."""
    return memo.get(term) or memo.setdefault(term, PauliProduct.from_term_string(term, n))


def _terms_from_list(items: list, n: int,
                     memo: dict[str, PauliProduct]) -> tuple[tuple[float, PauliProduct], ...]:
    """The (coeff, product) terms of a plan group's transformed objects,
    each term string parsed through ``memo`` (``_product``). A coefficient
    that is an exact int or float of finite magnitude, with a str term, is
    read directly; True, NaN, the infinities and ints past the float range
    are not, and any other object goes through ``_field``."""
    limit = sys.float_info.max
    terms = []
    for t in items:
        try:
            coeff, term = t["coeff"], t["pauli"]
        except (TypeError, KeyError):
            coeff = term = None
        kind = type(coeff)
        if not ((kind is int or kind is float) and abs(coeff) <= limit and type(term) is str):
            coeff, term = _field(t, "coeff", (int, float)), _field(t, "pauli", str)
        terms.append((float(coeff), _product(term, n, memo)))
    return tuple(terms)


def plan_from_dict(d: dict) -> MeasurementPlan:
    """Inverse of plan_to_dict.

    Every field is type-checked in the pass that builds the objects; a
    malformed plan raises ValueError naming the group and the field. The
    plan's groups share one memo of parsed term strings (taus and
    transformed terms) and one of gates, so each distinct term string is
    parsed once and each distinct gate checked once, against the plan's
    width, and equal ones load as the same object.
    """
    if not isinstance(d, dict):
        raise ValueError("plan: the top level must be a JSON object")
    try:
        n = _field(d, "n_qubits", int)
        groups = _field(d, "groups", list)
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"'n_qubits' must be in 1..{MAX_QUBITS}")
    except ValueError as exc:
        raise ValueError(f"plan: {exc}") from None
    products: dict[str, PauliProduct] = {}
    gates: dict[tuple, Gate] = {}
    entries = []
    for gi, g in enumerate(groups):
        try:
            basis = TauSigmaBasis(
                n, tuple(_product(s, n, products) for s in _field(g, "tau", list, str)),
                _sigmas_from_list(_field(g, "sigma", list)))
            transformed = Hamiltonian(
                n, _terms_from_list(_field(g, "transformed", list), n, products))
            tg = TransformedGroup(tuple(_field(g, "term_indices", list, int)),
                                  basis, transformed)
            circuit = _circuit(_field(g, "circuit", dict), gates, n)
            if circuit.n_qubits != n:
                raise ValueError(f"circuit has {circuit.n_qubits} qubits, the plan {n}")
        except ValueError as exc:
            raise ValueError(f"plan group {gi}: {exc}") from None
        entries.append(GroupPlan(tg, circuit))
    return MeasurementPlan(n, tuple(entries))
