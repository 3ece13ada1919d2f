"""Command line front end: group, transform, verify and count subcommands."""

from __future__ import annotations

import argparse
import json
import sys
from functools import cached_property

import numpy as np

from . import verify
from .circuits import conjugate_columns
from .gf2 import InconsistentSystemError
from .grouping import (DEFAULT_EXACT_CAP, METHODS, RELATIONS, build_graph,
                       compute_cover, cover_stats, cover_to_dict)
from .pauli import (DROP_TOLERANCE, Hamiltonian, HamiltonianFormatError,
                    PauliProduct, parse_hamiltonian, qubit_columns)
from .transform import (MeasurementPlan, TransformError, build_unitary_symbolic,
                        pipeline, plan_from_dict, plan_to_dict)

_EXPECTATION_TRIALS = 50
_EXPECTATION_SEED = 20200214


def _read_hamiltonian(path: str, tolerance: float) -> Hamiltonian:
    if path == "-":
        return parse_hamiltonian(sys.stdin.read(), tolerance)
    with open(path, encoding="utf-8") as fh:
        return parse_hamiltonian(fh, tolerance)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def cmd_group(args: argparse.Namespace) -> int:
    h = _read_hamiltonian(args.input, args.tolerance)
    cover = compute_cover(build_graph(h, args.relation), args.method, args.exact_cap)
    if args.format == "json":
        _write_text(None, _json_dumps(cover_to_dict(cover)))
        return 0
    st = cover_stats(cover)
    lines = [f"{len(h.terms)} terms, {st.group_count} groups"]
    if args.method == "exact":
        lines.append("group count certified minimal (exact search)")
    lines.append(f"{'Total':>6} {'M':>5} {'Max Size':>9} {'STD':>8}")
    lines.append(f"{len(h.terms):>6} {st.group_count:>5} {st.max_size:>9}"
                 f" {st.size_stddev:>8.2f}")
    for gi, group in enumerate(cover.groups):
        parts = " | ".join(h.terms[i][1].to_term_string() for i in group)
        lines.append(f"group {gi + 1} ({len(group)} terms): {parts}")
    _write_text(None, "\n".join(lines) + "\n")
    return 0


def cmd_transform(args: argparse.Namespace) -> int:
    if args.relation != "fc":
        raise ValueError("transform requires fc")
    h = _read_hamiltonian(args.input, args.tolerance)
    cover = compute_cover(build_graph(h, "fc"), args.method, args.exact_cap)
    plan = pipeline(h, cover)
    _write_text(args.output, _json_dumps(plan_to_dict(plan)))
    return 0


class _GroupOperators:
    """One plan group and its dense operators, each built on first use."""

    def __init__(self, h: Hamiltonian, entry) -> None:
        self.entry = entry
        self.source = h

    @cached_property
    def group(self) -> Hamiltonian:
        return Hamiltonian(self.source.n_qubits, tuple(
            self.source.terms[i] for i in self.entry.transform.term_indices))

    @cached_property
    def group_matrix(self) -> np.ndarray:
        return verify.dense_matrix(self.group)

    @cached_property
    def transformed_matrix(self) -> np.ndarray:
        return verify.dense_matrix(self.entry.transform.transformed)

    @cached_property
    def symbolic_unitary(self) -> np.ndarray:
        return verify.dense_matrix(build_unitary_symbolic(self.entry.transform.basis))

    @cached_property
    def circuit_unitary(self) -> np.ndarray:
        return verify.dense_matrix(self.entry.circuit)


def _verify_checks(h: Hamiltonian, plan: MeasurementPlan) -> list[tuple[str, str, str]]:
    """Run the oracle suite on a plan; returns (name, status, detail) rows.

    The status is "pass", "fail", or "skip" for a dense check above its
    qubit cap. Groups are visited one at a time and every check runs on a
    group before the next, so each group's dense operators are built once
    and only one group's are alive. A check that has failed is not run on
    later groups; its row names the first failing group.
    """
    n = plan.n_qubits
    rng = np.random.default_rng(_EXPECTATION_SEED)

    def check_partition() -> str:
        """Every term in exactly one group; O(terms), no pairwise pass."""
        times = [0] * len(h.terms)
        for entry in plan.groups:
            for i in entry.transform.term_indices:
                times[i] += 1
        missing = [i for i, k in enumerate(times) if k == 0]
        repeated = [i for i, k in enumerate(times) if k > 1]
        problems = []
        if missing:
            problems.append(f"{len(missing)} terms in no group, first {missing[0]}")
        if repeated:
            problems.append(f"{len(repeated)} terms in several groups, first {repeated[0]}")
        return "; ".join(problems)

    def check_basis(g: _GroupOperators):
        try:
            g.entry.transform.basis.validate(g.group)
        except (ValueError, IndexError) as exc:
            return False, str(exc)
        return True, ""

    def check_qwc(g: _GroupOperators):
        prods = g.entry.transform.transformed.products()
        for i in range(len(prods)):
            for j in range(i + 1, len(prods)):
                if not prods[i].qwc_with(prods[j]):
                    return False, f"transformed terms {i} and {j} are not QWC"
        return True, ""

    def check_coeffs(g: _GroupOperators):
        source = sorted(abs(c) for c in g.group.coefficients())
        image = sorted(abs(c) for c in g.entry.transform.transformed.coefficients())
        if len(source) != len(image) or any(abs(a - b) > 1e-12
                                            for a, b in zip(source, image)):
            return False, "coefficient magnitudes changed"
        return True, ""

    def check_signs(g: _GroupOperators):
        """All group terms through the circuit at once, as term bitsets."""
        stated = g.entry.transform.transformed
        if len(stated.terms) != len(g.group.terms):
            return False, (f"{len(stated.terms)} transformed terms for "
                           f"{len(g.group.terms)} terms")
        xs, zs, minus = conjugate_columns(g.entry.circuit,
                                          *qubit_columns(n, g.group.products()))
        want_x, want_z = qubit_columns(n, stated.products())
        wrong = 0
        for q in range(n):
            wrong |= (xs[q] ^ want_x[q]) | (zs[q] ^ want_z[q])
        for k, (c, t) in enumerate(zip(g.group.coefficients(), stated.coefficients())):
            if abs(t - (-c if (minus >> k) & 1 else c)) > 1e-12:
                wrong |= 1 << k
        if not wrong:
            return True, ""
        k = (wrong & -wrong).bit_length() - 1
        image = PauliProduct(n, sum(((xs[q] >> k) & 1) << q for q in range(n)),
                             sum(((zs[q] >> k) & 1) << q for q in range(n)))
        coeff, term = g.group.terms[k]
        t_coeff, t_term = stated.terms[k]
        return False, (f"term {g.entry.transform.term_indices[k]} "
                       f"({coeff!r} {term.to_term_string()}) maps to "
                       f"{'-' if (minus >> k) & 1 else '+'}{image.to_term_string()}, "
                       f"plan states {t_coeff!r} {t_term.to_term_string()}")

    def check_spectra(g: _GroupOperators):
        ok = verify.spectra_equal(g.group_matrix, g.transformed_matrix, tol=1e-9)
        return ok, "eigenvalue mismatch beyond 1e-9"

    def check_conjugation(g: _GroupOperators):
        u = g.symbolic_unitary
        dev = float(np.max(np.abs(u.conj().T @ g.group_matrix @ u
                                  - g.transformed_matrix)))
        return dev <= 1e-9, f"deviation {dev:.2e}"

    def check_unitarity(g: _GroupOperators):
        for u in (g.symbolic_unitary, g.circuit_unitary):
            dev = float(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))))
            if dev > 1e-10:
                return False, f"deviation {dev:.2e}"
        return True, ""

    def check_circuit(g: _GroupOperators):
        dev = verify.phase_aligned_distance(g.circuit_unitary, g.symbolic_unitary)
        return dev <= 1e-10, f"deviation {dev:.2e}"

    def check_expectation(g: _GroupOperators):
        dev = verify.expectation_invariance(g.group_matrix, g.transformed_matrix,
                                            g.circuit_unitary,
                                            trials=_EXPECTATION_TRIALS, rng=rng)
        return dev <= 1e-9, f"deviation {dev:.2e}"

    # (row name, check, qubit cap or None) in row order.
    checks = [
        ("basis invariants", check_basis, None),
        ("transformed groups qubit-wise commuting", check_qwc, None),
        ("coefficient magnitudes preserved", check_coeffs, None),
        ("circuit maps each group term to its transformed term (exact sign)",
         check_signs, None),
        ("spectra preserved (tol 1e-9)", check_spectra, verify.MAX_SPECTRUM_QUBITS),
        ("conjugated group matches transform (tol 1e-9)", check_conjugation,
         verify.MAX_EXPECTATION_QUBITS),
        ("unitarity (tol 1e-10)", check_unitarity, verify.MAX_EXPECTATION_QUBITS),
        ("circuit matches symbolic unitary (tol 1e-10)", check_circuit,
         verify.MAX_EXPECTATION_QUBITS),
        ("expectation values invariant (tol 1e-9)", check_expectation,
         verify.MAX_EXPECTATION_QUBITS),
    ]
    running = [(name, fn) for name, fn, cap in checks if cap is None or n <= cap]
    failures: dict[str, str] = {}
    for gi, entry in enumerate(plan.groups):
        g = _GroupOperators(h, entry)
        for name, fn in running:
            if name not in failures:
                ok, detail = fn(g)
                if not ok:
                    failures[name] = f"group {gi}: {detail}"

    problems = check_partition()
    results = [("groups partition the terms", "fail" if problems else "pass", problems)]
    for name, _, cap in checks:
        if cap is not None and n > cap:
            results.append((name, "skip", f"skipped: {n} qubits exceed cap"))
        elif name in failures:
            results.append((name, "fail", failures[name]))
        else:
            results.append((name, "pass", ""))
    return results


def cmd_verify(args: argparse.Namespace) -> int:
    h = _read_hamiltonian(args.input, args.tolerance)
    with open(args.plan, encoding="utf-8") as fh:
        plan = plan_from_dict(json.load(fh))
    if plan.n_qubits != h.n_qubits:
        raise ValueError("plan qubit count differs from the Hamiltonian")
    for gi, entry in enumerate(plan.groups):
        for i in entry.transform.term_indices:
            if not 0 <= i < len(h.terms):
                raise ValueError(f"plan group {gi}: term index {i} out of range")
    results = _verify_checks(h, plan)
    if args.format == "json":
        payload = {"checks": [{"name": name, "status": status,
                               "passed": status == "pass", "detail": detail}
                              for name, status, detail in results]}
        _write_text(None, _json_dumps(payload))
    else:
        for name, status, detail in results:
            suffix = f" ({detail})" if detail else ""
            print(f"{status.upper()} {name}{suffix}")
    # A skipped check is not a failure: exit 1 only when some check fails.
    return 1 if any(status == "fail" for _, status, _ in results) else 0


def cmd_count(args: argparse.Namespace) -> int:
    n = args.qubits
    if n < 1:
        raise ValueError("qubit count must be positive")
    if args.template is not None:
        template = PauliProduct.from_term_string(args.template, n)
    else:
        # Default census template: one quarter identities, X elsewhere.
        template = PauliProduct.from_term_string(
            " ".join(f"X{q}" for q in range(n // 4, n)) or "I", n)
    counts = verify.count_compatible(template)
    n_identity = n - template.weight()
    formula_qwc = (4 ** n_identity) * (2 ** (n - n_identity))
    formula_commuting = 4 ** n if template.weight() == 0 else 2 ** (2 * n - 1)
    match = counts["n_qwc"] == formula_qwc and counts["n_commuting"] == formula_commuting
    print(f"template: {template.to_term_string()} (qubits: {n})")
    print(f"enumerated: n_qwc={counts['n_qwc']} n_commuting={counts['n_commuting']}")
    print(f"formula:    n_qwc={formula_qwc} n_commuting={formula_commuting}")
    print(f"match: {'yes' if match else 'no'}")
    return 0 if match else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="measure",
        description="Group Pauli-sum Hamiltonians into commuting cliques and "
                    "compile the Clifford circuits that make them single-qubit "
                    "measurable.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--relation", choices=RELATIONS, default="fc")
        p.add_argument("--method", choices=METHODS, default="rlf")
        p.add_argument("--tolerance", type=float, default=DROP_TOLERANCE,
                       help="coefficient drop tolerance on ingest")
        p.add_argument("--exact-cap", type=int, default=DEFAULT_EXACT_CAP,
                       help="vertex bound for the exact method")

    p_group = sub.add_parser("group", help="partition terms into compatible groups")
    p_group.add_argument("input", help="Hamiltonian file, or - for stdin")
    common(p_group)
    p_group.add_argument("--format", choices=("table", "json"), default="table")
    p_group.set_defaults(func=cmd_group)

    p_tr = sub.add_parser("transform",
                          help="group, transform to QWC form and emit a plan")
    p_tr.add_argument("input", help="Hamiltonian file, or - for stdin")
    common(p_tr)
    p_tr.add_argument("--output", default="-", help="plan JSON path (default stdout)")
    p_tr.set_defaults(func=cmd_transform)

    p_ver = sub.add_parser("verify", help="run the oracle suite on a plan")
    p_ver.add_argument("input", help="Hamiltonian file, or - for stdin")
    p_ver.add_argument("plan", help="plan JSON produced by transform")
    p_ver.add_argument("--tolerance", type=float, default=DROP_TOLERANCE)
    p_ver.add_argument("--format", choices=("table", "json"), default="table")
    p_ver.set_defaults(func=cmd_verify)

    p_cnt = sub.add_parser("count",
                           help="enumerate QWC/commuting partners of a template")
    p_cnt.add_argument("qubits", type=int)
    p_cnt.add_argument("--template", default=None,
                       help='term tokens, e.g. "X1 X2 X3" (default: quarter identities)')
    p_cnt.set_defaults(func=cmd_count)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HamiltonianFormatError, InconsistentSystemError, TransformError,
            verify.DimensionError, ValueError, OSError,
            json.JSONDecodeError, KeyError) as exc:
        print(f"measure: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
