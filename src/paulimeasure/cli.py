"""Command line front end: group, transform, verify and count subcommands."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import verify
from .gf2 import InconsistentSystemError
from .grouping import (DEFAULT_EXACT_CAP, METHODS, RELATIONS, build_graph,
                       compute_cover, cover_stats, cover_to_dict)
from .pauli import (DROP_TOLERANCE, Hamiltonian, HamiltonianFormatError,
                    PauliProduct, parse_hamiltonian)
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


def _verify_checks(h: Hamiltonian, plan: MeasurementPlan) -> list[tuple[str, str, str]]:
    """Run the oracle suite on a plan; returns (name, status, detail) rows.

    The status is "pass", "fail", or "skip" for a dense check above its
    qubit cap.
    """
    n = plan.n_qubits
    rng = np.random.default_rng(_EXPECTATION_SEED)
    results: list[tuple[str, str, str]] = []

    def add(name: str, status: str, detail: str = "") -> None:
        results.append((name, status, detail))

    def per_group(name: str, fn) -> None:
        for gi, entry in enumerate(plan.groups):
            ok, detail = fn(gi, entry)
            if not ok:
                add(name, "fail", f"group {gi}: {detail}")
                return
        add(name, "pass")

    def skip(name: str) -> None:
        add(name, "skip", f"skipped: {n} qubits exceed cap")

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

    def group_hamiltonian(entry) -> Hamiltonian:
        return Hamiltonian(n, tuple(h.terms[i] for i in entry.transform.term_indices))

    def check_basis(gi, entry):
        try:
            entry.transform.basis.validate(group_hamiltonian(entry))
        except (ValueError, IndexError) as exc:
            return False, str(exc)
        return True, ""

    def check_qwc(gi, entry):
        prods = entry.transform.transformed.products()
        for i in range(len(prods)):
            for j in range(i + 1, len(prods)):
                if not prods[i].qwc_with(prods[j]):
                    return False, f"transformed terms {i} and {j} are not QWC"
        return True, ""

    def check_coeffs(gi, entry):
        source = sorted(abs(h.terms[i][0]) for i in entry.transform.term_indices)
        image = sorted(abs(c) for c in entry.transform.transformed.coefficients())
        if len(source) != len(image) or any(abs(a - b) > 1e-12
                                            for a, b in zip(source, image)):
            return False, "coefficient magnitudes changed"
        return True, ""

    def check_spectra(gi, entry):
        ok = verify.spectra_equal(group_hamiltonian(entry),
                                  entry.transform.transformed, tol=1e-9)
        return ok, "eigenvalue mismatch beyond 1e-9"

    def check_conjugation(gi, entry):
        u = verify.dense_matrix(build_unitary_symbolic(entry.transform.basis))
        lhs = u.conj().T @ verify.dense_matrix(group_hamiltonian(entry)) @ u
        rhs = verify.dense_matrix(entry.transform.transformed)
        dev = float(np.max(np.abs(lhs - rhs)))
        return dev <= 1e-9, f"deviation {dev:.2e}"

    def check_unitarity(gi, entry):
        for u in (verify.dense_matrix(build_unitary_symbolic(entry.transform.basis)),
                  verify.dense_matrix(entry.circuit)):
            dev = float(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))))
            if dev > 1e-10:
                return False, f"deviation {dev:.2e}"
        return True, ""

    def check_circuit(gi, entry):
        symbolic = verify.dense_matrix(build_unitary_symbolic(entry.transform.basis))
        circuit = verify.dense_matrix(entry.circuit)
        dev = verify.phase_aligned_distance(circuit, symbolic)
        return dev <= 1e-10, f"deviation {dev:.2e}"

    def check_expectation(gi, entry):
        u = verify.dense_matrix(entry.circuit)
        dev = verify.expectation_invariance(group_hamiltonian(entry),
                                            entry.transform.transformed, u,
                                            trials=_EXPECTATION_TRIALS, rng=rng)
        return dev <= 1e-9, f"deviation {dev:.2e}"

    problems = check_partition()
    add("groups partition the terms", "fail" if problems else "pass", problems)
    per_group("basis invariants", check_basis)
    per_group("transformed groups qubit-wise commuting", check_qwc)
    per_group("coefficient magnitudes preserved", check_coeffs)
    if n <= verify.MAX_SPECTRUM_QUBITS:
        per_group("spectra preserved (tol 1e-9)", check_spectra)
    else:
        skip("spectra preserved (tol 1e-9)")
    if n <= verify.MAX_EXPECTATION_QUBITS:
        per_group("conjugated group matches transform (tol 1e-9)", check_conjugation)
        per_group("unitarity (tol 1e-10)", check_unitarity)
        per_group("circuit matches symbolic unitary (tol 1e-10)", check_circuit)
        per_group("expectation values invariant (tol 1e-9)", check_expectation)
    else:
        for name in ("conjugated group matches transform (tol 1e-9)",
                     "unitarity (tol 1e-10)",
                     "circuit matches symbolic unitary (tol 1e-10)",
                     "expectation values invariant (tol 1e-9)"):
            skip(name)
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
