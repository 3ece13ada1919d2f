"""Command line front end: group, transform, verify and count subcommands."""

from __future__ import annotations

import argparse
import json
import math
import sys

from .grouping import (METHODS, RELATIONS, build_graph, compute_cover, cover_stats,
                       cover_to_json)
from .pauli import (DROP_TOLERANCE, MAX_COUNT_QUBITS, Hamiltonian, PauliProduct,
                    count_compatible, parse_hamiltonian)
from .transform import pipeline, plan_from_dict, plan_to_json


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
    cover = compute_cover(build_graph(h, args.relation), args.method)
    if args.format == "json":
        _write_text(None, cover_to_json(cover))
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
    cover = compute_cover(build_graph(h, "fc"), args.method)
    plan = pipeline(h, cover)
    _write_text(args.output, plan_to_json(plan))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    h = _read_hamiltonian(args.input, args.tolerance)
    with open(args.plan, encoding="utf-8") as fh:
        try:
            plan = plan_from_dict(json.load(fh))
        except RecursionError:
            raise ValueError("plan: JSON nested too deeply") from None
    from . import verify  # numpy loads only for verify
    results = verify.plan_checks(h, plan)
    if args.format == "json":
        payload = {"checks": [{"name": name, "status": status,
                               "passed": status == "pass", "detail": detail}
                              for name, status, detail in results]}
        _write_text(None, _json_dumps(payload))
    else:
        for name, status, detail in results:
            suffix = f" ({detail})" if detail else ""
            print(f"{status.upper()} {name}{suffix}")
    # Every row passes or fails; exit 1 when any fails.
    return 1 if any(status == "fail" for _, status, _ in results) else 0


def cmd_count(args: argparse.Namespace) -> int:
    n = args.qubits
    if n < 1:
        raise ValueError("qubit count must be positive")
    # Before the template is built: its size grows with n.
    if n > MAX_COUNT_QUBITS:
        raise ValueError(f"enumeration limited to {MAX_COUNT_QUBITS} qubits")
    if args.template is not None:
        template = PauliProduct.from_term_string(args.template, n)
    else:
        # Default census template: one quarter identities, X elsewhere.
        template = PauliProduct.from_term_string(
            " ".join(f"X{q}" for q in range(n // 4, n)) or "I", n)
    counts = count_compatible(template)
    n_identity = n - template.weight()
    formula_qwc = (4 ** n_identity) * (2 ** (n - n_identity))
    formula_commuting = 4 ** n if template.weight() == 0 else 2 ** (2 * n - 1)
    match = counts["n_qwc"] == formula_qwc and counts["n_commuting"] == formula_commuting
    print(f"template: {template.to_term_string()} (qubits: {n})")
    print(f"enumerated: n_qwc={counts['n_qwc']} n_commuting={counts['n_commuting']}")
    print(f"formula:    n_qwc={formula_qwc} n_commuting={formula_commuting}")
    print(f"match: {'yes' if match else 'no'}")
    return 0 if match else 1


class _Parser(argparse.ArgumentParser):
    """Raises ValueError, which ``main`` prints as its one error line."""

    def error(self, message: str):
        raise ValueError(message)


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="measure",
        description="Group Pauli-sum Hamiltonians into commuting cliques and "
                    "compile the Clifford circuits that make them single-qubit "
                    "measurable.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--relation", choices=RELATIONS, default="fc")
        p.add_argument("--method", choices=METHODS, default="rlf")
        p.add_argument("--tolerance", type=_tolerance, default=DROP_TOLERANCE,
                       help="coefficient drop tolerance on ingest")

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
    p_ver.add_argument("--tolerance", type=_tolerance, default=DROP_TOLERANCE)
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"measure: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
