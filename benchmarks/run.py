"""Benchmark of the ``measure`` command line on seeded workloads.

Run from the repository root:

    python3 benchmarks/run.py --workload random-w4 --seed 1 --seconds 30 --trace 0

One client drives a closed loop in one process: each command starts when the
previous one has returned. A pass runs, for every instance of the workload,
``measure transform`` (fc + rlf), ``measure group --relation qwc --method
dsatur`` and ``measure verify`` on the plan just written, through
``paulimeasure.cli.main``. Passes repeat until ``--seconds`` have gone by.

Times are reported in reference seconds. Between commands the benchmark
times ``calibration_kernel``, a fixed piece of work of its own, and scales
each command's time by ``CAL_REF_S`` over the mean of the kernel times just
before and just after it. On a shared 2-vCPU VM the speed was seen to flip,
about once a second, between a fast mode and one about 1.6 times slower, in
CPU time as in wall time. The kernel slows with the program, so the scaled
time depends on the program and much less on when it ran. A command's
metric is its scaled time summed over instances, averaged over the passes
of the run. ``setup_s`` is the median of scaled fresh-interpreter imports.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes, replays the pipeline stage by stage, and prints
the per-layer metrics (see ``layer_metrics``). Either way, every plan and
grouping is checked by ``plancheck`` outside the timed region, the last
line of standard output is the JSON result, the line before it holds the
sha256 of each instance's plan, and a record of the run goes to
``.bench_work/results/``.
"""

from __future__ import annotations

import os

# One client on one core: numpy's BLAS would otherwise spin worker threads on
# the other cores for the verify layer's 64x64 products, which on a small
# shared host costs more time than it saves and makes the timings noisier.
# Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import plancheck
import workloads
from tracing import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

COMMANDS = ("transform", "group", "verify")
SETUP_SAMPLES = 15
# Reported times are in seconds of a reference host on which one
# ``calibration_kernel`` call takes this long (18-28 ms on a 2-vCPU VM).
CAL_REF_S = 0.025
_CAL_RNG = np.random.default_rng(2019)
_CAL_INTS = [int(v) for v in _CAL_RNG.integers(0, 1 << 62, size=600)]
_CAL_MATRIX = (_CAL_RNG.standard_normal((64, 64))
               + 1j * _CAL_RNG.standard_normal((64, 64))) / 16


def calibration_kernel() -> int:
    """Fixed work in the program's mix: integer bit algebra in Python, dicts,
    and 64x64 complex matrix products. Its time measures the host's speed."""
    counts: dict[int, int] = {}
    for a in _CAL_INTS[:300]:
        for b in _CAL_INTS[300:340]:
            key = bin(a & (b >> 1) ^ (a >> 1) & b).count("1") & 1
            counts[key] = counts.get(key, 0) + 1
    m = _CAL_MATRIX
    for _ in range(160):
        m = _CAL_MATRIX @ m
    return counts.get(1, 0) + int(abs(m[0, 0]) > 1)


def timed_kernel() -> float:
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


def load_program():
    """Import the package from this checkout's sources, nowhere else."""
    if not (SRC / "paulimeasure" / "cli.py").is_file():
        raise SystemExit(f"run.py: error: program sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import paulimeasure
    import paulimeasure.cli  # noqa: F401  (loads the verify and cli layers too)
    if Path(paulimeasure.__file__).resolve().parent != (SRC / "paulimeasure").resolve():
        raise SystemExit(f"run.py: error: imported paulimeasure from {paulimeasure.__file__}")
    return paulimeasure


def measure_setup() -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing ``paulimeasure.cli``, and of
    the calibration kernel run before each and after the last."""
    samples, cal = [], []
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for _ in range(SETUP_SAMPLES):
        cal.append(timed_kernel())
        start = time.perf_counter()
        # No timeout: with one, the wait polls and rounds times up to 50 ms.
        subprocess.run([sys.executable, "-c", "import paulimeasure.cli"],
                       cwd=ROOT, env=env, check=True)
        samples.append(time.perf_counter() - start)
    cal.append(timed_kernel())
    return samples, cal


class Tally:
    """Commands and checks attempted, and the failures among them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.problems.append(f"{what}: " + "; ".join(problems[:5]))

    @property
    def failed(self) -> int:
        return len(self.problems)


def call_cli(cli, argv: list[str]) -> tuple[float, int, str, str]:
    """(seconds, exit code, stdout, stderr) of one in-process ``measure`` call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed command, not a failed benchmark
            code = -1
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


def command_argv(command: str, path: Path, plan: Path) -> list[str]:
    if command == "transform":
        return ["transform", str(path), "--relation", "fc", "--method", "rlf",
                "--output", str(plan)]
    if command == "group":
        return ["group", str(path), "--relation", "qwc", "--method", "dsatur",
                "--format", "json"]
    return ["verify", str(path), str(plan)]


def reference_seconds(elapsed: float, before: float, after: float) -> float:
    """A time scaled to the reference host by the kernel times around it."""
    return elapsed * 2 * CAL_REF_S / (before + after)


class Pass:
    """One pass over all instances: outputs, raw times and calibration."""

    def __init__(self) -> None:
        self.outputs: dict[str, dict] = {}
        self.raw: list[tuple[str, str, float]] = []  # (instance, command, s) in run order
        self.cal: list[float] = []  # kernel s before each command and after the last

    @property
    def factor(self) -> float:
        """Reference seconds per second measured over the whole pass."""
        return CAL_REF_S / statistics.median(self.cal)

    def seconds(self) -> dict[str, float]:
        """Per command, the sum over instances in reference seconds."""
        total = dict.fromkeys(COMMANDS, 0.0)
        for k, (_, command, elapsed) in enumerate(self.raw):
            total[command] += reference_seconds(elapsed, self.cal[k], self.cal[k + 1])
        return total


def run_pass(cli, files, errors: dict, tracer: Tracer | None = None) -> Pass:
    """Runs every command once on every instance, with the kernel between.

    A failed command adds its error to errors[(instance, command)].
    """
    result = Pass()
    for inst, path in files:
        plan = path.with_suffix(".plan.json")
        out = {}
        for command in COMMANDS:
            result.cal.append(timed_kernel())
            if tracer is not None:
                tracer.command = command
            elapsed, code, stdout, stderr = call_cli(cli, command_argv(command, path, plan))
            if code != 0:
                errors.setdefault((inst.name, command), []).append(
                    f"exit {code}: {stderr.strip()}")
            result.raw.append((inst.name, command, elapsed))
            out[command] = stdout
        out["plan"] = plan.read_bytes() if plan.exists() else b""
        result.outputs[inst.name] = out
    result.cal.append(timed_kernel())
    return result


def check_outputs(instances, first, last, tally: Tally) -> None:
    """Determinism across passes and the independent plan and cover checks."""
    for inst in instances:
        a, b = first[inst.name], last[inst.name]
        tally.record(f"{inst.name} outputs repeat across passes",
                     [] if (a["plan"], a["group"]) == (b["plan"], b["group"])
                     else ["plan or grouping bytes differ between passes"])
        try:
            plan = json.loads(b["plan"])
            groups = json.loads(b["group"])["groups"]
        except (ValueError, KeyError) as exc:
            tally.record(f"{inst.name} outputs decode", [str(exc)])
            continue
        tally.record(f"{inst.name} plan check",
                     plancheck.check_plan(inst.terms, inst.n_qubits, plan))
        tally.record(f"{inst.name} qwc cover check",
                     plancheck.check_cover(inst.terms, groups, "qwc"))


def plan_totals(instances, outputs) -> dict:
    """Plan costs summed over instances, from the emitted JSON."""
    total: dict[str, float] = {}
    for inst in instances:
        out = outputs[inst.name]
        try:
            costs = plancheck.plan_costs(inst.terms, json.loads(out["plan"]))
            costs["qwc_groups"] = len(json.loads(out["group"])["groups"])
        except (ValueError, KeyError):
            continue  # already counted as a failure by check_outputs
        costs["checks_skipped"] = out["verify"].count("(skipped")
        for key, value in costs.items():
            total[key] = total.get(key, 0) + value
    return total


def replay(pkg, files, outputs, tracer: Tracer, tally: Tally) -> None:
    """Re-run ``pipeline`` stage by stage and demand byte-identical plan JSON."""
    from paulimeasure import circuits, cli, grouping, transform
    from paulimeasure.pauli import Hamiltonian
    tracer.command = "replay"
    for inst, path in files:
        try:
            h = cli._read_hamiltonian(str(path), pkg.DROP_TOLERANCE)
            cover = grouping.compute_cover(grouping.build_graph(h, "fc"), "rlf")
            problems = list(grouping.validate_cover(h, cover, "fc").violations)
            entries = []
            for indices in cover.groups:
                sub = Hamiltonian(h.n_qubits, tuple(h.terms[i] for i in indices))
                basis = transform.find_sigma(transform.find_tau(sub))
                entries.append(transform.GroupPlan(
                    transform.transform_group(sub, basis, indices), circuits.synthesize(basis)))
            plan = transform.MeasurementPlan(h.n_qubits, tuple(entries))
            if cli._json_dumps(transform.plan_to_dict(plan)).encode() != outputs[inst.name]["plan"]:
                problems.append("replayed plan differs from the plan measure transform wrote")
        except Exception:  # a crash is a failed check, not a failed benchmark
            problems = [traceback.format_exc(limit=3)]
        tally.record(f"{inst.name} stage-by-stage replay", problems)


def layer_metrics(tracer: Tracer, factor: float) -> dict[str, float]:
    """Per-layer numbers from one traced pass, times in reference seconds
    (scaled by the pass's ``factor``).

    ``_s`` metrics named after a stage are inclusive times of that stage's
    function in the command that runs it; ``self.<command>.<layers>_s`` and
    ``gf2.self_s`` are self times (duration minus wrapped calls inside).
    The ``self.`` metrics are the layers each workload was chosen to stress.
    """
    inc, calls, own = tracer.inclusive, tracer.calls, tracer.self_time
    m = {
        "grouping.graph_fc_s": inc("transform", "grouping.build_graph"),
        "grouping.cover_rlf_s": inc("transform", "grouping.compute_cover"),
        "grouping.validate_s": inc("transform", "grouping.validate_cover"),
        "grouping.graph_qwc_s": inc("group", "grouping.build_graph"),
        "grouping.cover_dsatur_s": inc("group", "grouping.compute_cover"),
        "pauli.parse_s": inc("transform", "pauli.parse_hamiltonian"),
        "pauli.commutes_calls": calls("transform", "pauli.PauliProduct.commutes_with"),
        "pauli.mul_calls": calls("transform", "pauli.PauliProduct.__mul__"),
        "transform.tau_s": inc("transform", "transform.find_tau"),
        "transform.sigma_s": inc("transform", "transform.find_sigma"),
        "transform.expand_s": inc("transform", "transform.expand_in_tau"),
        "transform.basis_validate_s": inc("transform", "transform.TauSigmaBasis.validate"),
        "gf2.self_s": sum(own(c, "gf2.") for c in COMMANDS),
        "gf2.calls": calls("transform", "gf2."),
        "gf2.is_lagrangian_calls": calls("transform", "gf2.is_lagrangian"),
        "circuits.synth_s": inc("transform", "circuits.synthesize"),
        "transform.plan_dump_s": (inc("transform", "transform.plan_to_dict")
                                  + inc("transform", "cli._json_dumps")),
        "cli.io_s": sum(own(c, "cli._read_hamiltonian") + inc(c, "cli._write_text")
                        for c in COMMANDS),
        "transform.plan_load_s": inc("verify", "transform.plan_from_dict"),
        "verify.dense_s": own("verify", "verify.dense_"),
        "verify.symbolic_s": inc("verify", "transform.build_unitary_symbolic"),
        "verify.spectra_s": own("verify", "verify.spectra_equal"),
        "verify.expectation_s": (own("verify", "verify.expectation_invariance")
                                 + own("verify", "verify.random_state")),
    }
    m["self.transform.grouping_s"] = own("transform", "grouping.")
    m["self.transform.basis_circuits_s"] = sum(
        own("transform", layer + ".") for layer in ("transform", "gf2", "circuits"))
    m["self.verify.verify_s"] = own("verify", "verify.")
    return {k: v * factor if k.endswith("_s") else v for k, v in m.items()}


def self_breakdown(tracer: Tracer, factor: float) -> dict[str, float]:
    """Every command's self time per layer, in reference seconds."""
    return {f"{command}.{layer}": factor * tracer.self_time(command, layer + ".")
            for command in COMMANDS for layer in LAYERS}


def mean_dict(rows: list[dict]) -> dict[str, float]:
    return {k: statistics.fmean(r[k] for r in rows) for k in rows[0]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = load_program()
    from paulimeasure import cli
    setup, setup_cal = measure_setup() if not args.trace else ([], [])
    instances = workloads.generate(args.workload, args.seed, pkg.PauliProduct)
    WORK.mkdir(exist_ok=True)
    tally = Tally()
    errors: dict[tuple[str, str], list[str]] = {}
    record: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "setup_samples": setup, "setup_calibration": setup_cal}

    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        files = []
        for inst in instances:
            path = Path(tmp) / f"{inst.name}.txt"
            path.write_text(inst.to_text(), encoding="utf-8")
            files.append((inst, path))

        # Only the first and the latest pass are kept whole, so the harness
        # holds the same memory however many passes fit in the run.
        first = last = None
        untraced: list[dict] = []
        traced: list[dict] = []
        layers: list[dict] = []
        breakdowns: list[dict] = []
        runs: list[dict] = []
        tracer = Tracer(pkg) if args.trace else None
        start = time.perf_counter()
        while len(runs) < 1 + args.trace or time.perf_counter() - start < args.seconds:
            if args.trace and len(runs) % 2:
                tracer.reset()
                tracer.install()
                try:
                    last = run_pass(cli, files, errors, tracer)
                finally:
                    tracer.uninstall()
                traced.append(last.seconds())
                layers.append(layer_metrics(tracer, last.factor))
                breakdowns.append(self_breakdown(tracer, last.factor))
            else:
                last = run_pass(cli, files, errors)
                untraced.append(last.seconds())
            first = first or last
            runs.append({"traced": bool(args.trace and len(runs) % 2),
                         "raw": last.raw, "calibration": last.cal})
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        # Each (instance, command) counts once, failed if any of its runs failed.
        for inst in instances:
            for command in COMMANDS:
                tally.record(f"{inst.name} measure {command}",
                             errors.get((inst.name, command), []))
        if args.trace:
            record["spans"] = [list(s) for s in tracer.spans]
            tracer.reset()
            tracer.install()
            try:
                replay(pkg, files, last.outputs, tracer, tally)
            finally:
                tracer.uninstall()
        check_outputs(instances, first.outputs, last.outputs, tally)

    costs = plan_totals(instances, last.outputs)
    record["plan_sha256"] = {name: hashlib.sha256(out["plan"]).hexdigest()
                             for name, out in last.outputs.items()}
    times = mean_dict(untraced)
    if args.trace:
        metrics = mean_dict(layers)
        record["self_breakdown"] = mean_dict(breakdowns)
        metrics.update({
            "grouping.edge_density_fc": statistics.mean(
                plancheck.fc_edge_density(i.terms, i.n_qubits) for i in instances),
            "pauli.terms": sum(len(i.terms) for i in instances),
            "transform.tau_weight_mean": costs.get("tau_weight_sum", 0)
            / max(1, costs.get("tau_count", 0)),
            "circuits.idle_qubit_gates": costs.get("idle_qubit_gates", 0),
            "verify.checks_skipped": costs.get("checks_skipped", 0),
            "trace.overhead_s": mean_dict(traced)["transform"] - times["transform"],
        })
        units = {k: "s" for k in metrics if k.endswith("_s")}
        units.update({"grouping.edge_density_fc": "ratio",
                      "transform.tau_weight_mean": "qubits"})
    else:
        metrics = {
            "transform_s": times["transform"],
            "group_s": times["group"],
            "verify_s": times["verify"],
            "setup_s": statistics.median(
                reference_seconds(t, setup_cal[k], setup_cal[k + 1])
                for k, t in enumerate(setup)),
            "peak_rss_mb": peak_rss_mb,
            "plan_groups": costs.get("groups", 0),
            "qwc_groups": costs.get("qwc_groups", 0),
            "plan_cnots": costs.get("cnots", 0),
            "plan_gates": costs.get("gates", 0),
            "plan_depth": costs.get("depth", 0),
            "shot_cost": costs.get("shot_cost", 0.0),
            "pass_rate": (tally.attempted - tally.failed) / tally.attempted,
        }
        units = {"transform_s": "s", "group_s": "s", "verify_s": "s", "setup_s": "s",
                 "peak_rss_mb": "MB", "shot_cost": "ratio", "pass_rate": "ratio"}
    record.update(passes=runs, problems=tally.problems, metrics=metrics)
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
     ).write_text(json.dumps(record), encoding="utf-8")

    for problem in tally.problems:
        print(f"run.py: check failed: {problem}", file=sys.stderr)
    print("plan_sha256 " + json.dumps(record["plan_sha256"], sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "count")}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
