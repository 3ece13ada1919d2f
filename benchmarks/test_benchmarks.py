"""Tests for the benchmark's own code: generators, plan checks and tracer.

Run from the repository root with ``python -m pytest benchmarks``.
"""

from __future__ import annotations

import copy
import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import plancheck
import run
import workloads
from tracing import Tracer

pkg = run.load_program()
from paulimeasure import cli, gf2, verify  # noqa: E402
from paulimeasure.circuits import CliffordCircuit, Gate  # noqa: E402

_P = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
      "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1])}


def dense(ops: dict[int, str], n: int) -> np.ndarray:
    m = np.ones((1, 1))
    for q in range(n):
        m = np.kron(m, _P[ops.get(q, "I")])
    return m


def random_gates(rng: random.Random, n: int, count: int) -> list[dict]:
    gates = []
    for _ in range(count):
        name = rng.choice(("H", "S", "SDG", "X", "Y", "Z", "CNOT"))
        qubits = rng.sample(range(n), 2 if name == "CNOT" else 1)
        gates.append({"name": name, "qubits": qubits})
    return gates


@pytest.mark.parametrize("n", [2, 4, 6])
def test_propagation_matches_dense_conjugation(n):
    rng = random.Random(n)
    for _ in range(20):
        gates = random_gates(rng, n, rng.randint(0, 25))
        circuit = CliffordCircuit(n, tuple(Gate(g["name"], tuple(g["qubits"]))
                                           for g in gates))
        u = verify.dense_matrix(circuit)
        ops = {q: rng.choice("IXYZ") for q in range(n)}
        ops = {q: a for q, a in ops.items() if a != "I"}
        sign, image = plancheck.conjugate(ops, gates)
        assert np.allclose(u.conj().T @ dense(ops, n) @ u, sign * dense(image, n))


@pytest.fixture(scope="module")
def eight_qubit_plan(tmp_path_factory):
    rng = random.Random(8)
    terms: dict[tuple, float] = {}
    while len(terms) < 40:
        terms.setdefault(workloads._random_term(rng, 8, 4), rng.uniform(-1, 1))
    inst = workloads.Instance("eight", 8, tuple((c, ops) for ops, c in terms.items()))
    path = tmp_path_factory.mktemp("plan") / "eight.txt"
    path.write_text(inst.to_text())
    plan_path = path.with_suffix(".json")
    assert cli.main(["transform", str(path), "--output", str(plan_path)]) == 0
    plan = json.loads(plan_path.read_text())
    assert len(plan["groups"]) >= 2
    return inst, plan


def test_plan_check_accepts_the_program_plan(eight_qubit_plan):
    inst, plan = eight_qubit_plan
    assert plancheck.check_plan(inst.terms, 8, plan) == []


def _delete_group(plan):
    del plan["groups"][0]


def _duplicate_group(plan):
    plan["groups"].append(copy.deepcopy(plan["groups"][0]))


def _drop_last_three_gates(plan):
    del plan["groups"][-1]["circuit"]["gates"][-3:]


def _flip_a_sign(plan):
    plan["groups"][0]["transformed"][0]["coeff"] *= -1


@pytest.mark.parametrize("corrupt", [_delete_group, _duplicate_group,
                                     _drop_last_three_gates, _flip_a_sign])
def test_plan_check_rejects_corrupted_plans(eight_qubit_plan, corrupt):
    inst, plan = eight_qubit_plan
    bad = copy.deepcopy(plan)
    corrupt(bad)
    assert plancheck.check_plan(inst.terms, 8, bad)


def test_cover_check_rejects_a_non_qwc_pair():
    terms = ((1.0, ((0, "X"),)), (1.0, ((0, "Z"),)), (1.0, ((1, "Z"),)))
    assert plancheck.check_cover(terms, [[0, 2], [1]], "qwc") == []
    assert plancheck.check_cover(terms, [[0, 1], [2]], "qwc")
    assert plancheck.check_cover(terms, [[0, 1, 2]], "fc")


def test_plan_costs_count_depth_and_idle_gates():
    gates = [{"name": "H", "qubits": [0]}, {"name": "CNOT", "qubits": [0, 1]},
             {"name": "H", "qubits": [2]}, {"name": "S", "qubits": [1]}]
    plan = {"groups": [{"term_indices": [0, 1], "tau": ["X0 X1", "Z2"],
                        "circuit": {"gates": gates}}]}
    terms = ((3.0, ((0, "X"), (1, "X"))), (4.0, ()))
    costs = plancheck.plan_costs(terms, plan)
    assert (costs["cnots"], costs["gates"], costs["depth"]) == (1, 4, 3)
    assert costs["idle_qubit_gates"] == 1
    assert costs["shot_cost"] == 1.0
    assert costs["tau_weight_sum"] == 3


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    first = workloads.generate(workload, 5, pkg.PauliProduct)
    again = workloads.generate(workload, 5, pkg.PauliProduct)
    other = workloads.generate(workload, 6, pkg.PauliProduct)
    assert [i.to_text() for i in first] == [i.to_text() for i in again]
    assert [i.to_text() for i in first] != [i.to_text() for i in other]
    for inst in first:
        h = pkg.parse_hamiltonian(inst.to_text())
        assert len(h.terms) == len(inst.terms)


def test_wide_sparse_terms_commute():
    for inst in workloads.wide_sparse(3):
        for (_, a), (_, b) in itertools.combinations(inst.terms, 2):
            assert plancheck.commute(plancheck.pauli_bits(a), plancheck.pauli_bits(b))


def test_jordan_wigner_matches_dense_fermion_operators():
    n = 3
    rng = random.Random(1)
    h, g = workloads._symmetric_integrals(rng, n)
    pauli = workloads.jordan_wigner_hamiltonian(pkg.PauliProduct, n, h, g)
    got = sum(c * dense({q: "IXZY"[((x >> q) & 1) | (((z >> q) & 1) << 1)]
                         for q in range(n) if ((x | z) >> q) & 1}, n)
              for (x, z), c in pauli.items())
    lower = np.array([[0, 1], [0, 0]])
    a = []
    for p in range(n):
        m = np.ones((1, 1))
        for q in range(n):
            m = np.kron(m, _P["Z"] if q < p else lower if q == p else _P["I"])
        a.append(m)
    want = sum(h[p][q] * a[p].T @ a[q] for p in range(n) for q in range(n))
    want = want + 0.5 * sum(g[(p, q, r, s)] * a[p].T @ a[r].T @ a[s] @ a[q]
                            for p, q, r, s in itertools.product(range(n), repeat=4))
    assert np.allclose(got, want)


def test_tracer_attributes_calls_and_restores_the_program(tmp_path):
    inst = workloads.wide_sparse(1)[0]
    path = tmp_path / "w.txt"
    path.write_text(inst.to_text())
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    assert cli.main(["transform", str(path), "--output", str(plain)]) == 0
    original = gf2.symplectic_inner
    tracer = Tracer(pkg)
    tracer.install()
    try:
        tracer.command = "transform"
        assert cli.main(["transform", str(path), "--output", str(traced)]) == 0
    finally:
        tracer.uninstall()
    assert gf2.symplectic_inner is original
    assert cli.pipeline.__name__ == "pipeline" and not hasattr(cli.pipeline, "__wrapped__")
    assert plain.read_bytes() == traced.read_bytes()
    assert tracer.calls("transform", "transform.find_tau") == 1
    assert tracer.calls("transform", "gf2.symplectic_inner") > 0
    ids = {s[0] for s in tracer.spans}
    roots = [s for s in tracer.spans if s[1] == -1]
    assert [s[2] for s in roots] == ["cli.main"]
    assert all(s[1] in ids for s in tracer.spans if s[1] != -1)
    main_total = tracer.inclusive("transform", "cli.main")
    layers = sum(tracer.self_time("transform", layer + ".") for layer in run.LAYERS)
    assert layers == pytest.approx(main_total, rel=1e-6)


def test_pass_reports_times_in_reference_seconds():
    p = run.Pass()
    p.raw = [("a", "transform", 1.0), ("a", "group", 0.5), ("a", "verify", 0.25),
             ("b", "transform", 3.0), ("b", "group", 0.5), ("b", "verify", 0.75)]
    ref = run.CAL_REF_S
    p.cal = [ref, ref, 2 * ref, 2 * ref, 2 * ref, 4 * ref, 4 * ref]
    assert p.seconds() == pytest.approx({"transform": 1.0 + 1.5, "group": 1 / 3 + 1 / 6,
                                         "verify": 0.125 + 0.1875})


def test_run_pass_records_each_failed_command(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("qubits: 2\n1.0 Q7\n")
    inst = workloads.Instance("bad", 2, ())
    errors: dict = {}
    result = run.run_pass(cli, [(inst, path)], errors)
    assert set(errors) == {("bad", c) for c in run.COMMANDS}
    assert len(result.cal) == len(run.COMMANDS) + 1
    assert result.outputs["bad"]["plan"] == b""


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "benchmarks")
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "wide-sparse",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
