"""CLI behavior: subcommands, formats, exit codes, failure paths."""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import paulimeasure
from helpers import (assert_dense_oracles, completion_find_tau, full_width_find_sigma,
                     reference_plan_dict)
from paulimeasure import (GroupPlan, Hamiltonian, MeasurementPlan, build_graph,
                          compute_cover, parse_hamiltonian, pipeline, plan_from_dict,
                          plan_to_json, synthesize, transform_group)
from paulimeasure.cli import main
from paulimeasure.fixtures import H2_GROUP_TEXT, MODEL_TEXT, SIX_TERM_TEXT


def random_sum_text(n_qubits=12, draws=80, seed=1907):
    """Seeded Pauli sum of weight <= 4 terms in the text format."""
    rng = random.Random(seed)
    lines = [f"qubits: {n_qubits}"]
    for _ in range(draws):
        qubits = sorted(rng.sample(range(n_qubits), rng.randint(1, 4)))
        term = " ".join(f"{rng.choice('XYZ')}{q}" for q in qubits)
        lines.append(f"{rng.randint(-999, 999) / 1000} {term}")
    return "\n".join(lines) + "\n"


def chain_text(n_qubits=12):
    """Commuting Z_i Z_{i+1} chain with distinct coefficients."""
    return f"qubits: {n_qubits}\n" + "".join(f"{0.1 * (i + 1)!r} Z{i} Z{i + 1}\n"
                                             for i in range(n_qubits - 1))


# Sparse commuting terms on 100 qubits: one group whose basis is mostly the
# idle-qubit complement.
WIDE_SPARSE_TEXT = ("qubits: 100\n1.0 X0 Z99\n0.5 Z0 X99\n0.25 Y0 Y99\n"
                    "0.75 Z10 Z20 Z30\n-0.3 X40 X41\n0.6 Z40 Z41\n")


def set_path(plan, path, value):
    """Plan with group 0's field at path replaced by value."""
    *head, last = path
    target = plan["groups"][0]
    for key in head:
        target = target[key]
    target[last] = value
    return plan


def drop_key(plan, path, key):
    target = plan["groups"][0]
    for step in path:
        target = target[step]
    del target[key]
    return plan


# Plan edits that must end `measure verify` with one error line naming the field.
PLAN_CORRUPTIONS = {
    "top-level-array": (lambda p: [], "top level must be a JSON object"),
    "groups-number": (lambda p: {"n_qubits": 4, "groups": 5},
                      "'groups' must be an array"),
    "no-n-qubits": (lambda p: {"groups": p["groups"]}, "missing key 'n_qubits'"),
    "group-number": (lambda p: {**p, "groups": [7]}, "plan group 0: expected an object"),
    "term-index-string": (lambda p: set_path(p, ["term_indices"], ["0"]),
                          "'term_indices' items must each be an integer"),
    "tau-string": (lambda p: set_path(p, ["tau"], "Z0 Z1"), "'tau' must be an array"),
    "tau-item-number": (lambda p: set_path(p, ["tau", 0], 3),
                        "'tau' items must each be a string"),
    "sigma-qubit-string": (lambda p: set_path(p, ["sigma", 0, "qubit"], "0"),
                           "'qubit' must be an integer"),
    "sigma-axis-null": (lambda p: set_path(p, ["sigma", 0, "axis"], None),
                        "'axis' must be a string"),
    "coeff-bool": (lambda p: set_path(p, ["transformed", 0, "coeff"], True),
                   "'coeff' must be a number"),
    "no-pauli": (lambda p: drop_key(p, ["transformed", 0], "pauli"), "missing key 'pauli'"),
    "circuit-array": (lambda p: set_path(p, ["circuit"], []),
                      "'circuit' must be an object"),
    "circuit-width": (lambda p: set_path(p, ["circuit", "n_qubits"], 5),
                      "circuit has 5 qubits, the plan 4"),
    "gate-qubits-number": (lambda p: set_path(p, ["circuit", "gates", 0, "qubits"], 0),
                           "'qubits' must be an array"),
    "n-qubits-huge": (lambda p: {**p, "n_qubits": 2**40}, "'n_qubits' must be in 1..1024"),
    "coeff-nan": (lambda p: set_path(p, ["transformed", 0, "coeff"], float("nan")),
                  "'coeff' must be a finite number"),
    "coeff-1e400": (lambda p: set_path(p, ["transformed", 0, "coeff"], json.loads("1e400")),
                    "'coeff' must be a finite number"),
    "coeff-int-overflow": (lambda p: set_path(p, ["transformed", 0, "coeff"], 10**400),
                           "'coeff' must be a finite number"),
    # Sigma and transformed items with exactly the JSON types asked for are
    # read without _field; anything else must still fail its type check.
    "sigma-qubit-true": (lambda p: set_path(p, ["sigma", 0, "qubit"], True),
                         "plan group 0: 'qubit' must be an integer"),
    "sigma-qubit-float-after-valid-sigma": (
        lambda p: set_path(p, ["sigma", 1, "qubit"], 1.0),
        "plan group 0: 'qubit' must be an integer"),
    "later-coeff-bool": (lambda p: set_path(p, ["transformed", 1, "coeff"], True),
                         "plan group 0: 'coeff' must be a number"),
    "pauli-number": (lambda p: set_path(p, ["transformed", 0, "pauli"], 3),
                     "plan group 0: 'pauli' must be a string"),
    "transformed-item-number": (lambda p: set_path(p, ["transformed", 1], 7),
                                "plan group 0: expected an object with key 'coeff'"),
    # The loader shares one Gate among equal gates; True and 1.0 equal 1 as
    # keys, so these must still fail the type check.
    "qubit-true-after-equal-gate": (
        lambda p: set_path(p, ["circuit", "gates"], [{"name": "H", "qubits": [1]},
                                                     {"name": "H", "qubits": [True]}]),
        "plan group 0: 'qubits' items must each be an integer"),
    "qubit-float-after-equal-gate": (
        lambda p: set_path(p, ["circuit", "gates"], [{"name": "H", "qubits": [1]},
                                                     {"name": "H", "qubits": [1.0]}]),
        "plan group 0: 'qubits' items must each be an integer"),
    "qubit-true-after-repeats": (
        lambda p: set_path(p, ["circuit", "gates"],
                           [{"name": "CNOT", "qubits": [0, 1]}] * 1000
                           + [{"name": "CNOT", "qubits": [0, True]}]),
        "plan group 0: 'qubits' items must each be an integer"),
    "first-bad-gate-after-repeats": (
        lambda p: set_path(p, ["circuit", "gates"],
                           [{"name": "H", "qubits": [0]}] * 1000
                           + [{"name": "CNOT", "qubits": [2, 2]},
                              {"name": "H", "qubits": [9]}]),
        "plan group 0: gate Gate(name='CNOT', qubits=(2, 2)) uses qubit 2 twice"),
}

# The widest input the qubit cap allows: two terms on qubits 0 and 1023.
WIDE_1024_TEXT = "1.0 X0 Z1023\n0.5 Z0 X1023\n"

GOLDEN_INPUTS = {"six-term": lambda: SIX_TERM_TEXT, "h2": lambda: H2_GROUP_TEXT,
                 "random-12q": random_sum_text, "wide-100q": lambda: WIDE_SPARSE_TEXT}
# sha256 of the `measure transform` plan bytes; a change here changes plans.
# random-12q and wide-100q have groups that leave qubits idle; their plans
# with one tau per register qubit hash to FULL_WIDTH_PLAN_SHA256.
PLAN_SHA256 = {
    "six-term": "4bb3bc8dee021ff59ef1edd1440da2c16f1612df814c4afcd0856b19c1b9af13",
    "h2": "86cac6283d1c72ef8c89bc3eb45d5c75bd36bb9c03e28b8fa91a800633a31cdb",
    "random-12q": "9cbdea9b14b8be62d3178247af685709e95723091eeb003553ac1ec9b35cc854",
    "wide-100q": "3667f3f76de6757c48225423a6fac3fe028df43fa1a378cf3d07ad750473d8c2",
}
FULL_WIDTH_PLAN_SHA256 = {
    "random-12q": "308f9e2bfad4dc7578b09e457c1c0e004d581b43104f01e630435fe9d3c70eae",
    "wide-100q": "c0e4286de86eb84210463670832e7260fa84bc02e036f8d7b9519c8f3f088fd4",
}
# sha256 of `measure group --format json` per "input/relation/method"; a change
# here changes a cover.
GROUP_SHA256 = {
    "six-term/fc/dsatur": "c37a77021193488de4a35224da4889c9760ed75e639db4e72c1fb57841fbd3b0",
    "six-term/fc/rlf": "4d4d31b67041a0a5a2c5caa08275fb58cc7613fc870d7c014b2e56ae4077bb29",
    "six-term/qwc/dsatur": "4aafeed34d1819b47a10ebc73635f9aeb06bc9e7c7ccc7db72f44c7d3a3c9fee",
    "six-term/qwc/rlf": "3953eee3e735d6bb76bddddbeae2eda8c6aaa681ae32d3d2859bac7ed798ce13",
    "h2/fc/dsatur": "de0ddeb884b518dc2254eaf925e42ddca717d277460cc1ed3c25d367f311edc9",
    "h2/fc/rlf": "98c0a7084c2a8bcb0ce693a53c083491c4c425b1f2b57f83e06a54ae4ca047db",
    "h2/qwc/dsatur": "ea5f6b9966876c8b5f4d558d7ea3ff3da17dc48b08b34c3a850dd91fe17f3b0c",
    "h2/qwc/rlf": "330f2eab740129a26cc0bc31bdc6d9cbeda28a020fc4656925f24834d97f0983",
    "random-12q/fc/dsatur": "07789af0452d3521db5ff7b630868f93a8e0d9c4285d2c491ed5f26067784ccf",
    "random-12q/fc/rlf": "d3dca909eb9221b714ecb9b247df02c9b460f6be469b7c1c8f6f9e333e9ce545",
    "random-12q/qwc/dsatur": "60e5ba14f2fbb614969d7832d2d2ca233dfbb51ac84eabe4ff6f594f47a383eb",
    "random-12q/qwc/rlf": "09e0b2292375311235a6628eaed7d691184c725d427464400b6a77393196d5fc",
}



def clash_on_qubit_3(plan):
    """H2 plan whose transformed term 4 clashes with terms 6 to 10 (X on qubit 3)."""
    plan["groups"][0]["transformed"][4]["pauli"] = "Z3"
    return plan


# Inputs of the verify golden test: source text and an optional plan edit.
VERIFY_INPUTS = {
    "h2": (lambda: H2_GROUP_TEXT, None),
    "six-term": (lambda: SIX_TERM_TEXT, None),
    "wide-100q": (lambda: WIDE_SPARSE_TEXT, None),
    "chain-12q": (chain_text, None),
    "h2-qwc-clash": (lambda: H2_GROUP_TEXT, clash_on_qubit_3),
}
# sha256 of `measure verify --format json` on the plan that `measure transform`
# writes, after the edit; a change here changes rows, statuses or details.
VERIFY_SHA256 = {
    "h2": "f560658cc528c82a4fbbcd121d356b6b75dae51319e158376cb2e07a80cde930",
    "six-term": "f560658cc528c82a4fbbcd121d356b6b75dae51319e158376cb2e07a80cde930",
    "wide-100q": "f560658cc528c82a4fbbcd121d356b6b75dae51319e158376cb2e07a80cde930",
    "chain-12q": "f560658cc528c82a4fbbcd121d356b6b75dae51319e158376cb2e07a80cde930",
    "h2-qwc-clash": "cb05c1385d047b98fb31774b9f4715be19ba5b03065cf506027dc80311ad6f0d",
}

@pytest.fixture
def six_term_file(tmp_path):
    path = tmp_path / "six.txt"
    path.write_text(SIX_TERM_TEXT)
    return str(path)


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(MODEL_TEXT)
    return str(path)


@pytest.fixture
def h2_file(tmp_path):
    path = tmp_path / "h2.txt"
    path.write_text(H2_GROUP_TEXT)
    return str(path)


class TestGroup:
    def test_six_term_rlf_summary(self, six_term_file, capsys):
        assert main(["group", six_term_file, "--relation", "fc",
                     "--method", "rlf"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "6 terms, 2 groups"
        assert "Total" in out and "Max Size" in out and "STD" in out

    def test_exact_flags_minimum(self, six_term_file, capsys):
        assert main(["group", six_term_file, "--method", "exact"]) == 0
        out = capsys.readouterr().out
        assert "2 groups" in out
        assert "certified minimal" in out

    def test_json_schema(self, six_term_file, capsys):
        assert main(["group", six_term_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["relation"] == "fc" and payload["method"] == "rlf"
        assert payload["groups"] == [[0, 1, 2], [3, 4, 5]]
        assert payload["stats"]["count"] == 2

    def test_json_byte_identical_across_runs(self, six_term_file, capsys):
        main(["group", six_term_file, "--format", "json"])
        first = capsys.readouterr().out
        main(["group", six_term_file, "--format", "json"])
        assert capsys.readouterr().out == first

    def test_empty_file_error(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert main(["group", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("measure: error:")
        assert "no terms" in err

    def test_cancelled_term_dropped_at_zero_tolerance(self, tmp_path, capsys):
        path = tmp_path / "cancel.txt"
        path.write_text("qubits: 2\n1.0 X0\n-1.0 X0\n0.5 Z1\n")
        assert main(["group", str(path), "--tolerance", "0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "1 terms, 1 groups" and out[-1] == "group 1 (1 terms): Z1"

    @pytest.mark.parametrize("command", ["group", "transform"])
    def test_all_terms_cancelled_error(self, tmp_path, capsys, command):
        path = tmp_path / "cancel.txt"
        path.write_text("qubits: 2\n1.0 X0\n-1.0 X0\n")
        assert main([command, str(path), "--tolerance", "0"]) == 1
        assert capsys.readouterr() == ("", "measure: error: no terms\n")

    @pytest.mark.parametrize("command", ["group", "transform"])
    def test_overflowing_merged_coefficient_error(self, tmp_path, capsys, command):
        path = tmp_path / "overflow.txt"
        path.write_text("1e308 X0\n1e308 X0\n0.5 Z1\n")
        assert main([command, str(path)]) == 1
        assert capsys.readouterr() == (
            "", "measure: error: merged coefficient of X0 is not finite\n")

    @pytest.mark.parametrize("command", ["group", "transform"])
    def test_exact_cover_cap_error(self, tmp_path, capsys, command):
        # 65 distinct Z strings on 7 qubits: one more vertex than the cap
        path = tmp_path / "cap.txt"
        path.write_text("qubits: 7\n" + "".join(
            "1.0 " + " ".join(f"Z{q}" for q in range(7) if mask >> q & 1) + "\n"
            for mask in range(1, 66)))
        assert main([command, str(path), "--method", "exact"]) == 1
        assert capsys.readouterr() == (
            "", "measure: error: exact cover limited to 64 vertices, graph has 65\n")

    def test_missing_file_error(self, capsys):
        assert main(["group", "/nonexistent/input.txt"]) == 1
        assert capsys.readouterr().err.startswith("measure: error:")

    def test_stdin_input(self, six_term_file, capsys, monkeypatch):
        import io
        monkeypatch.setattr(sys, "stdin", io.StringIO(SIX_TERM_TEXT))
        assert main(["group", "-", "--method", "dsatur"]) == 0
        assert "2 groups" in capsys.readouterr().out

    @pytest.mark.parametrize("text, message", [
        ("1.0 X99999999999999999999\n",
         "line 1: qubit index 99999999999999999999 exceeds the 1024-qubit limit"),
        ("qubits: 2000000\n1.0 X0\n1.0 Z1\n", "line 1: qubits must be in 1..1024"),
    ])
    def test_qubit_limit_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "wide.txt"
        path.write_text(text)
        assert main(["group", str(path)]) == 1
        assert capsys.readouterr().err == f"measure: error: {message}\n"

    @pytest.mark.parametrize("case", list(GROUP_SHA256))
    def test_group_output_golden(self, case, tmp_path, capsys):
        name, relation, method = case.split("/")
        source = tmp_path / "source.txt"
        source.write_text(GOLDEN_INPUTS[name]())
        assert main(["group", str(source), "--relation", relation, "--method", method,
                     "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == GROUP_SHA256[case]

    def test_qwc_relation(self, six_term_file, capsys):
        assert main(["group", six_term_file, "--relation", "qwc"]) == 0
        out = capsys.readouterr().out
        # the two three-term families are themselves QWC cliques here,
        # so just require a valid summary line
        assert out.splitlines()[0].startswith("6 terms,")


class TestTransform:
    def test_model_plan_contents(self, model_file, capsys):
        assert main(["transform", model_file]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["n_qubits"] == 2
        assert len(plan["groups"]) == 1
        transformed = {t["pauli"]: t["coeff"] for t in plan["groups"][0]["transformed"]}
        assert transformed == {"Z0": 1.0, "X1": 1.0}

    def test_zero_coefficient_dropped_at_zero_tolerance(self, tmp_path, capsys):
        path = tmp_path / "zero.txt"
        path.write_text("qubits: 2\n0.0 X0\n0.5 Z1\n")
        assert main(["transform", str(path), "--tolerance", "0"]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert [g["term_indices"] for g in plan["groups"]] == [[0]]
        assert [t["coeff"] for t in plan["groups"][0]["transformed"]] == [0.5]

    def test_qwc_relation_rejected(self, model_file, capsys):
        assert main(["transform", model_file, "--relation", "qwc"]) == 1
        assert "transform requires fc" in capsys.readouterr().err

    def test_output_file_byte_identical(self, h2_file, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["transform", h2_file, "--output", str(out1)]) == 0
        assert main(["transform", h2_file, "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_plan_coefficients_preserve_magnitudes(self, h2_file, capsys):
        assert main(["transform", h2_file]) == 0
        plan = json.loads(capsys.readouterr().out)
        got = sorted(abs(t["coeff"]) for t in plan["groups"][0]["transformed"])
        expected = sorted((0.4738, 0.1412, 0.0558, 0.0558, 0.0868, 0.1425,
                           0.1489, 0.0558, 0.0558, 0.0868, 0.1425))
        assert got == pytest.approx(expected)

    @pytest.mark.parametrize("name", sorted(PLAN_SHA256))
    def test_plan_bytes_golden(self, name, tmp_path):
        source = tmp_path / f"{name}.txt"
        source.write_text(GOLDEN_INPUTS[name]())
        out = tmp_path / "plan.json"
        assert main(["transform", str(source), "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PLAN_SHA256[name]

    @pytest.mark.parametrize("name", [*sorted(GOLDEN_INPUTS), "wide-1024q"])
    def test_plan_text_is_the_stdlib_layout(self, name):
        h = parse_hamiltonian(WIDE_1024_TEXT if name == "wide-1024q"
                              else GOLDEN_INPUTS[name]())
        plan = pipeline(h, compute_cover(build_graph(h, "fc"), "rlf"))
        assert plan_to_json(plan) == json.dumps(reference_plan_dict(plan), indent=2) + "\n"


def full_width_plan(h: Hamiltonian) -> MeasurementPlan:
    """The `measure transform` plan built with one tau and one sigma per
    register qubit and no qubit-local taus (helpers.completion_find_tau
    over the whole register / full_width_find_sigma)."""
    entries = []
    for indices in compute_cover(build_graph(h, "fc"), "rlf").groups:
        sub = Hamiltonian(h.n_qubits, tuple(h.terms[i] for i in indices))
        basis = full_width_find_sigma(completion_find_tau(sub, full_width=True))
        entries.append(GroupPlan(transform_group(sub, basis, indices), synthesize(basis)))
    return MeasurementPlan(h.n_qubits, tuple(entries))


TABLEAU = ("circuit maps each tau_i to +sigma_i and fixes the qubits without a sigma "
           "(tableau)")
SPECTRA = ("spectra preserved (each group maps onto its transformed group under "
           "tau_i -> sigma_i)")


class TestVerify:
    def run_transform(self, input_file, tmp_path):
        plan_path = tmp_path / "plan.json"
        assert main(["transform", input_file, "--output", str(plan_path)]) == 0
        return plan_path

    @staticmethod
    def assert_oracles_on_files(input_file, plan_path):
        """The dense oracles of the tests on a plan file for an input file."""
        assert_dense_oracles(parse_hamiltonian(Path(input_file).read_text()),
                             plan_from_dict(json.loads(Path(plan_path).read_text())))

    def test_h2_plan_passes(self, h2_file, tmp_path, capsys):
        plan_path = self.run_transform(h2_file, tmp_path)
        assert main(["verify", h2_file, str(plan_path)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 7
        self.assert_oracles_on_files(h2_file, plan_path)

    def test_six_term_plan_passes(self, six_term_file, tmp_path, capsys):
        plan_path = self.run_transform(six_term_file, tmp_path)
        assert main(["verify", six_term_file, str(plan_path)]) == 0
        self.assert_oracles_on_files(six_term_file, plan_path)

    def test_tampered_plan_fails_spectrum_check(self, h2_file, tmp_path, capsys):
        plan_path = self.run_transform(h2_file, tmp_path)
        plan = json.loads(plan_path.read_text())
        plan["groups"][0]["transformed"][1]["coeff"] += 1e-3
        plan_path.write_text(json.dumps(plan))
        assert main(["verify", h2_file, str(plan_path)]) == 1
        out = capsys.readouterr().out
        assert any(line.startswith("FAIL") and "spectra" in line
                   for line in out.splitlines())

    def test_json_format(self, model_file, tmp_path, capsys):
        plan_path = self.run_transform(model_file, tmp_path)
        assert main(["verify", model_file, str(plan_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(c["passed"] for c in payload["checks"])
        self.assert_oracles_on_files(model_file, plan_path)

    def test_malformed_plan_error(self, model_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["verify", model_file, str(bad)]) == 1
        assert capsys.readouterr().err.startswith("measure: error:")

    def test_out_of_range_term_indices_error(self, model_file, tmp_path, capsys):
        plan_path = self.run_transform(model_file, tmp_path)
        plan = json.loads(plan_path.read_text())
        plan["groups"][0]["term_indices"] = [0, 99]
        plan_path.write_text(json.dumps(plan))
        assert main(["verify", model_file, str(plan_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("measure: error:") and "out of range" in err

    def test_qubit_count_mismatch_error(self, model_file, h2_file, tmp_path, capsys):
        plan_path = self.run_transform(h2_file, tmp_path)
        assert main(["verify", model_file, str(plan_path)]) == 1
        assert "qubit count" in capsys.readouterr().err

    def run_verify_on_edited_plan(self, input_file, tmp_path, edit, capsys):
        """Exit code, stdout and stderr of verify on a plan changed by edit."""
        plan_path = self.run_transform(input_file, tmp_path)
        capsys.readouterr()
        plan = edit(json.loads(plan_path.read_text()))
        plan_path.write_text(json.dumps(plan))
        code = main(["verify", input_file, str(plan_path)])
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize("name", list(PLAN_CORRUPTIONS))
    def test_malformed_plan_fields_error(self, six_term_file, tmp_path, capsys, name):
        edit, message = PLAN_CORRUPTIONS[name]
        code, out, err = self.run_verify_on_edited_plan(six_term_file, tmp_path,
                                                        edit, capsys)
        assert code == 1 and out == ""
        assert err.startswith("measure: error:") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("phase", [3, -1, 2**70, True, None, "e^(i pi/4)"])
    def test_an_older_plans_global_phase_is_ignored(self, six_term_file, tmp_path, capsys,
                                                    phase):
        """Plans once carried each circuit's global phase; one that does,
        whatever the value, loads and passes every row, and a plan is
        written without it."""
        def add_phase(plan):
            for group in plan["groups"]:
                group["circuit"]["global_phase_exp"] = phase
            return plan
        code, out, err = self.run_verify_on_edited_plan(six_term_file, tmp_path, add_phase,
                                                        capsys)
        assert (code, err) == (0, "")
        rows = out.splitlines()
        assert len(rows) == 7 and all(row.startswith("PASS ") for row in rows)
        assert "global_phase_exp" not in self.run_transform(six_term_file, tmp_path).read_text()

    def test_deleted_group_fails_partition(self, six_term_file, tmp_path, capsys):
        code, out, _ = self.run_verify_on_edited_plan(
            six_term_file, tmp_path, lambda p: {**p, "groups": p["groups"][:1]}, capsys)
        assert code == 1
        assert "FAIL groups partition the terms (3 terms in no group, first 3)" in out
        assert "FAIL" not in out.replace("FAIL groups partition", "")

    def test_duplicated_group_fails_partition(self, six_term_file, tmp_path, capsys):
        code, out, _ = self.run_verify_on_edited_plan(
            six_term_file, tmp_path,
            lambda p: {**p, "groups": p["groups"] + p["groups"][:1]}, capsys)
        assert code == 1
        assert "FAIL groups partition the terms (3 terms in several groups, first 0)" in out

    def test_checks_above_the_old_spectra_cap_all_pass(self, tmp_path, capsys):
        """Eleven qubits were one above the dense spectra row's cap, where
        it printed SKIP; every row now runs at any width."""
        wide = tmp_path / "wide.txt"
        wide.write_text("qubits: 11\n1.0 X0 X10\n0.5 Z0 Z10\n")
        plan_path = self.run_transform(str(wide), tmp_path)
        assert main(["verify", str(wide), str(plan_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 7 and all(line.startswith("PASS ") for line in lines)
        assert main(["verify", str(wide), str(plan_path), "--format", "json"]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [c["status"] for c in checks] == ["pass"] * 7
        assert all(c["passed"] for c in checks)

    def test_rows_in_order(self, h2_file, tmp_path, capsys):
        plan_path = self.run_transform(h2_file, tmp_path)
        capsys.readouterr()
        assert main(["verify", h2_file, str(plan_path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "PASS groups partition the terms",
            "PASS basis invariants",
            "PASS transformed groups qubit-wise commuting",
            "PASS coefficient magnitudes preserved",
            "PASS circuit maps each group term to its transformed term (exact sign)",
            "PASS circuit maps each tau_i to +sigma_i and fixes the qubits without a "
            "sigma (tableau)",
            f"PASS {SPECTRA}",
        ]

    def test_truncated_circuit_fails_above_the_dense_caps(self, tmp_path, capsys):
        wide = tmp_path / "wide.txt"
        wide.write_text("qubits: 8\n1.0 X0 X7\n0.5 Z0 Z7\n0.25 Y1 Y2\n")

        def drop_last_gates(plan):
            circuit = plan["groups"][-1]["circuit"]
            circuit["gates"] = circuit["gates"][:-3]
            return plan

        code, out, _ = self.run_verify_on_edited_plan(str(wide), tmp_path,
                                                      drop_last_gates, capsys)
        assert code == 1
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert [line.split(" (group")[0] for line in failed] == [
            "FAIL circuit maps each group term to its transformed term (exact sign)",
            "FAIL circuit maps each tau_i to +sigma_i and fixes the qubits without a "
            "sigma (tableau)"]

    def test_flipped_sign_fails_at_twelve_qubits(self, tmp_path, capsys):
        chain = tmp_path / "chain.txt"
        chain.write_text(chain_text())

        def flip_first_sign(plan):
            term = plan["groups"][0]["transformed"][0]
            term["coeff"] = -term["coeff"]
            return plan

        code, out, _ = self.run_verify_on_edited_plan(str(chain), tmp_path,
                                                      flip_first_sign, capsys)
        assert code == 1
        assert ("FAIL circuit maps each group term to its transformed term (exact sign) "
                "(group 0: term 0 (0.1 Z0 Z1) maps to +") in out
        assert f"FAIL {SPECTRA} (group 0: term 0 (0.1 Z0 Z1) maps to +" in out
        assert out.count("FAIL") == 2

    def test_nan_coefficient_rejected_at_twelve_qubits(self, tmp_path, capsys):
        chain = tmp_path / "chain.txt"
        chain.write_text(chain_text())

        def nan_first_coeff(plan):
            plan["groups"][0]["transformed"][0]["coeff"] = float("nan")
            return plan

        code, out, err = self.run_verify_on_edited_plan(str(chain), tmp_path,
                                                        nan_first_coeff, capsys)
        assert (code, out) == (1, "")
        assert err == "measure: error: plan group 0: 'coeff' must be a finite number\n"

    def test_group_missing_a_tau_fails_without_traceback(self, six_term_file, tmp_path,
                                                          capsys):
        def drop_tau(plan):
            del plan["groups"][0]["tau"][0]
            return plan

        code, out, err = self.run_verify_on_edited_plan(six_term_file, tmp_path,
                                                        drop_tau, capsys)
        assert (code, err) == (1, "")
        assert "FAIL basis invariants (group 0: 3 taus for 4 sigmas)" in out
        assert f"FAIL {TABLEAU} (group 0: " in out

    def test_missing_tau_fails_the_tableau_row_with_the_basis_reason(self, h2_file,
                                                                    tmp_path, capsys):
        """The tableau and spectra rows read every factor, so a basis with
        the wrong number of factors fails them with the basis row's reason;
        the rows that do not read the basis pass."""
        def drop_tau(plan):
            del plan["groups"][0]["tau"][0]
            return plan

        code, out, err = self.run_verify_on_edited_plan(h2_file, tmp_path, drop_tau,
                                                        capsys)
        assert (code, err) == (1, "")
        failed = " (group 0: 3 taus for 4 sigmas)"
        assert out.splitlines() == [
            "PASS groups partition the terms",
            "FAIL basis invariants" + failed,
            "PASS transformed groups qubit-wise commuting",
            "PASS coefficient magnitudes preserved",
            "PASS circuit maps each group term to its transformed term (exact sign)",
            f"FAIL {TABLEAU}" + failed,
            f"FAIL {SPECTRA}" + failed,
        ]

    @pytest.mark.parametrize("field, value, reason", [
        ("axis", "Q", "axis must be X, Y or Z, got 'Q'"),
        ("qubit", -1, "qubit -1 out of range for 3 qubits"),
        ("qubit", 3, "qubit 3 out of range for 3 qubits"),
    ])
    def test_bad_sigma_fails_the_rows_that_read_it(self, tmp_path, capsys, field,
                                                   value, reason):
        """A sigma that is no single-qubit Pauli of the register loads, then
        fails every row that builds it with its one-line reason."""
        source = tmp_path / "three.txt"
        source.write_text("qubits: 3\n1.0 X0 X1\n0.5 Z0 Z1\n0.25 Z2\n-0.4 Y0 Y1 Z2\n")
        code, out, err = self.run_verify_on_edited_plan(
            str(source), tmp_path, lambda p: set_path(p, ["sigma", 0, field], value),
            capsys)
        assert (code, err) == (1, "")
        failed = f" (group 0: {reason})"
        assert out.splitlines() == [
            "PASS groups partition the terms",
            "FAIL basis invariants" + failed,
            "PASS transformed groups qubit-wise commuting",
            "PASS coefficient magnitudes preserved",
            "PASS circuit maps each group term to its transformed term (exact sign)",
            "FAIL circuit maps each tau_i to +sigma_i and fixes the qubits without a "
            "sigma (tableau)" + failed,
            f"FAIL {SPECTRA}" + failed,
        ]

    @pytest.mark.parametrize("name", ["h2", "wide-100q"])
    def test_cnot_on_one_qubit_is_a_plan_error(self, name, tmp_path, capsys):
        source = tmp_path / "source.txt"
        source.write_text(VERIFY_INPUTS[name][0]())

        def self_loop_first_cnot(plan):
            gates = plan["groups"][0]["circuit"]["gates"]
            k = next(k for k, g in enumerate(gates) if g["name"] == "CNOT")
            q = gates[k]["qubits"][0]
            gates[k]["qubits"] = [q, q]
            return plan

        code, out, err = self.run_verify_on_edited_plan(str(source), tmp_path,
                                                        self_loop_first_cnot, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("measure: error: plan group 0: gate Gate(name='CNOT'")
        assert err.endswith(" twice\n") and err.count("\n") == 1

    def test_deeply_nested_plan_error(self, six_term_file, tmp_path, capsys):
        plan_path = tmp_path / "deep.json"
        plan_path.write_text("[" * 100_000)
        assert main(["verify", six_term_file, str(plan_path)]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "measure: error: plan: JSON nested too deeply\n")

    def test_non_qwc_transformed_terms_fail_at_the_lowest_pair(self, h2_file, tmp_path,
                                                                capsys):
        code, out, _ = self.run_verify_on_edited_plan(h2_file, tmp_path,
                                                      clash_on_qubit_3, capsys)
        assert code == 1
        assert ("FAIL transformed groups qubit-wise commuting "
                "(group 0: transformed terms 4 and 6 are not QWC)") in out.splitlines()

    def test_y_against_x_transformed_terms_fail_at_the_lowest_pair(self, h2_file, tmp_path,
                                                                    capsys):
        def y_on_qubit_1(plan):
            # term 5 (X1 X2) becomes Y1 X2; terms 1-3, 6-8 and 10 hold X1
            plan["groups"][0]["transformed"][5]["pauli"] = "Y1 X2"
            return plan

        code, out, _ = self.run_verify_on_edited_plan(h2_file, tmp_path,
                                                      y_on_qubit_1, capsys)
        assert code == 1
        assert ("FAIL transformed groups qubit-wise commuting "
                "(group 0: transformed terms 1 and 5 are not QWC)") in out.splitlines()

    @pytest.mark.parametrize("name", list(VERIFY_INPUTS))
    def test_verify_output_golden(self, name, tmp_path, capsys):
        text, edit = VERIFY_INPUTS[name]
        source = tmp_path / "source.txt"
        source.write_text(text())
        plan_path = self.run_transform(str(source), tmp_path)
        if edit is not None:
            plan_path.write_text(json.dumps(edit(json.loads(plan_path.read_text()))))
        capsys.readouterr()
        code = main(["verify", str(source), str(plan_path), "--format", "json"])
        out, err = capsys.readouterr()
        assert (code, err) == (0 if edit is None else 1, "")
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256[name]

    @pytest.mark.parametrize("name, text", [
        ("random-12q", random_sum_text()),
        ("wide-100q", WIDE_SPARSE_TEXT),
        # the dense oracles run too: one group on qubits 0, 1 and 3 of 5
        ("idle-5q", "qubits: 5\n1.0 X0 X1\n0.5 Z0 Z1\n-0.25 Z3\n0.125 Y0 Y1 Z3\n"),
    ])
    def test_full_width_plan_passes_every_row(self, name, text, tmp_path, capsys):
        """A plan with one tau per register qubit, as `measure transform`
        wrote before each basis acted only on its group's qubits, verifies."""
        source = tmp_path / "source.txt"
        source.write_text(text)
        plan = full_width_plan(parse_hamiltonian(text))
        assert all(len(g.transform.basis.taus) == plan.n_qubits for g in plan.groups)
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(plan_to_json(plan))
        if name in FULL_WIDTH_PLAN_SHA256:
            digest = hashlib.sha256(plan_path.read_bytes()).hexdigest()
            assert digest == FULL_WIDTH_PLAN_SHA256[name]
        assert main(["verify", str(source), str(plan_path)]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 7
        assert all(row.startswith("PASS ") for row in rows)
        if name == "idle-5q":
            self.assert_oracles_on_files(source, plan_path)

    def test_tau_on_a_qubit_without_a_sigma_fails_the_basis_row(self, tmp_path, capsys):
        source = tmp_path / "wide.txt"
        source.write_text(WIDE_SPARSE_TEXT)

        def widen_first_tau(plan):
            assert all(s["qubit"] != 1 for s in plan["groups"][0]["sigma"])
            plan["groups"][0]["tau"][0] += " Z1"
            return plan

        code, out, err = self.run_verify_on_edited_plan(str(source), tmp_path,
                                                        widen_first_tau, capsys)
        assert (code, err) == (1, "")
        assert ("FAIL basis invariants (group 0: tau_0 acts on qubit 1, which has no "
                "sigma)") in out.splitlines()

    def test_emptied_basis_fails_the_basis_row(self, tmp_path, capsys):
        """Without taus and sigmas, no group term acts only on sigma qubits."""
        source = tmp_path / "pair.txt"
        source.write_text("1.0 X0 X1\n1.0 Z0 Z1\n")

        def empty_basis(plan):
            plan["groups"][0]["tau"] = plan["groups"][0]["sigma"] = []
            return plan

        code, out, err = self.run_verify_on_edited_plan(str(source), tmp_path,
                                                        empty_basis, capsys)
        assert (code, err) == (1, "")
        rows = out.splitlines()
        assert ("FAIL basis invariants (group 0: group term 0 acts on qubit 0, which has "
                "no sigma)") in rows
        for name in (TABLEAU, SPECTRA):
            assert any(row.startswith(f"FAIL {name} (group 0: ") for row in rows)

    def test_extra_hadamard_on_an_idle_qubit_fails_the_tableau_row(self, tmp_path,
                                                                  capsys):
        """The group's terms do not touch qubit 1, so only the tableau row,
        which requires every qubit without a sigma to be left alone, sees
        the gate."""
        source = tmp_path / "wide.txt"
        source.write_text(WIDE_SPARSE_TEXT)

        def add_hadamard(plan):
            plan["groups"][0]["circuit"]["gates"].append({"name": "H", "qubits": [1]})
            return plan

        code, out, err = self.run_verify_on_edited_plan(str(source), tmp_path,
                                                        add_hadamard, capsys)
        assert (code, err) == (1, "")
        assert [row for row in out.splitlines() if row.startswith("FAIL")] == [
            f"FAIL {TABLEAU} (group 0: X1, on a qubit without a sigma, maps to +Z1, "
            "not +X1)"]

    def test_dropped_sigma_fails_with_a_one_line_reason(self, six_term_file, tmp_path,
                                                        capsys):
        def drop_sigma(plan):
            del plan["groups"][0]["sigma"][0]
            return plan

        code, out, err = self.run_verify_on_edited_plan(six_term_file, tmp_path,
                                                        drop_sigma, capsys)
        assert (code, err) == (1, "")
        failed = [row for row in out.splitlines() if row.startswith("FAIL")]
        assert "FAIL basis invariants (group 0: 4 taus for 3 sigmas)" in failed
        assert f"FAIL {TABLEAU} (group 0: 4 taus for 3 sigmas)" in failed
        assert all(row.endswith("(group 0: 4 taus for 3 sigmas)") for row in failed)

    def test_widest_plan_has_two_taus_and_verifies(self, tmp_path, capsys):
        source = tmp_path / "wide.txt"
        source.write_text(WIDE_1024_TEXT)
        plan_path = self.run_transform(str(source), tmp_path)
        (group,) = json.loads(plan_path.read_text())["groups"]
        assert len(group["tau"]) == len(group["sigma"]) == 2
        assert {s["qubit"] for s in group["sigma"]} == {0, 1023}
        assert {q for g in group["circuit"]["gates"] for q in g["qubits"]} <= {0, 1023}
        capsys.readouterr()
        assert main(["verify", str(source), str(plan_path)]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_constant_only_group_has_no_gates_and_verifies(self, tmp_path, capsys):
        source = tmp_path / "constant.txt"
        source.write_text("qubits: 3\n0.7 I\n")
        plan_path = self.run_transform(str(source), tmp_path)
        (group,) = json.loads(plan_path.read_text())["groups"]
        assert (group["tau"], group["sigma"], group["circuit"]["gates"]) == ([], [], [])
        assert group["transformed"] == [{"coeff": 0.7, "pauli": "I"}]
        capsys.readouterr()
        assert main(["verify", str(source), str(plan_path)]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 7 and all(row.startswith("PASS ") for row in rows)
        self.assert_oracles_on_files(source, plan_path)

    def test_failure_names_the_first_failing_group(self, six_term_file, tmp_path, capsys):
        def tamper_second_group(plan):
            plan["groups"][1]["transformed"][0]["coeff"] *= -1
            return plan

        code, out, _ = self.run_verify_on_edited_plan(six_term_file, tmp_path,
                                                      tamper_second_group, capsys)
        assert code == 1
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert failed and all("(group 1: " in line for line in failed)
        assert any(line.startswith("FAIL circuit maps each group term") for line in failed)


class TestCount:
    def test_default_template_n4(self, capsys):
        assert main(["count", "4"]) == 0
        out = capsys.readouterr().out
        assert "n_qwc=32" in out and "n_commuting=128" in out
        assert "match: yes" in out

    def test_default_template_n8(self, capsys):
        assert main(["count", "8"]) == 0
        out = capsys.readouterr().out
        assert "n_qwc=1024" in out and "n_commuting=32768" in out

    def test_explicit_template(self, capsys):
        assert main(["count", "4", "--template", "I"]) == 0
        out = capsys.readouterr().out
        assert "n_qwc=256 n_commuting=256" in out

    def test_cap_error(self, capsys):
        assert main(["count", "9"]) == 1
        assert capsys.readouterr().err.startswith("measure: error:")

    @pytest.mark.parametrize("argv", [["count", "8000000"],
                                      ["count", "100000000000", "--template", "X0"]])
    def test_huge_qubit_count_fails_before_building_the_template(self, capsys, argv):
        start = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr() == ("",
                                       "measure: error: enumeration limited to 8 qubits\n")


@pytest.mark.parametrize("argv", [
    ["--method", "lf"], ["--method", "sl"], ["--method", "bogus"], ["--relation", "xyz"],
    ["--tolerance", "abc"], ["--tolerance", "inf"], ["--tolerance", "nan"],
    ["--tolerance", "-1"], ["--bogus"], None,
], ids=lambda argv: " ".join(argv) if argv else "missing-input")
def test_flag_errors_print_one_line(six_term_file, capsys, argv):
    args = ["group"] if argv is None else ["group", six_term_file, *argv]
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("measure: error: ") and err.count("\n") == 1, err
    if argv and argv[0] == "--tolerance":
        assert err.startswith("measure: error: argument --tolerance: ")


def test_the_parser_is_built_once_and_parses_alike_after_reuse(six_term_file, capsys):
    """Every call after the first reuses one parser: a failed parse leaves
    nothing behind, so each command prints what it prints on a fresh one."""
    from paulimeasure import cli
    calls = [["group", six_term_file, "--method", "bogus"], ["group", six_term_file],
             ["count", "abc"], ["group", six_term_file, "--method", "dsatur"],
             ["group", six_term_file, "--format", "json"]]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append((main(argv), capsys.readouterr()))
    cli._parser.cache_clear()
    assert [(main(argv), capsys.readouterr()) for argv in calls] == fresh
    assert cli._parser.cache_info().misses == 1


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["group", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: measure group")


def test_module_entry_point(six_term_file):
    proc = subprocess.run([sys.executable, "-m", "paulimeasure", "group",
                           six_term_file, "--method", "rlf"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "6 terms, 2 groups"


def _fresh_python(code: str, tmp_path) -> subprocess.CompletedProcess:
    """Run code in a new interpreter that imports this paulimeasure."""
    src = str(Path(paulimeasure.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)


def test_group_transform_verify_and_count_do_not_import_numpy(six_term_file, tmp_path):
    # verify too: only the dense test oracles use numpy, and no row calls them
    proc = _fresh_python(f"""
import sys
from paulimeasure.cli import main
loaded = ["numpy" in sys.modules]
main(["group", {six_term_file!r}])
loaded.append("numpy" in sys.modules)
main(["transform", {six_term_file!r}, "--output", "plan.json"])
loaded.append("numpy" in sys.modules)
assert main(["verify", {six_term_file!r}, "plan.json"]) == 0
loaded.append("numpy" in sys.modules)
assert main(["count", "4"]) == 0
loaded.append("numpy" in sys.modules)
print(loaded)
""", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[False, False, False, False, False]"


def test_importing_the_cli_loads_no_heavy_module(tmp_path):
    # Compared with the modules already loaded before the import, so that
    # one a site hook loads is not put down to the package.
    proc = _fresh_python("""
import sys
before = set(sys.modules)
import paulimeasure.cli
heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "numpy"}
print(sorted(heavy & (set(sys.modules) - before)))
""", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_verify_resolves_as_a_package_attribute(six_term_file, tmp_path):
    # as the benchmark tracer reaches it: getattr after importing cli alone
    proc = _fresh_python(f"""
import sys
import paulimeasure
import paulimeasure.cli
verify = getattr(paulimeasure, "verify")
assert verify is sys.modules["paulimeasure.verify"]
assert not hasattr(paulimeasure, "no_such_module")
assert paulimeasure.cli.main(["transform", {six_term_file!r}, "--output", "plan.json"]) == 0
sys.exit(paulimeasure.cli.main(["verify", {six_term_file!r}, "plan.json"]))
""", tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("PASS ") == 7


def test_public_names_are_pinned():
    # The package's public surface. A name that only the tests use belongs
    # in tests/helpers.py, not here.
    assert paulimeasure.__all__ == [
        "DROP_TOLERANCE", "Hamiltonian", "HamiltonianFormatError", "PauliProduct",
        "parse_hamiltonian",
        "CliqueCover", "CompatGraph", "CoverReport", "CoverStats", "build_graph",
        "compute_cover", "cover_dsatur", "cover_exact", "cover_rlf", "cover_stats",
        "cover_to_json", "validate_cover",
        "GroupPlan", "MeasurementPlan", "TauSigmaBasis", "TransformedGroup",
        "circuit_from_dict", "find_sigma", "find_tau", "pipeline", "plan_from_dict",
        "plan_to_dict", "plan_to_json", "transform_group",
        "CliffordCircuit", "Gate", "gate_counts", "synthesize",
    ]
    assert all(hasattr(paulimeasure, name) for name in paulimeasure.__all__)
