"""CLI behavior: subcommands, formats, exit codes, failure paths."""

import hashlib
import json
import random
import subprocess
import sys

import pytest

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
    "no-global-phase": (lambda p: drop_key(p, ["circuit"], "global_phase_exp"),
                        "missing key 'global_phase_exp'"),
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
}

GOLDEN_INPUTS = {"six-term": lambda: SIX_TERM_TEXT, "h2": lambda: H2_GROUP_TEXT,
                 "random-12q": random_sum_text, "wide-100q": lambda: WIDE_SPARSE_TEXT}
# sha256 of the `measure transform` plan bytes; a change here changes plans.
PLAN_SHA256 = {
    "six-term": "5109c152bd80483956f939ef5184ee4f0e9e2ef406b4f268181cc74b252b4303",
    "h2": "24ad71e4cd9c033dcca02b93d93133690df3ac3d6e61fb99fc73b47c6405572a",
    "random-12q": "0bc5ee1d6db30fca5f7cd257be20f667577e7859ccc647ea4694d4165a5c97b1",
    "wide-100q": "e89f4e35032567d5a840db7e95a84d7e8a5965dbf287ad861970d844b7604845",
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


class TestVerify:
    def run_transform(self, input_file, tmp_path):
        plan_path = tmp_path / "plan.json"
        assert main(["transform", input_file, "--output", str(plan_path)]) == 0
        return plan_path

    def test_h2_plan_passes(self, h2_file, tmp_path, capsys):
        plan_path = self.run_transform(h2_file, tmp_path)
        assert main(["verify", h2_file, str(plan_path)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 7

    def test_six_term_plan_passes(self, six_term_file, tmp_path, capsys):
        plan_path = self.run_transform(six_term_file, tmp_path)
        assert main(["verify", six_term_file, str(plan_path)]) == 0

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

    def test_checks_above_the_dense_caps_print_skip(self, tmp_path, capsys):
        wide = tmp_path / "wide.txt"
        wide.write_text("qubits: 8\n1.0 X0 X7\n0.5 Z0 Z7\n")
        plan_path = self.run_transform(str(wide), tmp_path)
        assert main(["verify", str(wide), str(plan_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        skipped = [line for line in lines if "(skipped" in line]
        assert len(skipped) == 4
        assert all(line.startswith("SKIP ") for line in skipped)
        assert all(line.startswith("PASS ") for line in lines if line not in skipped)
        assert main(["verify", str(wide), str(plan_path), "--format", "json"]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [c["status"] for c in checks].count("skip") == 4
        assert all(c["passed"] == (c["status"] == "pass") for c in checks)


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
            "PASS spectra preserved (tol 1e-9)",
            "PASS conjugated group matches transform (tol 1e-9)",
            "PASS unitarity (tol 1e-10)",
            "PASS circuit matches symbolic unitary (tol 1e-10)",
            "PASS expectation values invariant (tol 1e-9)",
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
        assert failed == [line for line in failed if line.startswith(
            "FAIL circuit maps each group term to its transformed term (exact sign)")]
        assert len(failed) == 1

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
        assert out.count("FAIL") == 1

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
        assert "FAIL basis invariants (group 0: expected 4 taus and sigmas)" in out
        assert "FAIL conjugated group matches transform (tol 1e-9) (group 0: " in out

    def test_deeply_nested_plan_error(self, six_term_file, tmp_path, capsys):
        plan_path = tmp_path / "deep.json"
        plan_path.write_text("[" * 100_000)
        assert main(["verify", six_term_file, str(plan_path)]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "measure: error: plan: JSON nested too deeply\n")

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


def test_module_entry_point(six_term_file):
    proc = subprocess.run([sys.executable, "-m", "paulimeasure", "group",
                           six_term_file, "--method", "rlf"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "6 terms, 2 groups"
