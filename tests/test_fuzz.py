"""Fuzzing of the two outside inputs: Hamiltonian text and plan JSON.

Whatever the input, `measure` must exit 0 or 1 and never raise. On exit 1
it prints either exactly one `measure: error:` line on stderr, or (for
`verify`) nothing there and at least one FAIL row on stdout.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from tempfile import TemporaryDirectory
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from paulimeasure.cli import main
from paulimeasure.fixtures import SIX_TERM_TEXT

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def run_cli(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), redirect_stdout(out), \
            redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, out, err):
    assert code in (0, 1)
    if err:
        assert code == 1
        assert err.startswith("measure: error: ") and err.count("\n") == 1, err
    else:
        assert code == 0 or "\nFAIL " in "\n" + out, out


# --- Hamiltonian text through `measure group` ------------------------------

# Each strategy leads with well-formed values, so that most lines parse and
# the later lines and stages are reached too.
_INDEX = st.one_of(st.integers(0, 12), st.integers(0, 2**70))
_TOKEN = st.one_of(
    st.builds("{}{}".format, st.sampled_from("XYZ"), _INDEX),
    st.builds("{}{}".format, st.sampled_from("IxQ"), _INDEX),
    st.sampled_from(["I", "X", "X-1", "Z01", "#", "qubits:", ":", "1e5"]),
    st.text(max_size=6))
_COEFF = st.one_of(st.floats(-2, 2).map(repr), st.floats().map(repr),
                   st.integers().map(str),
                   st.sampled_from(["nan", "-inf", "1e400", "0x10", "1_0", "1j"]),
                   st.text(max_size=5))
_LINE = st.one_of(
    st.builds(lambda c, ts: " ".join([c, *ts]), _COEFF,
              st.lists(_TOKEN, min_size=1, max_size=4)),
    st.builds("qubits: {}".format, st.one_of(st.integers(-3, 40), st.integers())),
    st.text(max_size=24))
HAMILTONIAN_TEXT = st.lists(_LINE, min_size=1, max_size=6).map("\n".join)


@FUZZ
@given(HAMILTONIAN_TEXT)
def test_parser_fuzz_through_group(text):
    assert_clean_exit(*run_cli(["group", "-"], stdin=text))


# --- plan JSON through `measure verify` ------------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)

_INPUTS = {"six-term": SIX_TERM_TEXT,
           "chain-8q": "qubits: 8\n" + "".join(f"{0.5 + i} Z{i} Z{i + 1}\n"
                                                for i in range(7))}
_PLANS: dict[str, dict] = {}


def base_plan(name):
    """The plan `measure transform` writes for a bundled input, made once."""
    if name not in _PLANS:
        code, out, _ = run_cli(["transform", "-"], stdin=_INPUTS[name])
        assert code == 0
        _PLANS[name] = json.loads(out)
    return copy.deepcopy(_PLANS[name])


def containers(node, path=()):
    """(path, container) for every object and array in the plan, the array
    indices in each path replaced by "*"."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        if isinstance(child, (dict, list)):
            yield from containers(child, path + ("*" if isinstance(key, int) else key,))


@st.composite
def mutated_plans(draw):
    name = draw(st.sampled_from(sorted(_INPUTS)))
    plan = base_plan(name)
    for _ in range(draw(st.integers(1, 3))):
        # One kind of field first (say, any group's "tau"), then one of them:
        # gates far outnumber the other fields.
        kinds: dict[tuple, list] = {}
        for path, node in containers(plan):
            kinds.setdefault(path, []).append(node)
        node = draw(st.sampled_from(kinds[draw(st.sampled_from(sorted(kinds)))]))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "add" or not keys:
            if isinstance(node, dict):
                node[draw(st.text(max_size=6))] = draw(_JSON)
            else:
                node.insert(draw(st.integers(0, len(node))), draw(_JSON))
        elif action == "delete":
            del node[draw(st.sampled_from(keys))]
        else:
            node[draw(st.sampled_from(keys))] = draw(_JSON)
    return name, plan


@FUZZ
@given(mutated_plans())
def test_plan_loader_fuzz_through_verify(case):
    name, plan = case
    with TemporaryDirectory() as tmp:
        source, plan_path = Path(tmp) / "h.txt", Path(tmp) / "plan.json"
        source.write_text(_INPUTS[name])
        plan_path.write_text(json.dumps(plan))
        assert_clean_exit(*run_cli(["verify", str(source), str(plan_path)]))
