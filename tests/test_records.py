"""The record types' value contract: immutable fields, equality and hash by
value, pickling and copying to an equal object, and checked constructors."""

import copy
import pickle

import pytest

from paulimeasure import (CliffordCircuit, CliqueCover, CompatGraph, CoverReport, CoverStats,
                          Gate, GroupPlan, Hamiltonian, MeasurementPlan, PauliProduct,
                          TauSigmaBasis, TransformedGroup, build_graph, cover_rlf, cover_stats,
                          pipeline, validate_cover)
from paulimeasure.fixtures import six_term_hamiltonian

RECORD_TYPES = (PauliProduct, Hamiltonian, CompatGraph, CliqueCover, CoverStats, CoverReport,
                TauSigmaBasis, TransformedGroup, GroupPlan, MeasurementPlan, CliffordCircuit)
FIELDS = {
    PauliProduct: ("n_qubits", "x", "z", "phase_exp"),
    Hamiltonian: ("n_qubits", "terms"),
    CompatGraph: ("n_vertices", "relation", "conflicts"),
    CliqueCover: ("relation", "method", "groups"),
    CoverStats: ("group_count", "max_size", "size_stddev"),
    CoverReport: ("violations", "groups"),
    TauSigmaBasis: ("n_qubits", "taus", "sigmas"),
    TransformedGroup: ("term_indices", "basis", "transformed"),
    GroupPlan: ("transform", "circuit"),
    MeasurementPlan: ("n_qubits", "groups"),
    CliffordCircuit: ("n_qubits", "gates"),
}


def one_of_each() -> dict[type, object]:
    """A fresh instance of every record type, built by the pipeline."""
    h = six_term_hamiltonian()
    graph = build_graph(h, "fc")
    cover = cover_rlf(graph)
    plan = pipeline(h, cover)
    group = plan.groups[0]
    objects = [h.terms[0][1], h, graph, cover, cover_stats(cover),
               validate_cover(h, cover, "fc"), group.transform.basis, group.transform,
               group, plan, group.circuit]
    return {type(obj): obj for obj in objects}


@pytest.fixture(params=RECORD_TYPES, ids=lambda cls: cls.__name__)
def record(request):
    return one_of_each()[request.param]


def test_every_record_type_is_covered():
    assert set(one_of_each()) == set(RECORD_TYPES)


def test_fields_cannot_be_assigned_or_deleted(record):
    for name in FIELDS[type(record)]:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value


def test_equal_values_give_equal_objects_and_hashes(record):
    twin = one_of_each()[type(record)]
    assert twin is not record
    assert twin == record and hash(twin) == hash(record)
    assert not twin != record


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trips(record, protocol):
    clone = pickle.loads(pickle.dumps(record, protocol))
    assert type(clone) is type(record)
    assert clone == record and hash(clone) == hash(record)


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy], ids=["copy", "deepcopy"])
def test_copy_round_trips(record, copier):
    clone = copier(record)
    assert type(clone) is type(record)
    assert clone == record and hash(clone) == hash(record)
    for name in FIELDS[type(record)]:
        assert getattr(clone, name) == getattr(record, name)


def test_a_copied_basis_still_computes_its_columns():
    basis = one_of_each()[TauSigmaBasis]
    columns = (basis.tau_columns, basis.sigma_columns, basis.sigma_products,
               basis.neighbours)
    for clone in (copy.copy(basis), copy.deepcopy(basis), pickle.loads(pickle.dumps(basis))):
        assert (clone.tau_columns, clone.sigma_columns, clone.sigma_products,
                clone.neighbours) == columns
        clone.validate()


def test_a_hamiltonians_cached_columns_stay_out_of_its_value():
    h = one_of_each()[Hamiltonian]
    fresh = Hamiltonian(h.n_qubits, h.terms)
    assert "columns" in vars(h) and "columns" not in vars(fresh)
    assert fresh == h and hash(fresh) == hash(h) and repr(fresh) == repr(h)
    for clone in (copy.copy(h), copy.deepcopy(h), pickle.loads(pickle.dumps(h))):
        assert "columns" not in vars(clone)
        assert clone.columns == h.columns == fresh.columns


def test_unequal_values_give_unequal_objects():
    assert PauliProduct(2, 1) != PauliProduct(2, 2)
    assert Hamiltonian(1, ()) != Hamiltonian(2, ())
    assert CliffordCircuit(1, ()) != CliffordCircuit(1, (Gate("H", (0,)),))
    assert TauSigmaBasis(1, (), ()) != TauSigmaBasis(2, (), ())


def test_the_synthesized_circuit_equals_the_checked_one():
    circuit = one_of_each()[CliffordCircuit]
    checked = CliffordCircuit(circuit.n_qubits, circuit.gates)
    assert checked == circuit and hash(checked) == hash(circuit)
    assert repr(checked) == repr(circuit)


def test_repr_names_the_fields():
    assert repr(Hamiltonian(1, ())) == "Hamiltonian(n_qubits=1, terms=())"
    assert repr(CliffordCircuit(1, (Gate("H", (0,)),))) == (
        "CliffordCircuit(n_qubits=1, gates=(Gate(name='H', qubits=(0,)),))")
    assert repr(TauSigmaBasis(1, (), ())) == "TauSigmaBasis(n_qubits=1, taus=(), sigmas=())"
    assert repr(CoverStats(1, 2, 0.5)) == "CoverStats(group_count=1, max_size=2, size_stddev=0.5)"


# PauliProduct's messages are pinned in test_pauli.py.
@pytest.mark.parametrize("build, message", [
    (lambda: Hamiltonian(2, ((1.0, PauliProduct(1, 1)),)),
     "term qubit count differs from Hamiltonian"),
    (lambda: Hamiltonian(1, ((1.0, PauliProduct(1, 1, 0, 2)),)),
     "Hamiltonian terms must carry no phase"),
    (lambda: CliffordCircuit(1, (Gate("T", (0,)),)), "unknown gate 'T'"),
    (lambda: CliffordCircuit(2, (Gate("CNOT", (0,)),)), r"CNOT takes 2 qubit\(s\)"),
    (lambda: CliffordCircuit(1, (Gate("H", (1,)),)),
     r"gate Gate\(name='H', qubits=\(1,\)\) outside 1 qubits"),
    (lambda: CliffordCircuit(2, (Gate("CNOT", (1, 1)),)),
     r"gate Gate\(name='CNOT', qubits=\(1, 1\)\) uses qubit 1 twice"),
])
def test_constructors_keep_their_messages(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()
