"""Measurement grouping and Clifford compilation for qubit Hamiltonians."""

import importlib

from .pauli import (DROP_TOLERANCE, Hamiltonian, HamiltonianFormatError,
                    PauliProduct, parse_hamiltonian)
from .grouping import (CliqueCover, CompatGraph, CoverReport, CoverStats,
                       build_graph, compute_cover, cover_dsatur, cover_exact,
                       cover_rlf, cover_stats, cover_to_json, validate_cover)
from .transform import (GroupPlan, MeasurementPlan, TauSigmaBasis, TransformedGroup,
                        circuit_from_dict, find_sigma, find_tau, pipeline, plan_from_dict,
                        plan_to_dict, plan_to_json, transform_group)
from .circuits import CliffordCircuit, Gate, gate_counts, synthesize

__version__ = "0.1.0"


def __getattr__(name: str):
    """``paulimeasure.verify`` on first use; no command but `measure verify`
    loads it. It imports no numpy: its dense test oracles import numpy when
    called, and no check row calls them. ``from . import verify`` here
    would re-enter this while resolving the name."""
    if name == "verify":
        return importlib.import_module(__name__ + ".verify")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
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
