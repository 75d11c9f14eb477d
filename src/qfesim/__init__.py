"""Entanglement and entanglement-fluctuation measures for a pair of
two-level detectors, one of them uniformly accelerated.

The names below are the library entry points; the kernels and the
individual measures live in :mod:`qfesim.qmatrix`, :mod:`qfesim.detector`,
:mod:`qfesim.measures` and :mod:`qfesim.sweep`.
"""

from .detector import DetectorParams, build_final_state
from .measures import CrossCheckError, GridValues, evaluate_grid
from .sweep import (
    SweepSpec,
    figure_preset,
    find_qfe_peak,
    oracle_scan,
    sweep_grid,
)

__version__ = "0.1.0"

__all__ = [
    "DetectorParams",
    "build_final_state",
    "evaluate_grid",
    "GridValues",
    "CrossCheckError",
    "SweepSpec",
    "sweep_grid",
    "figure_preset",
    "find_qfe_peak",
    "oracle_scan",
    "__version__",
]
