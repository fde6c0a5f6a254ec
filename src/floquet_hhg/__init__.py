"""Complex Floquet spectral analysis of photon emission from a
sinusoidally driven two-level emitter coupled to a 1D continuum.

The package solves the nonlinear complex eigenvalue problem of the
driven emitter's Floquet ladder by the continued-fraction method, builds
the emission observables from the resonance pole, and validates every
analytic object against a brute-force time-domain integrator.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .compare import CompareSpec, ComparisonReport, compare
from .config import RunConfig, from_dict, parse_config
from .dataset import Dataset, read_dataset, write_dataset
from .errors import ConvergenceError
from .model import TWO_PI, ModelParams, make_model, second_sheet
from .observables import (ModeAmplitudes, hhg_spectrum,
                          resonance_spatial_field,
                          survival_amplitude_complete,
                          survival_amplitude_floquet)
from .oracle import (DiscretizedSystem, SectorState, Trajectory, discretize,
                     evolve, photon_spectrum, spatial_field,
                     survival_probability)
from .perturbation import bessel_j, perturbative_eigenvalue
from .solver import (ResonanceState, SolverOptions, floquet_c_product,
                     resolvent_column, solve_resonance)

__all__ = [
    "__version__",
    "CompareSpec", "ComparisonReport", "compare",
    "RunConfig", "from_dict", "parse_config",
    "Dataset", "read_dataset", "write_dataset",
    "ConvergenceError",
    "TWO_PI", "ModelParams", "make_model", "second_sheet",
    "ModeAmplitudes", "hhg_spectrum",
    "resonance_spatial_field",
    "survival_amplitude_complete", "survival_amplitude_floquet",
    "DiscretizedSystem", "SectorState", "Trajectory", "discretize",
    "evolve", "photon_spectrum", "spatial_field", "survival_probability",
    "bessel_j", "perturbative_eigenvalue",
    "ResonanceState", "SolverOptions", "floquet_c_product",
    "resolvent_column", "solve_resonance",
]
