from __future__ import annotations

import numpy as np
import pytest

from floquet_hhg import ModelParams, solve_resonance


@pytest.fixture(scope="session")
def ref_params() -> ModelParams:
    return ModelParams(1.0, 2.4, 1.2, 0.1)


@pytest.fixture(scope="session")
def ref_state(ref_params):
    return solve_resonance(ref_params)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20260809)
