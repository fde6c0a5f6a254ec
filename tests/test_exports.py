from __future__ import annotations

import floquet_hhg


def test_every_public_name_imports():
    # a name left in __all__ after its definition is gone makes
    # ``from floquet_hhg import *`` raise
    namespace: dict = {}
    exec("from floquet_hhg import *", namespace)
    assert set(floquet_hhg.__all__) <= namespace.keys()


def test_benchmark_imports():
    # perfbench/workloads.py takes these names from the package; deleting
    # one breaks every benchmark run
    from floquet_hhg.cli import main
    from floquet_hhg.compare import CompareSpec
    from floquet_hhg.dataset import read_dataset
    from floquet_hhg.model import make_model
    from floquet_hhg.oracle import NORM_DRIFT_TOL
    from floquet_hhg.solver import (ROOT_TOL, SolverOptions,
                                    floquet_c_product, solve_resonance)

    assert all(map(callable, (main, read_dataset, make_model,
                              SolverOptions, floquet_c_product,
                              solve_resonance)))
    assert NORM_DRIFT_TOL > 0.0
    assert CompareSpec().peak_modes == 4
    # the pole-scatter check reads the bar of a verified pole from here
    assert SolverOptions().root_tol == ROOT_TOL
