from __future__ import annotations

import json

import floquet_hhg


def test_every_public_name_imports():
    # a name left in __all__ after its definition is gone makes
    # ``from floquet_hhg import *`` raise
    namespace: dict = {}
    exec("from floquet_hhg import *", namespace)
    assert set(floquet_hhg.__all__) <= namespace.keys()


def test_benchmark_shims_leave_the_api():
    # the four names perfbench/workloads.py alone imports are no API, and
    # make_model is ModelParams itself, so no second default can drift
    from floquet_hhg.model import ModelParams, make_model

    shims = {"make_model", "SolverOptions", "CompareSpec",
             "floquet_c_product"}
    namespace: dict = {}
    exec("from floquet_hhg import *", namespace)
    assert shims.isdisjoint(floquet_hhg.__all__)
    assert shims.isdisjoint(namespace)
    assert make_model is ModelParams


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


def test_benchmark_option_shims():
    # SolverOptions holds no options of its own, only the bar of a
    # verified pole that the pole-scatter check reads
    from floquet_hhg.solver import ROOT_TOL, SolverOptions

    assert vars(SolverOptions()) == {}
    assert SolverOptions().root_tol == ROOT_TOL


def test_benchmark_tracer_names():
    # perfbench/tracing.py wraps these functions where floquet_hhg.cli
    # binds them; a name cli no longer binds leaves its per-layer metric
    # reading 0 on working code
    from floquet_hhg import cli

    names = ("solve_resonance", "hhg_spectrum", "resonance_spatial_field",
             "survival_amplitude_floquet", "discretize", "evolve",
             "photon_spectrum", "spatial_field", "compare", "write_dataset",
             "from_dict", "apply_overrides")
    assert [name for name in names
            if not callable(getattr(cli, name, None))] == []


def test_benchmark_tracer_reads():
    # perfbench/tracing.py reads these fields and properties off the
    # results of solve_resonance, evolve and compare on a --trace 1 run;
    # one reshaped away fails the run
    import numpy as np

    from floquet_hhg.compare import compare
    from floquet_hhg.model import ModelParams
    from floquet_hhg.oracle import discretize, evolve
    from floquet_hhg.solver import solve_resonance

    params = ModelParams(1.0, 2.4, 1.2, 0.1)
    state = solve_resonance(params)
    assert state.iterations > 0 and state.cf_depth_used > 0
    system = discretize(params, box_length=100.0, n_modes=2048)
    assert system.box_length == 100.0 and system.n_retained > 0
    traj = evolve(system, t_end=1.0)
    assert round(traj.final.t / traj.dt) == 100
    assert 0.0 <= traj.norm_drift < 1e-8
    t = np.linspace(1.0, 5.0, 41)
    report = compare(state, survival=(t, np.exp(-t), np.exp(-t)))
    assert [check.passed for check in report.checks] == [True]


def test_benchmark_config_keys():
    # the oracle-validate configs hold exactly these keys; a config that
    # rejects one fails every benchmark run
    from floquet_hhg.config import parse_config

    keys = ("epsilon_d", "omega", "A_over_omega", "lambda", "t", "t_end",
            "box_length", "n_modes")
    values = (1.0, 1.2, 2.0, 0.05, 5.0, 5.0, 800.0, 16384)
    cfg = parse_config(json.dumps(dict(zip(keys, values))))
    assert {key: cfg.to_dict()[key] for key in keys} == dict(zip(keys, values))
