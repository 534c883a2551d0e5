"""The benchmark's span tracer must find every name it instruments.

bench/tracing.py rebinds public delaybsde names by module and attribute; a
renamed or moved name would silently drop out of the per-layer metrics.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from delaybsde import forward as forward_module
from delaybsde import solver
from delaybsde.forward import make_forward, simulate_forward
from delaybsde.generators import make_driver, make_terminal
from delaybsde.measures import DelayMeasure

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("home, attr, name", _load_tracing().TARGETS)
def test_target_resolves(home, attr, name):
    assert callable(getattr(importlib.import_module(home), attr, None)), f"{home}.{attr}"


@pytest.mark.parametrize("attr", ["make_driver", "make_terminal"])
def test_factory_resolves(attr):
    assert callable(getattr(importlib.import_module("delaybsde.config"), attr, None))


def test_install_reports_nothing_missing():
    import delaybsde.cli  # noqa: F401  (binds every traced name in the CLI)

    tracer = _load_tracing().Tracer(rep=0)
    try:
        assert tracer.install() == []
    finally:
        tracer.restore()


def test_traced_solve_reports_regression_metrics():
    problem = solver.DelayFbsdeProblem(
        horizon=0.5, dim_x=1, dim_y=1, x0=[0.0], forward=make_forward("brownian"),
        driver=make_driver("linear_zdel", {"coeff": 0.1, "lipschitz": 0.1}),
        terminal=make_terminal("identity"), alpha_x=DelayMeasure(0.5),
        alpha_y=DelayMeasure(0.5), alpha_z=DelayMeasure(0.5, atoms=((-0.25, 1.0),)),
    )
    forward = simulate_forward(problem.forward, problem.x0, np.linspace(0.0, 0.5, 9), 400, 1)
    tracer = _load_tracing().Tracer(rep=0)
    try:
        assert tracer.install() == []
        solver.picard_solve(problem, forward, max_sweeps=2)
    finally:
        tracer.restore()
    metrics = tracer.layer_metrics()
    assert metrics["regression.fits"] > 0
    assert isinstance(metrics["regression.max_condition"], float)
    assert metrics["regression.max_condition"] > 1.0


def test_traced_simulation_reports_bundle_bytes():
    # the bundle probe reads the derived inverse flow, so it must still resolve
    coeffs = make_forward("gbm", {"mu": 0.1, "nu": 0.3})
    tracer = _load_tracing().Tracer(rep=0)
    try:
        assert tracer.install() == []
        bundle = forward_module.simulate_forward(coeffs, [1.0], np.linspace(0.0, 0.5, 9), 50, 2)
    finally:
        tracer.restore()
    arrays = (bundle.dw, bundle.x, bundle.grad_x, np.linalg.inv(bundle.grad_x))
    metrics = tracer.layer_metrics()
    assert metrics["forward.calls"] == 1
    assert metrics["forward.bundle_mb"] == sum(a.nbytes for a in arrays) / 1e6


def test_traced_derivative_solve_reports_solver_metrics():
    # the solve probe must read the Jacobian bundle of a 2-d state
    zero = DelayMeasure(0.5)
    problem = solver.DelayFbsdeProblem(
        horizon=0.5, dim_x=2, dim_y=1, x0=[0.2, -0.1], forward=make_forward("brownian", {}, 2),
        driver=make_driver("zero", {}, 2, 1), terminal=make_terminal("quadratic", {}, 2, 1),
        alpha_x=zero, alpha_y=zero, alpha_z=zero,
    )
    forward = simulate_forward(problem.forward, problem.x0, np.linspace(0.0, 0.5, 9), 400, 1)
    base = solver.picard_solve(problem, forward, max_sweeps=2)
    tracer = _load_tracing().Tracer(rep=0)
    try:
        assert tracer.install() == []
        solver.variational_solve(problem, forward, base, max_sweeps=2)
    finally:
        tracer.restore()
    metrics = tracer.layer_metrics()
    for name in ("solver.sweeps", "solver.conv_gflop"):
        assert np.isfinite(metrics[name]) and metrics[name] > 0
