"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines.  Statistical criteria use the fixed seeds pinned here; every
tolerance is written next to its assertion.
"""

import json

import numpy as np
import pytest

from identity_utils import exact_sides, riemann_sides

from conftest import (
    HORIZON,
    SEED,
    build_problem,
    delay_control_problem,
    quadratic_problem,
)
from delaybsde.cli import main as cli_main
from delaybsde.constants import StructuralParams, bdg_constant, constants_report
from delaybsde.forward import simulate_forward
from delaybsde.generators import make_driver, make_terminal
from delaybsde.measures import DelayMeasure
from delaybsde.regression import BasisSpec
from delaybsde.regularity import (
    apriori_scaling,
    best_approx_check,
    coarse_control_error,
    l2_regularity,
    y_increment_rate,
)
from delaybsde.solver import fd_directional_check


def verdict(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- 1: integration-order interchange ---------------------------------------

def test_criterion_01_interchange_identity():
    rng = np.random.default_rng(17)
    n = 160
    grid = np.linspace(0.0, 1.0, n + 1)
    worst_atoms = 0.0
    for _ in range(10):
        lags = rng.choice(np.arange(1, n), size=3, replace=False)
        measure = DelayMeasure(1.0, atoms=tuple((-grid[j], rng.uniform(0.1, 2.0)) for j in lags))
        values = rng.normal(size=n + 1)
        for t_idx in (0, n // 8, n // 2):
            for k in (1, 2):
                lhs, rhs = riemann_sides(measure, grid, values, t_idx, k)
                if abs(lhs) > 1e-12:
                    worst_atoms = max(worst_atoms, abs(lhs - rhs) / abs(lhs))
    worst_density = 0.0
    for _ in range(10):
        j1, j2 = sorted(rng.choice(np.arange(0, n), size=2, replace=False))
        if j1 == j2:
            continue
        measure = DelayMeasure(
            1.0, density_pieces=((grid[j1] - 1.0, grid[j2] - 1.0, rng.uniform(0.2, 2.0)),)
        )
        values = rng.normal(size=n + 1)
        for t_idx in (0, n // 8, n // 2):
            for k in (1, 2):
                lhs, rhs = exact_sides(measure, grid, values, t_idx, k)
                if abs(lhs) > 1e-12:
                    worst_density = max(worst_density, abs(lhs - rhs) / abs(lhs))
    ok = worst_atoms <= 1e-10 and worst_density <= 1e-6
    verdict(1, ok, f"atom rel err {worst_atoms:.2e} (<=1e-10), "
                   f"density rel err {worst_density:.2e} (<=1e-6, N=160)")


# -- 2: constants limits and monotonicity ------------------------------------

def params_k(k, p=4.0, beta=1.0, gamma=0.5):
    measure = DelayMeasure(0.5, atoms=((-0.25, 1.0),))
    return StructuralParams(lipschitz=k, horizon=0.5, p=p, dim_y=1,
                            alpha_y=measure, alpha_z=measure, beta=beta, gamma=gamma)


def test_criterion_02_constants_limits_and_monotonicity():
    rep = constants_report(params_k(0.0, beta=2.0, gamma=0.75))
    exact = rep.d1 == 2.0 - 0.75 and rep.d2 == 1.0 and rep.d3 == 1.0
    ks = np.linspace(0.0, 8e-6, 20)
    d1s, d2s, d3s, l2s, lps = [], [], [], [], []
    for k in ks:
        rep = constants_report(params_k(float(k)))
        d1s.append(rep.d1)
        d2s.append(rep.d2)
        d3s.append(rep.d3)
        l2s.append(max(rep.l2_lhs_y, rep.l2_lhs_z))
        lps.append(max(rep.lp_lhs_y, rep.lp_lhs_z))
    monotone = (
        all(np.diff(d1s) <= 1e-15)
        and all(np.diff(d2s) <= 1e-15)
        and all(np.diff(d3s) <= 1e-15)
        and all(np.diff(l2s) >= -1e-15)
        and all(np.diff(lps) >= -1e-15)
    )
    verdict(2, exact and monotone,
            f"zero-lipschitz limits exact={exact}, 20-point monotonicity={monotone}")


# -- 3: Burkholder-type constant spot values ---------------------------------

def test_criterion_03_bdg_spot_values():
    v1 = bdg_constant(4, 1)
    v2 = bdg_constant(4, 2)
    ok = abs(v1 - 359.594) <= 1e-3 and abs(v2 - 2876.75) <= 1e-2
    verdict(3, ok, f"p=4,m=1 -> {v1:.6f} (359.594 +- 0.001); "
                   f"p=4,m=2 -> {v2:.5f} (2876.75 +- 0.01)")


# -- 4: the quadratic-norm existence condition fixture -----------------------

def test_criterion_04_existence_condition_fixture():
    rep = constants_report(params_k(0.1, p=2.0))
    lhs_y, lhs_z, feasible = rep.l2_lhs_y, rep.l2_lhs_z, rep.feasible_l2
    ok = abs(lhs_y - 0.642) <= 1e-3 and abs(lhs_z - 0.642) <= 1e-3 and feasible
    verdict(4, ok, f"lhs = {lhs_y:.6f} (0.642 +- 0.001), feasible={feasible}")


# -- 5: martingale baseline ---------------------------------------------------

def test_criterion_05_martingale_baseline(martingale_run):
    fwd, sol = martingale_run["forward"], martingale_run["solution"]
    rms = np.sqrt(np.mean((sol.y[:, :, 0] - fwd.x[:, :, 0]) ** 2, axis=0))
    z_mean = sol.z[:, 1:-1, 0, 0].mean(axis=0)
    ok = rms.max() < 0.05 and z_mean.min() > 0.9 and z_mean.max() < 1.1
    verdict(5, ok, f"max node RMS |Y-W| = {rms.max():.4f} (<0.05); "
                   f"node mean Z in [{z_mean.min():.3f}, {z_mean.max():.3f}] (within [0.9,1.1])")


# -- 6: delayed-control fixture ----------------------------------------------

def test_criterion_06_delay_control_fixture(delay_control_run):
    sol = delay_control_run["solution"]
    y0 = float(sol.y[:, 0].mean())
    z_mean = sol.z[:, 1:-1, 0, 0].mean(axis=0)
    diffs = [max(dy, dz) for dy, dz in zip(sol.diffs_y, sol.diffs_z)]
    ratios = [diffs[k] / diffs[k - 1] for k in range(2, len(diffs))]
    contracting = all(r < 1.0 for r in ratios)
    ok = (
        abs(y0 - 0.025) <= 0.01
        and z_mean.min() > 0.9
        and z_mean.max() < 1.1
        and contracting
        and sol.feasibility["l2"]
    )
    verdict(6, ok, f"Y0 = {y0:.4f} (0.025 +- 0.01); node mean Z in "
                   f"[{z_mean.min():.3f}, {z_mean.max():.3f}]; "
                   f"post-sweep-2 ratios {['%.3f' % r for r in ratios]} all <1")


# -- 7: deterministic delayed-value fixture -----------------------------------

def backward_quadrature_oracle(c=0.1, lag=0.25, n=4000):
    """Fixed point of the deterministic delayed integral equation.

    The lagged integrand reads values assigned only later in a backward pass,
    so the quadrature is iterated to convergence instead of swept once.
    """
    dt = HORIZON / n
    shift = int(round(lag / dt))
    y = np.ones(n + 1)
    for _ in range(200):
        prev = y
        y = np.ones(n + 1)
        for i in range(n - 1, -1, -1):
            j = i - shift
            y[i] = y[i + 1] + c * dt * (prev[j] if j >= 0 else 0.0)
        if np.max(np.abs(y - prev)) < 1e-13:
            break
    return y[0]


def test_criterion_07_delay_value_fixture(delay_value_run):
    sol = delay_value_run["solution"]
    y0 = float(sol.y[:, 0].mean())
    z_rms = float(np.sqrt((sol.z**2).mean()))
    fixed_point = 1.0 / 0.975
    oracle = backward_quadrature_oracle()
    ok = (
        abs(y0 - 1.025641) <= 2e-3
        and abs(y0 - oracle) <= 2e-3
        and z_rms < 0.02
    )
    verdict(7, ok, f"Y0 = {y0:.7f} (fixed point {fixed_point:.7f}, "
                   f"quadrature oracle {oracle:.7f}, +-0.002); Z RMS = {z_rms:.2e} (<0.02)")


# -- 8: flow representation of the control ------------------------------------

def interior_relative_distance(run):
    sol, z_rep = run["solution"], run["z_rep"]
    worst = 0.0
    n = sol.z.shape[1] - 1
    for i in range(1, n):
        num = float(np.sqrt(np.mean((sol.z[:, i] - z_rep[:, i]) ** 2)))
        den = float(np.sqrt(np.mean(z_rep[:, i] ** 2)))
        rel = num / den if den > 1e-8 else num
        worst = max(worst, rel)
    return worst


def test_criterion_08_representation_formula(martingale_run, delay_control_run,
                                             delay_value_run):
    dists = {
        "martingale": interior_relative_distance(martingale_run),
        "delay-control": interior_relative_distance(delay_control_run),
        "delay-value": interior_relative_distance(delay_value_run),
    }
    ok = all(v <= 0.10 for v in dists.values())
    detail = ", ".join(f"{k}: {v:.3f}" for k, v in dists.items())
    verdict(8, ok, f"max interior relative distance (<=0.10): {detail}")


# -- 9: difference quotients versus the directional solve ---------------------

def test_criterion_09_fd_versus_variational():
    report = fd_directional_check(
        quadratic_problem(), [1.0], [0.25, 0.125],
        n_paths=10_000, n_steps=20, seed=SEED,
    )
    err25, err125 = report.errors
    se125 = report.block_ses[1]
    halving = err125 <= 0.5 * err25 + 3.0 * se125 + 1e-9
    at_floor = report.richardson_error <= report.noise_floor + 3.0 * report.noise_floor_se
    ok = halving and at_floor
    verdict(9, ok, f"err(0.125)={err125:.5f} <= 0.5*err(0.25)={0.5 * err25:.5f} (+3se); "
                   f"bias-corrected err {report.richardson_error:.2e} <= "
                   f"noise floor {report.noise_floor:.2e} + 3se")


# -- 10: increment moment rates ------------------------------------------------

@pytest.fixture(scope="module")
def increment_solution():
    prob = build_problem(make_driver("zero"), make_terminal("identity"))
    grid = np.linspace(0.0, HORIZON, 41)
    fwd = simulate_forward(prob.forward, prob.x0, grid, 20_000, SEED)
    from delaybsde.solver import picard_solve

    return picard_solve(prob, fwd, BasisSpec(), 4, 1e-4)


def test_criterion_10_increment_rates(increment_solution):
    seps = [HORIZON / 40, HORIZON / 20, HORIZON / 10, HORIZON / 5]
    rep2 = y_increment_rate(increment_solution, 2.0, seps, target_tol=0.15)
    rep4 = y_increment_rate(increment_solution, 4.0, seps, target_tol=0.3)
    ok = rep2.passed and rep4.passed
    verdict(10, ok, f"p=2 slope {rep2.slope:.3f} (1.0 +- 0.15); "
                    f"p=4 slope {rep4.slope:.3f} (2.0 +- 0.3)")


# -- 11: control mean-square regularity ----------------------------------------

def test_criterion_11_control_regularity(quadratic_reference, delay_control_reference):
    fwd_q, z_q = quadratic_reference["forward"], quadratic_reference["z_rep"]
    report = l2_regularity(fwd_q, z_q, [10, 20, 40, 80], BasisSpec(), target_tol=0.3)
    fwd_c, z_c = delay_control_reference["forward"], delay_control_reference["z_rep"]
    const_vals = [coarse_control_error(fwd_c, z_c, nc, BasisSpec()) for nc in (10, 20, 40, 80)]
    ok = report.passed and max(const_vals) < 1e-3
    verdict(11, ok, f"slope {report.slope:.3f} (1.0 +- 0.3); constant-control functional "
                    f"max {max(const_vals):.2e} (<1e-3)")


# -- 12: conditional time-average is the best node approximation ----------------

def test_criterion_12_best_approximation(quadratic_reference, delay_control_reference,
                                         delay_value_reference):
    results = {}
    for name, run in (
        ("quadratic", quadratic_reference),
        ("delay-control", delay_control_reference),
        ("delay-value", delay_value_reference),
    ):
        out = best_approx_check(run["forward"], run["z_rep"], 10, BasisSpec())
        results[name] = out
    ok = all(v["passed"] for v in results.values())
    detail = ", ".join(
        f"{k}: avg {v['avg_error']:.2e} vs node {v['node_error']:.2e}"
        for k, v in results.items()
    )
    verdict(12, ok, detail)


# -- 13: perturbation scaling ----------------------------------------------------

def test_criterion_13_apriori_scaling():
    prob = delay_control_problem()
    grid = np.linspace(0.0, HORIZON, 21)
    fwd = simulate_forward(prob.forward, prob.x0, grid, 10_000, SEED)
    report = apriori_scaling(prob, fwd, [0.4, 0.2, 0.1])
    lhs = [s + hy + hz for s, hy, hz in
           zip(report.s_norms, report.h_norms_y, report.h_norms_z)]
    quarters = [lhs[k] / lhs[k + 1] for k in range(2)]
    scaling_ok = all(abs(q - 4.0) <= 0.8 for q in quarters)
    spread = (max(report.ratios) - min(report.ratios)) / min(report.ratios)
    ok = scaling_ok and spread < 0.25
    verdict(13, ok, f"halving ratios {['%.3f' % q for q in quarters]} (4.0 +- 0.8); "
                    f"stability-ratio spread {spread:.2%} (<25%)")


# -- 14: determinism --------------------------------------------------------------

def test_criterion_14_byte_identical_reruns(tmp_path):
    cfg = {
        "horizon": 0.5,
        "seed": 5,
        "forward": {"preset": "brownian", "x0": [0.0]},
        "generator": {"preset": "linear_zdel", "coeff": 0.1, "lipschitz": 0.1},
        "terminal": {"preset": "identity"},
        "delays": {"alpha_z": [{"atom": [-0.25, 1.0]}]},
        "solver": {"paths": 800, "steps": 10, "picard": 4, "tol": 1e-3},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli_main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out)
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("solution.csv", "diagnostics.csv", "manifest.json")
    )
    verdict(14, identical, "solve reruns byte-identical across solution.csv, "
                           "diagnostics.csv, manifest.json")
