"""Empirical path-regularity and stability studies at desk scale.

Each study measures a quantitative property of the solved system and, where
a rate is claimed, fits a log-log slope against the mesh or separation size:

* moments of Y increments against the separation (slope p/2),
* the mean-square distance between the control process and its best
  node-measurable piecewise approximation against the mesh (slope 1),
* the optimality of the conditional time-average among node-sampled
  approximations of the control,
* the scaling of solution perturbations with the size of terminal and driver
  perturbations, and the boundedness of the stability ratio,
* plain moment norms of the solution against the data functional.

Slope fits use unweighted least squares on log-log points; tolerance bands
are fixture-specific and live with the fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .regression import BasisSpec, DesignSolver, expand_features
from .solver import picard_solve

__all__ = [
    "RateReport",
    "PerturbationReport",
    "fit_loglog_slope",
    "separation_steps",
    "y_increment_rate",
    "coarse_control_error",
    "l2_regularity",
    "best_approx_check",
    "apriori_scaling",
    "moment_check",
]


@dataclass(frozen=True)
class RateReport:
    """Log-log rate fit of an error functional against mesh/separation sizes."""

    label: str
    sizes: tuple
    values: tuple
    slope: float
    intercept: float
    fit_residual: float
    target_slope: float
    tolerance: float

    @property
    def passed(self):
        return abs(self.slope - self.target_slope) <= self.tolerance


@dataclass(frozen=True)
class PerturbationReport:
    """Measured perturbation norms and stability ratios per scale."""

    epsilons: tuple
    s_norms: tuple
    h_norms_y: tuple
    h_norms_z: tuple
    rhs_terminal: tuple
    rhs_driver: tuple
    ratios: tuple


def fit_loglog_slope(sizes, values):
    sizes = np.asarray(sizes, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(sizes) < 3:
        raise ValueError("need at least three sizes for a rate fit")
    if np.any(values <= 0):
        raise ValueError("rate fit needs positive functional values")
    coeffs, residuals, *_ = np.polyfit(np.log(sizes), np.log(values), 1, full=True)
    resid = float(residuals[0]) if len(residuals) else 0.0
    return float(coeffs[0]), float(coeffs[1]), resid


def separation_steps(separations, dt, n):
    """Grid steps spanned by each separation on a uniform grid of n steps dt.

    Raises ValueError unless every separation is k * dt with 1 <= k <= n.
    """
    steps = []
    for sep in separations:
        k = int(round(sep / dt))
        if k < 1 or abs(k * dt - sep) > 1e-9 * max(1.0, n * dt):
            raise ValueError(f"separation {sep} is not a positive multiple of the grid step {dt}")
        if k > n:
            raise ValueError(f"separation {sep} exceeds the horizon {n * dt}")
        steps.append(k)
    return steps


def y_increment_rate(solution, p, separations, target_tol=0.3, label="y-increments"):
    """Moment of Y increments per separation, fitted against the separation.

    Separations must be multiples of the grid step no longer than the
    horizon; each moment averages over all node pairs at that separation and
    all paths.  Target slope p/2.
    """
    grid = solution.grid
    n = len(grid) - 1
    moments = []
    for k in separation_steps(separations, float(grid[1] - grid[0]), n):
        inc = solution.y[:, k:] - solution.y[:, : n + 1 - k]
        mags = np.sqrt(np.sum(inc**2, axis=-1))
        moments.append(float(np.mean(mags**p)))
    slope, intercept, resid = fit_loglog_slope(separations, moments)
    return RateReport(
        label=label,
        sizes=tuple(float(s) for s in separations),
        values=tuple(moments),
        slope=slope,
        intercept=intercept,
        fit_residual=resid,
        target_slope=p / 2.0,
        tolerance=target_tol,
    )


def _trapezoid_cell(dev_sq, cell_dt):
    """Time integral of a per-node squared deviation over one coarse cell.

    dev_sq: (M, stride + 1) squared deviations at the fine nodes of the cell.
    Trapezoid in the fine cells; expected squared deviations of diffusion-type
    controls are linear in time, so this removes the sampling bias a
    left-Riemann rule would leave at small strides.
    """
    mids = 0.5 * (dev_sq[:, :-1] + dev_sq[:, 1:])
    return np.tensordot(mids, cell_dt, axes=(1, 0))


def _coarse_projection(forward, z_ref, coarse_steps, basis):
    """Conditional time-averages of the reference control on a coarse mesh.

    Returns (z_bar (M, Nc, m, d), the mean-square deviation functional summed
    over the horizon, per-path functional values).
    """
    grid = forward.grid
    n_ref = len(grid) - 1
    if n_ref % coarse_steps:
        raise ValueError(f"coarse mesh {coarse_steps} does not divide the reference mesh {n_ref}")
    stride = n_ref // coarse_steps
    dt_ref = np.diff(grid)
    m_paths = z_ref.shape[0]
    per_path = np.zeros(m_paths)
    z_bar = np.zeros((m_paths, coarse_steps, *z_ref.shape[2:]))
    for i in range(coarse_steps):
        lo, hi = i * stride, (i + 1) * stride
        cell_dt = dt_ref[lo:hi]
        mids = 0.5 * (z_ref[:, lo:hi] + z_ref[:, lo + 1 : hi + 1])
        avg = np.tensordot(cell_dt, mids, axes=(0, 1)) / np.sum(cell_dt)
        feats = forward.x[:, lo]
        solver = DesignSolver(expand_features(feats, basis.degree), basis.ridge)
        coeff = solver.solve(avg.reshape(m_paths, -1))
        z_bar[:, i] = solver.fitted(coeff).reshape(avg.shape)
        dev = z_ref[:, lo : hi + 1] - z_bar[:, i][:, None]
        per_path += _trapezoid_cell(np.sum(dev**2, axis=(-2, -1)), cell_dt)
    return z_bar, float(np.mean(per_path)), per_path


def coarse_control_error(forward, z_ref, coarse_steps, basis=None):
    """Mean-square deviation of the control from its coarse-mesh projection."""
    basis = basis or BasisSpec()
    return _coarse_projection(forward, z_ref, coarse_steps, basis)[1]


def l2_regularity(forward, z_ref, coarse_meshes, basis=None,
                  target_tol=0.3, label="control-regularity"):
    """Mean-square functional of the control against its coarse projections.

    For each coarse mesh, the node value is the regression estimate of the
    conditional cell average of the reference control (computed on the fine
    grid); the functional sums the expected squared deviation over the
    horizon.  Target slope 1 in the mesh size.
    """
    basis = basis or BasisSpec()
    horizon = float(forward.grid[-1])
    values = [
        _coarse_projection(forward, z_ref, nc, basis)[1] for nc in coarse_meshes
    ]
    sizes = [horizon / nc for nc in coarse_meshes]
    slope, intercept, resid = fit_loglog_slope(sizes, values)
    return RateReport(
        label=label,
        sizes=tuple(sizes),
        values=tuple(values),
        slope=slope,
        intercept=intercept,
        fit_residual=resid,
        target_slope=1.0,
        tolerance=target_tol,
    )


def best_approx_check(forward, z_ref, coarse_steps, basis=None):
    """Conditional time-average versus node sampling as control approximations.

    Verifies that the regression estimate of the conditional cell average
    beats (up to statistical tolerance) the piecewise-constant interpolation
    of node samples in the mean-square sense.
    """
    basis = basis or BasisSpec()
    grid = forward.grid
    n_ref = len(grid) - 1
    stride = n_ref // coarse_steps
    dt_ref = np.diff(grid)
    _, e_bar, per_path_bar = _coarse_projection(forward, z_ref, coarse_steps, basis)
    m_paths = z_ref.shape[0]
    per_path_node = np.zeros(m_paths)
    for i in range(coarse_steps):
        lo, hi = i * stride, (i + 1) * stride
        dev = z_ref[:, lo : hi + 1] - z_ref[:, lo][:, None]
        per_path_node += _trapezoid_cell(np.sum(dev**2, axis=(-2, -1)), dt_ref[lo:hi])
    e_node = float(np.mean(per_path_node))
    gap = per_path_bar - per_path_node
    se = float(np.std(gap, ddof=1) / np.sqrt(m_paths))
    slack = 3.0 * se + 1e-12 * max(1.0, e_node)
    return {
        "avg_error": e_bar,
        "node_error": e_node,
        "se": se,
        "passed": bool(e_bar <= e_node + slack),
    }


def _weighted_norms(grid, beta, dy, dz, p):
    """Discrete weighted norms: sup-norm of Y, time-integral norms of Y and Z."""
    dt = np.diff(grid)
    w = np.exp(beta * grid)
    sup_y = np.max(w[None, :] * np.sum(dy**2, axis=-1), axis=1)
    s_norm = float(np.mean(sup_y ** (p / 2.0)))
    int_y = np.tensordot(w[:-1] * dt, np.sum(dy[:, :-1] ** 2, axis=-1), axes=(0, 1))
    h_norm_y = float(np.mean(int_y ** (p / 2.0)))
    int_z = np.tensordot(w[:-1] * dt, np.sum(dz[:, :-1] ** 2, axis=(-2, -1)), axes=(0, 1))
    h_norm_z = float(np.mean(int_z ** (p / 2.0)))
    return s_norm, h_norm_y, h_norm_z


def apriori_scaling(problem, forward, epsilons, terminal_shift=1.0, driver_shift=1.0,
                    basis=None, max_sweeps=8, tol=1e-4, p=2.0):
    """Scaling of solution perturbations with the perturbation size.

    The terminal payoff is shifted by eps * terminal_shift and the driver by
    the constant eps * driver_shift; all solves share the forward bundle, so
    measured norms isolate the response.  The regression basis defaults to
    state features only, keeping the projection identical across scales.
    """
    basis = basis or BasisSpec(features=("x",))
    base = picard_solve(problem, forward, basis, max_sweeps, tol)
    beta = problem.beta
    grid = forward.grid
    dt = np.diff(grid)
    s_norms, h_y, h_z, rhs_t, rhs_f, ratios = [], [], [], [], [], []
    for eps in epsilons:
        shifted = replace(
            problem,
            terminal=_shift_terminal(problem.terminal, eps * terminal_shift),
            driver=_shift_driver(problem.driver, eps * driver_shift),
        )
        sol = picard_solve(shifted, forward, basis, max_sweeps, tol)
        dy = sol.y - base.y
        dz = sol.z - base.z
        s_n, h_n_y, h_n_z = _weighted_norms(grid, beta, dy, dz, p)
        term = float(np.mean(
            (np.exp(beta * grid[-1]) * np.sum(dy[:, -1] ** 2, axis=-1)) ** (p / 2.0)
        ))
        dfs = eps * driver_shift
        drv = float(np.sum(np.exp(beta * grid[:-1]) * dt * dfs**2) ** (p / 2.0))
        lhs = s_n + h_n_y + h_n_z
        rhs = term + drv
        s_norms.append(s_n)
        h_y.append(h_n_y)
        h_z.append(h_n_z)
        rhs_t.append(term)
        rhs_f.append(drv)
        ratios.append(lhs / rhs if rhs > 0 else float("inf"))
    return PerturbationReport(
        epsilons=tuple(float(e) for e in epsilons),
        s_norms=tuple(s_norms),
        h_norms_y=tuple(h_y),
        h_norms_z=tuple(h_z),
        rhs_terminal=tuple(rhs_t),
        rhs_driver=tuple(rhs_f),
        ratios=tuple(ratios),
    )


def _shift_terminal(terminal, offset):
    base_value = terminal.value

    def value(x):
        return base_value(x) + offset

    return replace(terminal, name=f"{terminal.name}+const", value=value)


def _shift_driver(driver, offset):
    base_value = driver.value

    def value(t, xdel, ydel, zdel):
        return base_value(t, xdel, ydel, zdel) + offset

    return replace(driver, name=f"{driver.name}+const", value=value)


def moment_check(problem, forward, solution, p=None, cp=None):
    """Moment norms of the solution against the data functional.

    Reports the weighted sup and time-integral norms of (Y, Z), the data
    functional built from the terminal value and the driver at the zero
    state (like the terminal term, raised to the power p/2, so the ratio
    does not change when the data are scaled), and their ratio.  When a
    finite a priori constant is supplied the bound lhs <= cp * rhs is
    asserted in the report.
    """
    p = p or problem.p
    beta = problem.beta
    grid = forward.grid
    dt = np.diff(grid)
    s_n, h_y, h_z = _weighted_norms(grid, beta, solution.y, solution.z, p)
    lhs = s_n + h_y + h_z
    term = float(np.mean(
        (np.exp(beta * grid[-1]) * np.sum(solution.y[:, -1] ** 2, axis=-1)) ** (p / 2.0)
    ))
    n, dim_x, dim_y = len(dt), problem.dim_x, problem.dim_y
    f0 = problem.driver.value(grid[:-1], np.zeros((n, dim_x)), np.zeros((n, dim_y)),
                              np.zeros((n, dim_y, dim_x)))
    drv = float(np.dot(np.exp(beta * grid[:-1]) * dt, np.sum(f0**2, axis=-1)) ** (p / 2.0))
    rhs = term + drv
    report = {
        "s_norm_y": s_n,
        "h_norm_y": h_y,
        "h_norm_z": h_z,
        "lhs": lhs,
        "rhs_terminal": term,
        "rhs_driver": drv,
        "rhs": rhs,
        "ratio": lhs / rhs if rhs > 0 else float("inf") if lhs > 0 else 0.0,
        "finite": bool(np.isfinite(lhs) and np.isfinite(rhs)),
    }
    if cp is not None and np.isfinite(cp):
        report["bounded_by_cp"] = bool(lhs <= cp * rhs)
    return report
