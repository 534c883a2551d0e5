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

import math
from dataclasses import dataclass, replace

import numpy as np

from .regression import BasisSpec, DesignSolver, expand_features
from .solver import picard_solve

__all__ = [
    "STATE_BASIS",
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


# Default basis of apriori_scaling: state features only, so the projection
# is the same at every perturbation scale.
STATE_BASIS = BasisSpec(features=("x",))


@dataclass(frozen=True)
class RateReport:
    """Log-log rate fit of an error functional against mesh/separation sizes.

    measured is False when the functionals sit at rounding level, so that
    there is no rate to fit; slope, intercept and fit_residual are then nan
    and the report does not pass.  scale is what that rule compares the
    functionals with (nan where no such rule applies).
    """

    sizes: tuple
    values: tuple
    slope: float
    intercept: float
    fit_residual: float
    target_slope: float
    tolerance: float
    measured: bool = True
    scale: float = float("nan")

    @property
    def passed(self):
        return abs(self.slope - self.target_slope) <= self.tolerance


@dataclass(frozen=True)
class PerturbationReport:
    """Measured perturbation norms and stability ratios per scale.

    solves holds the SolveStatus of the base solve and of each shifted solve.
    """

    epsilons: tuple
    s_norms: tuple
    h_norms_y: tuple
    h_norms_z: tuple
    rhs_terminal: tuple
    rhs_driver: tuple
    ratios: tuple
    solves: tuple


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


def y_increment_rate(solution, p, separations, target_tol=0.3):
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
        sizes=tuple(float(s) for s in separations),
        values=tuple(moments),
        slope=slope,
        intercept=intercept,
        fit_residual=resid,
        target_slope=p / 2.0,
        tolerance=target_tol,
    )


def _cell_deviation(z_ref, centers, cell_dt):
    """Per-path time integral of |z_ref - center|^2 over every coarse cell.

    z_ref: (M, N+1, m, d); centers: one value per coarse cell and path,
    (Nc, M, m, d); cell_dt: fine steps per cell, (Nc, stride).  Trapezoid in
    the fine cells; expected squared deviations of diffusion-type controls
    are linear in time, so this removes the sampling bias a left-Riemann rule
    would leave at small strides.  The cells are added in time order.
    """
    n_cells, stride = cell_dt.shape
    nodes = np.arange(n_cells)[:, None] * stride + np.arange(stride + 1)
    dev = np.moveaxis(z_ref[:, nodes], 0, 1) - centers[:, :, None]
    dev_sq = np.sum(dev**2, axis=(-2, -1))
    mids = np.ascontiguousarray(0.5 * (dev_sq[..., :-1] + dev_sq[..., 1:]))
    return np.sum((mids @ cell_dt[..., None])[..., 0], axis=0)


def _coarse_projection(forward, z_ref, coarse_steps, basis):
    """Conditional time-averages of the reference control on a coarse mesh.

    The cell averages are regressed on the state at each cell's left node.
    The first cell starts at node 0, where every path sits at x0, so its fit
    is the intercept alone; the other cells run in one stacked fit.  Returns
    (the mean-square deviation functional summed over the horizon, per-path
    functional values).
    """
    grid = forward.grid
    n_ref = len(grid) - 1
    if n_ref % coarse_steps:
        raise ValueError(f"coarse mesh {coarse_steps} does not divide the reference mesh {n_ref}")
    stride = n_ref // coarse_steps
    cell_dt = np.diff(grid).reshape(coarse_steps, stride)
    m_paths = z_ref.shape[0]
    mids = 0.5 * (z_ref[:, :-1] + z_ref[:, 1:])
    mids = np.moveaxis(mids, 1, 0).reshape(coarse_steps, stride, -1)
    avg = (cell_dt[:, None, :] @ mids) / np.sum(cell_dt, axis=1)[:, None, None]
    feats = np.moveaxis(forward.x[:, :n_ref:stride], 1, 0)
    targets = avg.reshape(coarse_steps, m_paths, -1)
    z_bar = np.empty_like(targets)
    # the first cell's design has no feature columns: the intercept alone
    for cells, cell_feats in ((slice(0, 1), feats[:1, :, :0]), (slice(1, None), feats[1:])):
        if len(cell_feats):
            solver = DesignSolver(expand_features(cell_feats, basis.degree), basis.ridge)
            z_bar[cells] = solver.fitted(solver.solve(targets[cells]))
    z_bar = z_bar.reshape(coarse_steps, m_paths, *z_ref.shape[2:])
    per_path = _cell_deviation(z_ref, z_bar, cell_dt)
    return float(np.mean(per_path)), per_path


def coarse_control_error(forward, z_ref, coarse_steps, basis=None):
    """Mean-square deviation of the control from its coarse-mesh projection."""
    basis = basis or BasisSpec()
    return _coarse_projection(forward, z_ref, coarse_steps, basis)[0]


# Relative size below which every functional of l2_regularity is rounding:
# the ridge alone moves a fitted constant by about 1e-8 of its size, 1e-16 of
# its square, while a diffusion-type control's functionals are 1e-4 to 1e-2
# of its mean square.
ROUNDING_LEVEL = 1e-12


def l2_regularity(forward, z_ref, coarse_meshes, basis=None, target_tol=0.3):
    """Mean-square functional of the control against its coarse projections.

    For each coarse mesh, the node value is the regression estimate of the
    conditional cell average of the reference control (computed on the fine
    grid); the functional sums the expected squared deviation over the
    horizon.  Target slope 1 in the mesh size.  The rate is not measured
    when every functional is at most ROUNDING_LEVEL times the reference
    control's own mean square over the horizon, as for a deterministic
    control.
    """
    basis = basis or BasisSpec()
    horizon = float(forward.grid[-1])
    values = [
        _coarse_projection(forward, z_ref, nc, basis)[0] for nc in coarse_meshes
    ]
    sizes = [horizon / nc for nc in coarse_meshes]
    zero = np.zeros((1, *z_ref[:, 0].shape))
    scale = float(np.mean(_cell_deviation(z_ref, zero, np.diff(forward.grid)[None])))
    measured = max(values) > ROUNDING_LEVEL * scale
    slope, intercept, resid = fit_loglog_slope(sizes, values) if measured else (math.nan,) * 3
    return RateReport(
        sizes=tuple(sizes),
        values=tuple(values),
        slope=slope,
        intercept=intercept,
        fit_residual=resid,
        target_slope=1.0,
        tolerance=target_tol,
        measured=measured,
        scale=scale,
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
    e_bar, per_path_bar = _coarse_projection(forward, z_ref, coarse_steps, basis)
    stride = n_ref // coarse_steps
    m_paths = z_ref.shape[0]
    left_nodes = np.moveaxis(z_ref[:, :n_ref:stride], 1, 0)
    per_path_node = _cell_deviation(z_ref, left_nodes,
                                    np.diff(grid).reshape(coarse_steps, stride))
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
    STATE_BASIS.
    """
    basis = basis or STATE_BASIS
    base = picard_solve(problem, forward, basis, max_sweeps, tol)
    solves = [base.status("base solve")]
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
        solves.append(sol.status(f"shifted solve at eps {eps}"))
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
        solves=tuple(solves),
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
