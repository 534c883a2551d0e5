"""Forward Picard solver for FBSDE whose driver reads delayed solution values.

The backward pair (Y, Z) is built by sweeps: starting from the zero iterate,
each sweep freezes the previous (Y, Z) inside the driver's delayed
convolutions and solves the resulting explicit equation node by node,

    Y_{t_i} <- E[ g(X_T) + sum_{j>=i} f(t_j, Theta_j) dt_j | F_{t_i} ],
    Z_{t_i} <- E[ (dW_i / dt_i) (g(X_T) + sum_{j>=i+1} f(t_j, Theta_j) dt_j)
                 | F_{t_i} ],

with every conditional expectation estimated by cross-sectional regression.
The control regression is evaluated in its tower form
(dW_i/dt_i)(Yhat_{i+1} - Yhat_i + f_i dt_i), which has the same conditional
expectation as the raw tail sum but removes the O(T/dt) variance of the
far-future noise; without it the control estimate drowns at desk-scale path
counts.

Delayed convolutions are discretized with shifted cell weights
m([t_j - t_i, t_{j+1} - t_i)), so that the node sum approximates the integral
of the path against the measure translated to current time, with nodes before
time 0 contributing zero.

The same sweep engine solves the linear backward equation satisfied by the
state-derivative pair (first-variation of Y and Z), whose coefficients are
the driver gradients frozen along the base solution.  Combining it with the
forward flow yields the control process through
Z_t = grad_Y_t (grad_X_t)^{-1} sigma(t, X_t).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .constants import StructuralParams, constants_report
from .forward import bundle_from_increments, simulate_forward
from .measures import DelayMeasure, cell_weights
from .regression import BasisSpec, DesignSolver, expand_features

__all__ = [
    "DelayFbsdeProblem",
    "SolutionBundle",
    "VariationalBundle",
    "FdReport",
    "picard_solve",
    "variational_solve",
    "representation_z",
    "fd_directional_check",
]


@dataclass(frozen=True)
class DelayFbsdeProblem:
    """Coefficients, delay measures and structural data of one problem."""

    horizon: float
    dim_x: int
    dim_y: int
    x0: np.ndarray
    forward: object
    driver: object
    terminal: object
    alpha_x: DelayMeasure
    alpha_y: DelayMeasure
    alpha_z: DelayMeasure
    p: float = 2.0
    beta: float = 1.0
    gamma: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        if self.x0.shape != (self.dim_x,):
            raise ValueError("x0 must be a dim_x vector")

    def with_x0(self, x0):
        return replace(self, x0=np.asarray(x0, dtype=float))

    def structural_params(self):
        return StructuralParams(
            lipschitz=self.driver.lipschitz,
            horizon=self.horizon,
            p=self.p,
            dim_y=self.dim_y,
            alpha_y=self.alpha_y,
            alpha_z=self.alpha_z,
            beta=self.beta,
            gamma=self.gamma,
        )


@dataclass(frozen=True)
class SolutionBundle:
    """Converged (or truncated) Picard output plus per-sweep diagnostics.

    y: (M, N+1, m); z: (M, N+1, m, d).  y at the last node equals the terminal
    payoff per path; z at the last node is zero by convention (no scheme term
    reads it).  diffs_* hold the max-node RMS change of each sweep.
    """

    grid: np.ndarray
    y: np.ndarray
    z: np.ndarray
    diffs_y: tuple
    diffs_z: tuple
    sweeps: int
    tol: float
    feasibility: dict | None = None

    @property
    def converged(self):
        """True when the last update fell below tol, False when cut off at max_sweeps."""
        return bool(self.diffs_y) and max(self.diffs_y[-1], self.diffs_z[-1]) < self.tol


@dataclass(frozen=True)
class VariationalBundle:
    """Directional state-derivative of the solution along direction h."""

    direction: np.ndarray
    grad_x_h: np.ndarray
    p: np.ndarray
    q: np.ndarray
    diffs_p: tuple
    diffs_q: tuple
    sweeps: int


def _convolve_nodes(weights, values):
    """Node-wise delayed convolution of per-path node values.

    weights: (N+1, N) cell weights; values: (M, N+1, ...).  Returns
    (M, N+1, ...) where entry i sums weights[i, j] * values[:, j].
    """
    if not weights.any():
        return np.zeros((values.shape[0], weights.shape[0], *values.shape[2:]))
    out = np.tensordot(weights, values[:, : weights.shape[1]], axes=(1, 1))
    return np.moveaxis(out, 0, 1)


@lru_cache(maxsize=16)
def _cached_weights(measure, grid_bytes):
    """Cell weights of a (frozen measure, grid bytes) pair, built once.

    The weights are a pure function of the key and are returned read-only,
    so every solve on the same grid can share them.
    """
    weights = cell_weights(measure, np.frombuffer(grid_bytes))
    weights.flags.writeable = False
    return weights


def _solve_setup(problem, forward, basis):
    """Cell weights, delayed forward state and regression features of one solve.

    Selected features with zero-mass delay measures are dropped: their
    convolutions vanish identically and would only burn basis size.  When
    none is left the state alone is used.
    """
    grid_bytes = np.asarray(forward.grid, dtype=float).tobytes()
    measures = (problem.alpha_x, problem.alpha_y, problem.alpha_z)
    wx, wy, wz = (_cached_weights(m, grid_bytes) for m in measures)
    xdel_all = _convolve_nodes(wx, forward.x)
    dropped = {name for name, m in zip(("xdel", "ydel", "zdel"), measures) if m.is_zero}
    features = [name for name in basis.features if name not in dropped] or ["x"]
    return wx, wy, wz, xdel_all, features


def _suffix_sums(terminal_vals, f_all, dt):
    """Tail sums g + sum_{j>=i} f_j dt_j per path and node, (M, N+1, m).

    Accumulates backward from the terminal node, adding in the same order as
    a node-by-node loop.
    """
    n = len(dt)
    suffix = np.empty((f_all.shape[0], n + 1, f_all.shape[2]))
    suffix[:, n] = terminal_vals
    np.multiply(f_all[:, :n], dt[None, :, None], out=suffix[:, :n])
    np.add.accumulate(suffix[:, ::-1], axis=1, out=suffix[:, ::-1])
    return suffix


def _run_sweeps(forward, terminal_vals, wy, wz, driver_all, xdel_all, features, basis,
                max_sweeps, tol):
    """Shared Picard engine for the base and the variational solves.

    wy, wz: cell weights of the delayed value and control convolutions;
    driver_all(ydel_all, zdel_all) -> per-node driver values (M, N+1, m), of
    which node N is never read;
    features: names of the regression features, read at each node from the
    state, xdel_all and the current sweep's convolutions.  Sweeps stop once
    the max-node RMS update of both components drops below tol.
    """
    grid, dw = forward.grid, forward.dw
    n = len(grid) - 1
    dt = np.diff(grid)
    m_paths, dim_y = terminal_vals.shape
    dim_ctrl = dw.shape[2]
    y = np.zeros((m_paths, n + 1, dim_y))
    z = np.zeros((m_paths, n + 1, dim_y, dim_ctrl))
    diffs_y, diffs_z = [], []
    sweeps = 0
    for _ in range(max_sweeps):
        ydel_all, zdel_all = _convolve_nodes(wy, y), _convolve_nodes(wz, z)
        f_all = driver_all(ydel_all, zdel_all)
        named = {"x": forward.x, "xdel": xdel_all, "ydel": ydel_all, "zdel": zdel_all}
        columns = [named[name] for name in features]
        suffix = _suffix_sums(terminal_vals, f_all, dt)
        y_new = np.zeros_like(y)
        z_new = np.zeros_like(z)
        y_new[:, n] = terminal_vals
        yhat_next = terminal_vals
        for i in range(n - 1, -1, -1):
            feats = np.concatenate([c[:, i].reshape(m_paths, -1) for c in columns], axis=1)
            try:
                solver = DesignSolver(expand_features(feats, basis.degree), basis.ridge)
            except ValueError as exc:
                raise ValueError(f"regression failed at node {i}, sweep {sweeps + 1}: {exc}") from exc
            coeff_y = solver.solve(suffix[:, i])
            y_i = solver.fitted(coeff_y)
            innovation = yhat_next - y_i + f_all[:, i] * dt[i]
            ctrl_target = innovation[:, :, None] * dw[:, i, None, :] / dt[i]
            coeff_z = solver.solve(ctrl_target.reshape(m_paths, -1))
            z_new[:, i] = solver.fitted(coeff_z).reshape(m_paths, dim_y, dim_ctrl)
            y_new[:, i] = y_i
            yhat_next = y_i
        with np.errstate(over="ignore", invalid="ignore"):
            diff_y = float(np.max(np.sqrt(np.mean(np.sum((y_new - y) ** 2, axis=-1), axis=0))))
            dz = np.sum((z_new - z) ** 2, axis=(-2, -1))
            diff_z = float(np.max(np.sqrt(np.mean(dz, axis=0))))
        y, z = y_new, z_new
        sweeps += 1
        diffs_y.append(diff_y)
        diffs_z.append(diff_z)
        if not (np.isfinite(diff_y) and np.isfinite(diff_z)):
            raise FloatingPointError(
                f"non-finite Picard update at sweep {sweeps}: "
                f"diff_y={diff_y}, diff_z={diff_z}"
            )
        if max(diff_y, diff_z) < tol:
            break
    return y, z, tuple(diffs_y), tuple(diffs_z), sweeps


def picard_solve(problem, forward, basis=None, max_sweeps=8, tol=1e-3):
    """Solve the delay FBSDE on the bundle's grid by forward Picard sweeps.

    Feasibility of the smallness conditions is advisory: the verdict is
    recorded on the bundle but an infeasible problem is still solved (the
    conditions are sufficient, not necessary).
    """
    basis = basis or BasisSpec()
    grid = forward.grid
    _, wy, wz, xdel_all, features = _solve_setup(problem, forward, basis)
    terminal_vals = problem.terminal.value(forward.x[:, -1])

    def driver_all(ydel_all, zdel_all):
        return problem.driver.value(grid, xdel_all, ydel_all, zdel_all)

    y, z, diffs_y, diffs_z, sweeps = _run_sweeps(
        forward, terminal_vals, wy, wz, driver_all, xdel_all, features, basis, max_sweeps, tol,
    )
    report = constants_report(problem.structural_params())
    feasibility = {
        "l2": report.feasible_l2,
        "energy": report.feasible_energy,
        "contraction": report.feasible_contraction,
        "l2_lhs_max": max(report.l2_lhs_y, report.l2_lhs_z),
    }
    return SolutionBundle(
        grid=grid, y=y, z=z, diffs_y=diffs_y, diffs_z=diffs_z,
        sweeps=sweeps, tol=tol, feasibility=feasibility,
    )


def variational_solve(problem, forward, base, h, basis=None, max_sweeps=8, tol=1e-3):
    """Directional derivative of (Y, Z) in the initial state, direction h.

    Solves, by the same sweep engine, the linear delay BSDE with terminal
    grad_g(X_T) grad_X_T h and driver
    <grad f(t, Theta_base(t)), (conv(grad_X h), pdel, qdel)>, where the base
    solution stays frozen inside the gradient coefficients.
    """
    basis = basis or BasisSpec()
    h = np.asarray(h, dtype=float)
    wx, wy, wz, xdel_all, features = _solve_setup(problem, forward, basis)
    ydel_base = _convolve_nodes(wy, base.y)
    zdel_base = _convolve_nodes(wz, base.z)
    grad_x_h = np.einsum("pijk,k->pij", forward.grad_x, h)
    xdel_dir = _convolve_nodes(wx, grad_x_h)

    driver = problem.driver
    args = (forward.grid, xdel_all, ydel_base, zdel_base)
    const_all = np.einsum("pjmd,pjd->pjm", driver.grad_x(*args), xdel_dir)
    grad_y_all = driver.grad_y(*args)
    grad_z_all = driver.grad_z(*args)

    terminal_vals = np.einsum(
        "pmd,pdk,k->pm", problem.terminal.grad(forward.x[:, -1]), forward.grad_x[:, -1], h
    )

    def driver_all(pdel_all, qdel_all):
        out = const_all.copy()
        out += np.einsum("pjmk,pjk->pjm", grad_y_all, pdel_all)
        out += np.einsum("pjmkd,pjkd->pjm", grad_z_all, qdel_all)
        return out

    p, q, diffs_p, diffs_q, sweeps = _run_sweeps(
        forward, terminal_vals, wy, wz, driver_all, xdel_all, features, basis, max_sweeps, tol,
    )
    return VariationalBundle(
        direction=h, grad_x_h=grad_x_h, p=p, q=q,
        diffs_p=diffs_p, diffs_q=diffs_q, sweeps=sweeps,
    )


def representation_z(forward, variationals, coeffs):
    """Control process from the flow formula grad_Y (grad_X)^{-1} sigma.

    variationals: one directional bundle per coordinate direction; their
    value components form the columns of grad_Y.
    """
    dim = coeffs.dim
    if len(variationals) != dim:
        raise ValueError(f"need {dim} directional bundles, got {len(variationals)}")
    for axis, bundle in enumerate(variationals):
        expected = np.zeros(dim)
        expected[axis] = 1.0
        if not np.allclose(bundle.direction, expected):
            raise ValueError("variational bundles must use the coordinate directions in order")
    grad_y = np.stack([b.p for b in variationals], axis=-1)
    sig = coeffs.diffusion(forward.grid, forward.x)
    return np.einsum("pimd,pidk,pikl->piml", grad_y, forward.grad_x_inv, sig)


@dataclass(frozen=True)
class FdReport:
    """Finite-difference check of the state-derivative solve.

    errors[k] is the RMS over paths and nodes of
    (Y(x0 + eps_k h) - Y(x0)) / eps_k - grad_Y h, with all solves coupled to
    the same noise.  noise_floor repeats the measurement at a tiny step where
    the difference-quotient bias is negligible; richardson_error removes the
    first-order bias from the two smallest steps.
    """

    epsilons: tuple
    errors: tuple
    block_ses: tuple
    noise_floor: float
    noise_floor_se: float
    richardson_error: float


def _fd_error(diff, blocks=10):
    flat = np.sqrt(np.mean(np.sum(diff**2, axis=-1), axis=1))
    err = float(np.sqrt(np.mean(flat**2)))
    m = len(flat)
    edges = np.linspace(0, m, blocks + 1, dtype=int)
    vals = [np.sqrt(np.mean(flat[a:b] ** 2)) for a, b in zip(edges[:-1], edges[1:]) if b > a]
    se = float(np.std(vals, ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return err, se


def fd_directional_check(problem, h, epsilons, n_paths, n_steps, seed,
                         basis=None, max_sweeps=8, tol=1e-3, floor_epsilon=1e-3):
    """Compare difference quotients of Y in the initial state with grad_Y h.

    All solves share one draw of the Brownian increments (the shifted states
    rerun only the Euler step and the flow), so the quotient errors isolate
    the finite-difference bias; they shrink with the step until the
    regression noise floor.
    """
    h = np.asarray(h, dtype=float)
    grid = np.linspace(0.0, problem.horizon, n_steps + 1)
    forward = simulate_forward(problem.forward, problem.x0, grid, n_paths, seed)
    base = picard_solve(problem, forward, basis, max_sweeps, tol)
    var = variational_solve(problem, forward, base, h, basis, max_sweeps, tol)

    def quotient(eps):
        shifted = problem.with_x0(problem.x0 + eps * h)
        fwd = bundle_from_increments(shifted.forward, shifted.x0, grid, forward.dw, seed)
        sol = picard_solve(shifted, fwd, basis, max_sweeps, tol)
        return (sol.y - base.y) / eps

    errors, ses, quotients = [], [], {}
    for eps in epsilons:
        fd = quotient(eps)
        quotients[eps] = fd
        err, se = _fd_error(fd - var.p)
        errors.append(err)
        ses.append(se)
    floor_err, floor_se = _fd_error(quotient(floor_epsilon) - var.p)

    richardson = float("nan")
    eps_sorted = sorted(epsilons)
    for eps in eps_sorted:
        if any(abs(other - 2 * eps) < 1e-12 for other in eps_sorted):
            fd1, fd2 = quotients[eps], quotients[2 * eps]
            richardson, _ = _fd_error((2 * fd1 - fd2) - var.p)
            break
    return FdReport(
        epsilons=tuple(float(e) for e in epsilons),
        errors=tuple(errors),
        block_ses=tuple(ses),
        noise_floor=floor_err,
        noise_floor_se=floor_se,
        richardson_error=richardson,
    )
