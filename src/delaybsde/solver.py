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

import math
from dataclasses import dataclass, replace

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
    "regression_basis",
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
    def last_update(self):
        return _last_update(self.diffs_y, self.diffs_z)

    @property
    def converged(self):
        """True when the last update fell below tol, False when cut off at max_sweeps."""
        return self.last_update < self.tol


@dataclass(frozen=True)
class VariationalBundle:
    """Directional state-derivative of the solution along direction h.

    converged follows the rule of SolutionBundle on diffs_p and diffs_q.
    """

    direction: np.ndarray
    p: np.ndarray
    q: np.ndarray
    diffs_p: tuple
    diffs_q: tuple
    sweeps: int
    tol: float

    @property
    def last_update(self):
        return _last_update(self.diffs_p, self.diffs_q)

    @property
    def converged(self):
        """True when the last update fell below tol, False when cut off at max_sweeps."""
        return self.last_update < self.tol


def _last_update(*diffs):
    """Largest last-sweep update over the components; nan before any sweep."""
    return max((d[-1] for d in diffs if d), default=float("nan"))


def _convolve_nodes(weights, values):
    """Node-wise delayed convolution of per-path node values.

    weights: (N+1, N) cell weights; values: node-major (N+1, M, ...).
    Returns node-major (N+1, M, ...) where entry i sums
    weights[i, j] * values[j].
    """
    if not weights.any():
        return np.zeros((weights.shape[0], *values.shape[1:]))
    return np.tensordot(weights, values[: weights.shape[1]], axes=(1, 0))


def _path_major(values):
    """Path-major (M, N+1, ...) view of node-major values, and back."""
    return np.moveaxis(values, 0, 1)


def regression_basis(problem, basis):
    """Feature names of a solve's regressions and the basis size k they give.

    Selected features with zero-mass delay measures are dropped: their
    convolutions vanish identically and would only burn basis size.  When
    none is left the state alone is used.
    """
    measures = {"xdel": problem.alpha_x, "ydel": problem.alpha_y, "zdel": problem.alpha_z}
    features = [name for name in basis.features
                if name not in measures or not measures[name].is_zero] or ["x"]
    return features, _basis_size(problem, features, basis.degree)


def _basis_size(problem, features, degree):
    """Number of total-degree monomials in the columns of the named features."""
    width = {"x": problem.dim_x, "xdel": problem.dim_x, "ydel": problem.dim_y,
             "zdel": problem.dim_y * problem.dim_x}
    n_columns = sum(width[name] for name in features)
    return math.comb(n_columns + degree, degree)


# Bytes of regression design that one stacked fit may hold: a stack of nodes
# fitted on k basis functions has at most max(1, DESIGN_BUDGET // (M k 8))
# nodes, which bounds the memory a stack adds to the sweep's own (N+1, M, ...)
# arrays.  At 1 MiB the benchmark's Monte Carlo workloads hold no more live
# memory than with one fit per node; at 4 MiB their peak RSS rose by 5-11 MB.
DESIGN_BUDGET = 2**20


def _feature_plan(problem, features, weights, n_paths, degree):
    """Stacks of sweep 1 and of the later sweeps: (lo, hi, live features), top first.

    A feature is live at node i when a rule on the cell weights says it can
    vary across paths there; no test reads the data.  x is dead at node 0,
    where every path sits at x0.  A delayed convolution is live where its
    weight row reads a node after node 0: node 0's state is x0 and its fit
    is intercept-only, so a row reading node 0 alone reads a constant.  ydel
    and zdel are dead in sweep 1, whose iterate is zero.  Contiguous nodes
    with one live set are cut, from the top, into stacks of at most
    DESIGN_BUDGET bytes of design at their own basis size.
    """
    wx, wy, wz = weights
    n = wx.shape[1]
    live_at = {"x": np.arange(n) > 0,
               **{name: w[:n, 1:].any(axis=1)
                  for name, w in (("xdel", wx), ("ydel", wy), ("zdel", wz))}}
    later = [tuple(name for name in features if live_at[name][i]) for i in range(n)]
    first = [tuple(name for name in names if name not in ("ydel", "zdel")) for names in later]
    plan = []
    for live in (first, later):
        stacks = []
        hi = n
        while hi > 0:
            names = live[hi - 1]
            block = max(1, DESIGN_BUDGET // (n_paths * _basis_size(problem, names, degree) * 8))
            lo = hi - 1
            while lo > max(0, hi - block) and live[lo - 1] == names:
                lo -= 1
            stacks.append((lo, hi, names))
            hi = lo
        plan.append(tuple(stacks))
    return tuple(plan)


def _solve_setup(problem, forward, basis):
    """Cell weights, node-major delayed forward state and feature plan of one solve."""
    measures = (problem.alpha_x, problem.alpha_y, problem.alpha_z)
    weights = tuple(cell_weights(m, forward.grid) for m in measures)
    xdel_all = _convolve_nodes(weights[0], _path_major(forward.x))
    features, _ = regression_basis(problem, basis)
    plan = _feature_plan(problem, features, weights, forward.n_paths, basis.degree)
    return (*weights, xdel_all, plan)


def _suffix_sums(terminal_vals, f_all, dt):
    """Tail sums g + sum_{j>=i} f_j dt_j per node and path, node-major (N+1, M, m).

    f_all: node-major driver values (N+1, M, m).  Accumulates backward from
    the terminal node, adding in the same order as a node-by-node loop.
    """
    n = len(dt)
    suffix = np.empty((n + 1, *terminal_vals.shape))
    suffix[n] = terminal_vals
    np.multiply(f_all[:n], dt[:, None, None], out=suffix[:n])
    for i in range(n - 1, -1, -1):
        suffix[i] += suffix[i + 1]
    return suffix


def _node_squares(update):
    """Squared norm per node and path of a node-major update (N+1, M, ...).

    Squares the update in place; a single trailing entry is read, not summed.
    """
    np.square(update, out=update)
    if update[0, 0].size == 1:
        return update.reshape(update.shape[:2])
    return np.sum(update, axis=tuple(range(2, update.ndim)))


def _max_rms(squares):
    """Largest RMS over paths of node-major (N+1, M) squares.

    The mean runs over a path-major copy, so paths are summed in the same
    order as for a path-major iterate.
    """
    return float(np.max(np.sqrt(np.mean(np.ascontiguousarray(squares.T), axis=0))))


def _run_sweeps(forward, terminal_vals, wy, wz, driver_all, xdel_all, basis_plan, basis,
                max_sweeps, tol):
    """Shared Picard engine for the base and the variational solves.

    wy, wz: cell weights of the delayed value and control convolutions;
    driver_all(ydel_all, zdel_all) -> node-major driver values (N+1, M, m)
    from node-major convolutions, of which node N is never read;
    xdel_all: node-major delayed state; basis_plan: the feature plan of
    _feature_plan, the stacks of sweep 1 and of the later sweeps as
    (lo, hi, live features), read at nodes lo..hi-1 from the state, xdel_all
    and the current sweep's convolutions.  The iterate is node-major, and each
    sweep walks its stacks backward from the terminal node with one stacked
    fit per stack, on the stack's live features only.  Sweeps stop once the
    max-node RMS update of both components drops below tol.  Returns
    path-major (M, N+1, ...) arrays.
    """
    grid = forward.grid
    x_nodes, dw_nodes = _path_major(forward.x), _path_major(forward.dw)
    n = len(grid) - 1
    dt = np.diff(grid)
    m_paths, dim_y = terminal_vals.shape
    dim_ctrl = dw_nodes.shape[2]
    y = np.zeros((n + 1, m_paths, dim_y))
    z = np.zeros((n + 1, m_paths, dim_y, dim_ctrl))
    diffs_y, diffs_z = [], []
    sweeps = 0
    for _ in range(max_sweeps):
        ydel_all, zdel_all = _convolve_nodes(wy, y), _convolve_nodes(wz, z)
        f_all = driver_all(ydel_all, zdel_all)
        named = {"x": x_nodes, "xdel": xdel_all, "ydel": ydel_all, "zdel": zdel_all}
        suffix = _suffix_sums(terminal_vals, f_all, dt)
        # The stacks write every node below N.
        y_new = np.empty_like(y)
        z_new = np.empty_like(z)
        y_new[n] = terminal_vals
        z_new[n] = 0.0
        for lo, hi, names in basis_plan[min(sweeps, 1)]:
            feats = np.concatenate(
                [named[name][lo:hi].reshape(hi - lo, m_paths, -1) for name in names],
                axis=-1,
            ) if names else np.empty((hi - lo, m_paths, 0))
            design = expand_features(feats, basis.degree)
            try:
                solver = DesignSolver(design, basis.ridge)
            except ValueError:
                # A stacked factorization fails for the whole stack: refit the
                # stack's nodes one by one, from the top, to name the node.
                for i in range(hi - 1, lo - 1, -1):
                    try:
                        DesignSolver(design[i - lo], basis.ridge)
                    except ValueError as exc:
                        raise ValueError(
                            f"regression failed at node {i}, sweep {sweeps + 1}: {exc}"
                        ) from exc
                raise
            y_new[lo:hi] = solver.fitted(solver.solve(suffix[lo:hi]))
            step = dt[lo:hi, None, None]
            innovation = y_new[lo + 1 : hi + 1] - y_new[lo:hi] + f_all[lo:hi] * step
            ctrl_target = innovation[..., None] * dw_nodes[lo:hi, :, None, :] / step[..., None]
            coeff_z = solver.solve(ctrl_target.reshape(hi - lo, m_paths, -1))
            z_new[lo:hi] = solver.fitted(coeff_z).reshape(hi - lo, m_paths, dim_y, dim_ctrl)
        # The old iterate is not read again: its buffers take the updates.
        with np.errstate(over="ignore", invalid="ignore"):
            diff_y = _max_rms(_node_squares(np.subtract(y_new, y, out=y)))
            diff_z = _max_rms(_node_squares(np.subtract(z_new, z, out=z)))
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
    y, z = (np.ascontiguousarray(_path_major(a)) for a in (y, z))
    return y, z, tuple(diffs_y), tuple(diffs_z), sweeps


def picard_solve(problem, forward, basis=None, max_sweeps=8, tol=1e-3):
    """Solve the delay FBSDE on the bundle's grid by forward Picard sweeps.

    Feasibility of the smallness conditions is advisory: the verdict is
    recorded on the bundle but an infeasible problem is still solved (the
    conditions are sufficient, not necessary).
    """
    basis = basis or BasisSpec()
    grid = forward.grid
    _, wy, wz, xdel_all, plan = _solve_setup(problem, forward, basis)
    terminal_vals = problem.terminal.value(forward.x[:, -1])

    def driver_all(ydel_all, zdel_all):
        return problem.driver.value(grid[:, None], xdel_all, ydel_all, zdel_all)

    y, z, diffs_y, diffs_z, sweeps = _run_sweeps(
        forward, terminal_vals, wy, wz, driver_all, xdel_all, plan, basis, max_sweeps, tol,
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
    wx, wy, wz, xdel_all, plan = _solve_setup(problem, forward, basis)
    ydel_base, zdel_base = (_convolve_nodes(w, _path_major(v))
                            for w, v in ((wy, base.y), (wz, base.z)))
    xdel_dir = _convolve_nodes(wx, np.einsum("pijk,k->ipj", forward.grad_x, h))

    driver = problem.driver
    args = (forward.grid[:, None], xdel_all, ydel_base, zdel_base)
    const_all = np.einsum("jpmd,jpd->jpm", driver.grad_x(*args), xdel_dir)
    grad_y_all = driver.grad_y(*args)
    grad_z_all = driver.grad_z(*args)

    terminal_vals = np.einsum(
        "pmd,pdk,k->pm", problem.terminal.grad(forward.x[:, -1]), forward.grad_x[:, -1], h
    )

    def driver_all(pdel_all, qdel_all):
        out = const_all.copy()
        out += np.einsum("jpmk,jpk->jpm", grad_y_all, pdel_all)
        out += np.einsum("jpmkd,jpkd->jpm", grad_z_all, qdel_all)
        return out

    p, q, diffs_p, diffs_q, sweeps = _run_sweeps(
        forward, terminal_vals, wy, wz, driver_all, xdel_all, plan, basis, max_sweeps, tol,
    )
    return VariationalBundle(
        direction=h, p=p, q=q,
        diffs_p=diffs_p, diffs_q=diffs_q, sweeps=sweeps, tol=tol,
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
    first-order bias from the smallest step eps whose double 2 eps is also a
    step, and is nan when no step has an exact double.
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


# Step of the fd-check's noise-floor quotient: small enough that the
# difference-quotient bias is negligible next to the regression noise.
FLOOR_EPSILON = 1e-3


def fd_directional_check(problem, h, epsilons, n_paths, n_steps, seed,
                         basis=None, max_sweeps=8, tol=1e-3):
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
        fwd = bundle_from_increments(shifted.forward, shifted.x0, grid, forward.dw)
        sol = picard_solve(shifted, fwd, basis, max_sweeps, tol)
        return (sol.y - base.y) / eps

    errors, ses, quotients = [], [], {}
    for eps in epsilons:
        fd = quotient(eps)
        quotients[eps] = fd
        err, se = _fd_error(fd - var.p)
        errors.append(err)
        ses.append(se)
    floor_err, floor_se = _fd_error(quotient(FLOOR_EPSILON) - var.p)

    richardson = float("nan")
    # Doubling is exact in binary floating point, so 0.25 pairs with 0.5.
    for eps in sorted(epsilons):
        if 2 * eps in quotients:
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
