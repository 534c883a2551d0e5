import math
import weakref

import numpy as np
import pytest

from delaybsde import forward as forward_module
from delaybsde.forward import SdeCoefficients, make_forward, simulate_forward
from delaybsde.generators import make_driver, make_terminal
from delaybsde.measures import DelayMeasure, cell_weights
from delaybsde.regression import BasisSpec, DesignSolver
from delaybsde import solver as solver_module
from delaybsde.solver import (
    DelayFbsdeProblem,
    _convolve_nodes,
    _suffix_sums,
    fd_directional_check,
    picard_solve,
    regression_basis,
    representation_z,
    variational_solve,
)

T = 0.5


def zero_measure():
    return DelayMeasure(T)


def lag_atom(loc=-0.25, w=1.0):
    return DelayMeasure(T, atoms=((loc, w),))


def problem(driver, terminal, alpha_x=None, alpha_y=None, alpha_z=None, x0=0.0,
            forward=None):
    return DelayFbsdeProblem(
        horizon=T,
        dim_x=1,
        dim_y=1,
        x0=[x0],
        forward=forward or make_forward("brownian"),
        driver=driver,
        terminal=terminal,
        alpha_x=alpha_x or zero_measure(),
        alpha_y=alpha_y or zero_measure(),
        alpha_z=alpha_z or zero_measure(),
        p=2.0,
        beta=1.0,
        gamma=0.5,
    )


def still_state():
    """Noise-free state with zero drift: every path stays at x0."""
    return make_forward("linear_drift", {"rate": 0.0, "vol": 0.0})


def solve(prob, n_steps=20, n_paths=4000, seed=3, basis=None, sweeps=8, tol=1e-4):
    grid = np.linspace(0.0, T, n_steps + 1)
    fwd = simulate_forward(prob.forward, prob.x0, grid, n_paths, seed)
    sol = picard_solve(prob, fwd, basis or BasisSpec(), sweeps, tol)
    return fwd, sol


def convolve_paths(weights, values):
    """The solver's node convolution of path-major (M, N+1, ...) values, path-major."""
    return np.moveaxis(_convolve_nodes(weights, np.moveaxis(values, 1, 0)), 0, 1)


def theta(prob, fwd, sol):
    """Delayed convolutions (xdel, ydel, zdel) at every node, as the solver forms them."""
    pairs = ((prob.alpha_x, fwd.x), (prob.alpha_y, sol.y), (prob.alpha_z, sol.z))
    return [convolve_paths(cell_weights(m, fwd.grid), v) for m, v in pairs]


class TestDiscreteTheta:
    def test_zero_measures_give_zero(self):
        prob = problem(make_driver("zero"), make_terminal("identity"))
        fwd, sol = solve(prob, n_steps=8, n_paths=64)
        xdel, ydel, zdel = (conv[:, 4] for conv in theta(prob, fwd, sol))
        assert not xdel.any() and not ydel.any() and not zdel.any()

    def test_atom_lands_in_one_shifted_cell(self):
        # unit atom at one grid lag reads the constant control one step back
        grid = np.linspace(0.0, T, 3)  # step 0.25
        measure = lag_atom(-0.25)
        weights = cell_weights(measure, grid)
        assert weights[0].tolist() == [0.0, 0.0]
        assert weights[1].tolist() == [1.0, 0.0]
        assert weights[2].tolist() == [0.0, 1.0]

    def test_density_mass_times_constant_value(self):
        measure = DelayMeasure(T, density_pieces=((-0.5, 0.0, 1.0),))
        grid = np.linspace(0.0, T, 21)
        weights = cell_weights(measure, grid)
        # at the terminal node the full density window is reachable
        assert weights[-1].sum() == pytest.approx(0.5)
        conv = _convolve_nodes(weights, np.ones((21, 8, 1)))
        assert np.allclose(conv[-1], 0.5, rtol=1e-12, atol=0.0)

    def test_one_step_lag_weights_are_subdiagonal(self):
        n = 10
        grid = np.linspace(0.0, T, n + 1)
        dt = T / n
        weights = cell_weights(DelayMeasure(T, atoms=((-dt, 1.0),)), grid)
        expected = np.zeros((n + 1, n))
        for i in range(1, n + 1):
            expected[i, i - 1] = 1.0
        assert np.array_equal(weights, expected)


class TestNodeConvolution:
    def test_matches_dense_einsum(self):
        rng = np.random.default_rng(11)
        grid = np.linspace(0.0, T, 25)
        weights = cell_weights(
            DelayMeasure(T, atoms=((-0.125, 0.6),), density_pieces=((-0.4, -0.2, 1.3),)), grid
        )
        for shape in ((25, 30, 1), (25, 30, 2, 3)):
            values = rng.normal(size=shape)
            flat = values[:24].reshape(24, 30, -1)
            dense = np.einsum("ij,jpk->ipk", weights, flat).reshape(25, 30, *shape[2:])
            out = _convolve_nodes(weights, values)
            assert out.shape == shape
            assert np.max(np.abs(out - dense)) <= 1e-13

    def test_zero_weights_give_exact_zeros(self):
        values = np.random.default_rng(2).normal(size=(11, 7, 1, 2))
        out = _convolve_nodes(np.zeros((11, 10)), values)
        assert out.shape == values.shape
        assert not out.any()

    def test_discrete_theta_is_a_row_of_the_full_convolutions(self):
        # node i of the solver's convolutions equals the sum over the row of
        # cell weights at t_i, formed node by node
        alpha_y = DelayMeasure(T, atoms=((-0.1, 0.5),), density_pieces=((-0.4, -0.15, 1.0),))
        alpha_z = lag_atom(-0.125)
        prob = problem(make_driver("linear_ydel", {"coeff": 0.2, "lipschitz": 0.2}),
                       make_terminal("identity"), alpha_x=lag_atom(-0.25),
                       alpha_y=alpha_y, alpha_z=alpha_z)
        fwd, sol = solve(prob, n_steps=16, n_paths=200, sweeps=2)
        full = theta(prob, fwd, sol)
        for i in (0, 5, 16):
            for m, v, conv in zip((prob.alpha_x, alpha_y, alpha_z), (fwd.x, sol.y, sol.z), full):
                weights = cell_weights(m, fwd.grid)[i]
                row = np.tensordot(weights, v[:, : len(weights)], axes=(0, 1))
                assert np.allclose(row, conv[:, i], rtol=0.0, atol=1e-13)


class TestPicardSolve:
    def test_martingale_baseline(self):
        prob = problem(make_driver("zero"), make_terminal("identity"))
        fwd, sol = solve(prob, n_steps=20, n_paths=10_000, seed=5)
        rms = np.sqrt(np.mean((sol.y[:, :, 0] - fwd.x[:, :, 0]) ** 2, axis=0))
        assert rms.max() < 0.05
        z_mean = sol.z[:, 1:-1, 0, 0].mean(axis=0)
        assert z_mean.min() > 0.9 and z_mean.max() < 1.1

    def test_terminal_consistency_every_sweep(self):
        # the sweeps write every node below N into unzeroed buffers; node N
        # holds the terminal values and an exactly zero control, in the base
        # and in the derivative solve
        prob = problem(make_driver("linear_zdel", {"coeff": 0.1}),
                       make_terminal("identity"), alpha_z=lag_atom())
        fwd, sol = solve(prob, n_steps=8, n_paths=500, sweeps=3, tol=1e-12)
        assert np.array_equal(sol.y[:, -1], prob.terminal.value(fwd.x[:, -1]))
        assert not sol.z[:, -1].any()
        var = variational_solve(prob, fwd, sol, BasisSpec(), 3, 1e-12)
        assert sol.sweeps == var.sweeps == 3
        expected = np.einsum("pmd,pdk->pmk", prob.terminal.grad(fwd.x[:, -1]),
                             fwd.grad_x[:, -1])
        assert np.array_equal(var.p[:, -1], expected)
        assert not var.q[:, -1].any()

    def test_delayed_control_fixture(self):
        prob = problem(
            make_driver("linear_zdel", {"coeff": 0.1, "lipschitz": 0.1}),
            make_terminal("identity"),
            alpha_z=lag_atom(),
        )
        fwd, sol = solve(prob, n_steps=20, n_paths=10_000, seed=5, tol=1e-3)
        assert sol.y[:, 0].mean() == pytest.approx(0.025, abs=0.01)
        z_mean = sol.z[:, 1:-1, 0, 0].mean(axis=0)
        assert z_mean.min() > 0.9 and z_mean.max() < 1.1
        # deterministic shift on top of the state: Y_t - W_t
        shift = (sol.y[:, :, 0] - fwd.x[:, :, 0]).mean(axis=0)
        expected = 0.1 * (T - np.maximum(fwd.grid, 0.25))
        assert np.allclose(shift, expected, atol=0.02)

    def test_delayed_value_fixture_matches_fixed_point(self):
        prob = problem(
            make_driver("linear_ydel", {"coeff": 0.1, "lipschitz": 0.1}),
            make_terminal("constant", {"value": 1.0}),
            alpha_y=lag_atom(),
        )
        fwd, sol = solve(prob, n_steps=20, n_paths=2000, sweeps=12, tol=1e-10)
        assert sol.y[:, 0].mean() == pytest.approx(1.0 / 0.975, abs=2e-3)
        assert np.sqrt((sol.z**2).mean()) < 0.02

    def test_backward_quadrature_oracle_for_delay_value_fixture(self):
        # independent oracle: solve y(t) = 1 + c * int_t^T y(s - lag) ds by
        # fine backward quadrature and compare the initial value
        c, lag, n = 0.1, 0.25, 4000
        dt = T / n
        lag_cells = int(round(lag / dt))
        y = np.ones(n + 1)
        for i in range(n - 1, -1, -1):
            j = i - lag_cells
            lagged = y[j] if j >= 0 else 0.0
            y[i] = y[i + 1] + c * dt * lagged
        assert y[0] == pytest.approx(1.0 / 0.975, abs=1e-3)

    def test_geometric_picard_diffs_under_contraction(self):
        prob = problem(
            make_driver("linear_zdel", {"coeff": 0.1, "lipschitz": 0.1}),
            make_terminal("identity"),
            alpha_z=lag_atom(),
        )
        fwd, sol = solve(prob, n_steps=20, n_paths=10_000, seed=5, tol=1e-3)
        assert sol.feasibility["l2"]
        diffs = [max(dy, dz) for dy, dz in zip(sol.diffs_y, sol.diffs_z)]
        ratios = [diffs[k] / diffs[k - 1] for k in range(2, len(diffs))]
        assert all(r < 1.0 for r in ratios)

    def test_scaling_homogeneity_for_linear_driver(self):
        # with a state-only basis the whole pipeline is linear in the data
        basis = BasisSpec(features=("x",))
        lam = 3.0
        base = problem(
            make_driver("linear_zdel", {"coeff": 0.1, "lipschitz": 0.1}),
            make_terminal("affine", {"slope": 1.0}),
            alpha_z=lag_atom(),
        )
        scaled = problem(
            make_driver("linear_zdel", {"coeff": 0.1, "lipschitz": 0.1}),
            make_terminal("affine", {"slope": lam}),
            alpha_z=lag_atom(),
        )
        _, sol_a = solve(base, n_steps=10, n_paths=2000, basis=basis, sweeps=6, tol=1e-12)
        _, sol_b = solve(scaled, n_steps=10, n_paths=2000, basis=basis, sweeps=6, tol=1e-12)
        assert np.allclose(sol_b.y, lam * sol_a.y, atol=1e-8)
        assert np.allclose(sol_b.z, lam * sol_a.z, atol=1e-8)

    def test_one_step_lag_reduces_to_lagged_euler_scheme(self):
        # a driver reading only the one-step-lagged control must see exactly
        # the previous node's control values inside the sweep
        n = 10
        dt = T / n
        prob = problem(
            make_driver("linear_zdel", {"coeff": 0.2, "lipschitz": 0.2}),
            make_terminal("identity"),
            alpha_z=DelayMeasure(T, atoms=((-dt, 1.0),)),
        )
        fwd, sol = solve(prob, n_steps=n, n_paths=3000, sweeps=6, tol=1e-12)
        zdel = theta(prob, fwd, sol)[2]
        assert np.array_equal(zdel[:, 5], sol.z[:, 4])

    def test_infeasible_constants_do_not_block_solving(self):
        prob = problem(
            make_driver("linear_zdel", {"coeff": 0.9, "lipschitz": 10.0}),
            make_terminal("identity"),
            alpha_z=lag_atom(),
        )
        fwd, sol = solve(prob, n_steps=10, n_paths=2000, sweeps=3, tol=1e-6)
        assert not sol.feasibility["l2"]
        assert np.isfinite(sol.y).all()

    def test_non_finite_update_aborts_with_context(self):
        prob = problem(
            make_driver("affine", {"coeff_z": 1e200, "lipschitz": 1.0}),
            make_terminal("identity"),
            alpha_z=lag_atom(),
        )
        with pytest.raises(FloatingPointError, match="sweep"):
            solve(prob, n_steps=10, n_paths=500, sweeps=6, tol=1e-12)

    def test_regression_failure_carries_node_and_sweep(self):
        prob = problem(make_driver("zero"), make_terminal("identity"), forward=still_state())
        with pytest.raises(ValueError, match=r"node \d+, sweep 1"):
            # zero ridge plus a state that never leaves x0 = 0 makes x and x^2
            # zero columns at every node after node 0
            solve(prob, n_steps=4, n_paths=400,
                  basis=BasisSpec(degree=2, ridge=0.0), sweeps=2)

    def test_singular_gram_failure_carries_node_and_sweep(self):
        # a state that never leaves x0 = 1 makes every column of nodes 1-3
        # exactly one, so each Gram matrix is 400 * ones(3, 3) and a ridge of
        # 1e-300 does not move its diagonal; the refit names the top node
        prob = problem(make_driver("zero"), make_terminal("identity"), x0=1.0,
                       forward=still_state())
        with pytest.raises(ValueError, match=r"node 3, sweep 1: .*ridge 1e-300") as info:
            solve(prob, n_steps=4, n_paths=400,
                  basis=BasisSpec(degree=2, ridge=1e-300), sweeps=2)
        assert not isinstance(info.value.__cause__, np.linalg.LinAlgError)

    @pytest.mark.parametrize("dim_y", [1, 2])
    def test_suffix_sums_equal_the_node_loop(self, dim_y):
        rng = np.random.default_rng(dim_y)
        grid = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.1, 23))])
        dt = np.diff(grid)
        n = len(dt)
        f_all = rng.normal(size=(n + 1, 50, dim_y))
        terminal_vals = rng.normal(size=(50, dim_y))
        loop = np.zeros((n + 1, 50, dim_y))
        loop[n] = terminal_vals
        for i in range(n - 1, -1, -1):
            loop[i] = loop[i + 1] + f_all[i] * dt[i]
        assert np.array_equal(_suffix_sums(terminal_vals, f_all, dt), loop)

    @pytest.mark.parametrize("shape", [(9, 50, 1), (9, 50, 1, 1), (9, 50, 2), (9, 50, 2, 3)])
    def test_update_squares_equal_the_summed_squares(self, shape):
        rng = np.random.default_rng(len(shape))
        new, old = rng.normal(size=shape), rng.normal(size=shape)
        summed = np.sum((new - old) ** 2, axis=tuple(range(2, len(shape))))
        squares = solver_module._node_squares(np.subtract(new, old, out=old))
        assert np.array_equal(squares, summed)
        assert solver_module._max_rms(squares) == solver_module._max_rms(summed)

    def test_max_rms_equals_the_exact_node_loop(self):
        # the row means sum in numpy's order: equal to an exactly rounded
        # sum up to float64 rounding over 12 000 paths
        squares = np.random.default_rng(7).exponential(size=(41, 12_000))
        loop = max(math.sqrt(math.fsum(row) / len(row)) for row in squares)
        assert solver_module._max_rms(squares) == pytest.approx(loop, rel=1e-12, abs=0)


class TestFeatureSelection:
    @pytest.mark.parametrize("features, expected", [
        (("zdel", "x", "ydel", "xdel"), ["zdel", "x"]),
        (("ydel", "xdel"), ["x"]),
    ])
    def test_zero_mass_features_dropped_in_order(self, features, expected):
        # only alpha_z has mass, so xdel and ydel vanish identically
        prob = problem(make_driver("zero"), make_terminal("identity"), alpha_z=lag_atom())
        assert regression_basis(prob, BasisSpec(features=features))[0] == expected

    @pytest.mark.parametrize("case", ["all_delays_case", "brownian_2d_case"])
    def test_basis_size_counts_the_design_columns(self, monkeypatch, case):
        # each design is as wide as the basis of its stack's live features,
        # and the widest is the full basis that sizes the path-count check
        prob, basis = getattr(TestNodeBlocks(), case)()
        widths = record_designs(monkeypatch, lambda design: design.shape[-1])
        fwd = simulate_forward(prob.forward, prob.x0, np.linspace(0.0, T, 9), 200, 0)
        plan = solver_module._solve_setup(prob, fwd, basis)[-1]
        picard_solve(prob, fwd, basis, 2, 1e-12)
        width = {"x": prob.dim_x, "xdel": prob.dim_x, "ydel": prob.dim_y,
                 "zdel": prob.dim_y * prob.dim_x}
        expected = [math.comb(sum(width[name] for name in names) + basis.degree, basis.degree)
                    for sweep in plan for _, _, names in sweep]
        assert widths == expected
        assert max(widths) == regression_basis(prob, basis)[1]


def record_designs(monkeypatch, read):
    """Replace the solver's DesignSolver by one that records read(design) per construction.

    A stack of sweep-invariant features is constructed in every sweep, from
    the second fit on with the factor of its first, so the records hold
    every stack of every sweep.
    """
    records = []

    def recording(design, ridge, factor=None):
        records.append(read(design))
        return DesignSolver(design, ridge, factor)

    monkeypatch.setattr(solver_module, "DesignSolver", recording)
    return records


class TestFeaturePlan:
    """Each node is fitted on the features that can vary across paths there.

    The shape of the benchmark's compare-z on 16 steps: the atom of alpha_y
    and alpha_z reads node i - 8, and the density of alpha_z nodes i - 16 to
    i - 9, so the delayed value and control are live from node 9 on, from
    sweep 2.
    """

    def compare_z_case(self):
        return problem(
            make_driver("linear_zdel", {"coeff": 0.1}), make_terminal("identity"),
            alpha_y=lag_atom(),
            alpha_z=DelayMeasure(T, atoms=((-0.25, 1.0),),
                                 density_pieces=((-0.5, -0.25, 2.0),)),
        )

    def run(self, monkeypatch, read, sweeps=3):
        prob = self.compare_z_case()
        records = record_designs(monkeypatch, read)
        fwd, sol = solve(prob, n_steps=16, n_paths=400, sweeps=sweeps, tol=1e-12)
        variational_solve(prob, fwd, sol, BasisSpec(), sweeps, 1e-12)
        return prob, fwd, sol, records

    def test_node_zero_is_a_sample_mean(self, monkeypatch):
        prob, fwd, sol, _ = self.run(monkeypatch, lambda design: None)
        plan = solver_module._solve_setup(prob, fwd, BasisSpec())[-1]
        for sweep in plan:
            assert sweep[-1] == (0, 1, ())
        assert np.all(sol.y[:, 0] == sol.y[0, 0]) and np.all(sol.z[:, 0] == sol.z[0, 0])

    def test_first_sweep_reads_no_delayed_solution(self, monkeypatch):
        # the base solve's sweep 1 fits on [1] and [1, x, x^2] alone; later
        # sweeps add ydel and zdel from node 9 on.  The derivative solve reads
        # the base solution's ydel and zdel, so its sweep 1 already fits on
        # the later-sweep stacks.
        prob, fwd, _, widths = self.run(monkeypatch, lambda design: design.shape[-1], sweeps=1)
        first, later = solver_module._solve_setup(prob, fwd, BasisSpec())[-1]
        base, derivative = widths[: len(first)], widths[len(first):]
        assert set(base) == {1, 3}
        assert derivative == [math.comb(len(names) + 2, 2) for _, _, names in later]
        assert 10 in derivative
        assert {names for _, _, names in first} == {(), ("x",)}
        assert {names for lo, _, names in later if lo >= 9} == {("x", "ydel", "zdel")}
        assert {names for _, hi, names in later if hi <= 9} == {(), ("x",)}

    def test_no_design_has_a_constant_column(self, monkeypatch):
        def constant_columns(design):
            """Non-intercept columns equal on every path, over the stack's nodes."""
            return int(np.sum(np.all(design[..., 1:] == design[..., :1, 1:], axis=-2)))

        *_, records = self.run(monkeypatch, constant_columns)
        assert len(records) > 0 and not any(records)

    def test_each_stack_holds_its_own_budget(self, monkeypatch):
        # 5 nodes of [1, x, x^2] per stack, 1 node of the 10-column basis
        budget = 5 * 400 * 3 * 8
        monkeypatch.setattr(solver_module, "DESIGN_BUDGET", budget)
        *_, shapes = self.run(monkeypatch, lambda design: design.shape)
        by_k = {}
        for nodes, m_paths, k in shapes:
            by_k.setdefault(k, []).append(nodes)
            assert nodes == 1 or nodes * m_paths * k * 8 <= budget
        assert max(by_k[3]) == 5 and set(by_k[10]) == {1} and set(by_k[1]) == {1}


class TestVariational:
    def test_identity_terminal_gives_unit_derivative(self):
        prob = problem(make_driver("zero"), make_terminal("identity"))
        fwd, sol = solve(prob, n_steps=10, n_paths=2000)
        var = variational_solve(prob, fwd, sol, BasisSpec(), 4, 1e-6)
        assert np.allclose(var.p, 1.0, atol=1e-6)
        assert np.allclose(var.q, 0.0, atol=1e-6)

    def test_delay_linear_control_keeps_unit_derivative(self):
        prob = problem(
            make_driver("linear_zdel", {"coeff": 0.1, "lipschitz": 0.1}),
            make_terminal("identity"),
            alpha_z=lag_atom(),
        )
        fwd, sol = solve(prob, n_steps=20, n_paths=4000)
        var = variational_solve(prob, fwd, sol, BasisSpec(), 6, 1e-6)
        assert np.allclose(var.p, 1.0, atol=1e-5)

    def test_quadratic_terminal_derivative_tracks_state(self):
        prob = problem(make_driver("zero"), make_terminal("quadratic"), x0=1.0)
        fwd, sol = solve(prob, n_steps=20, n_paths=10_000, seed=5)
        var = variational_solve(prob, fwd, sol, BasisSpec(), 4, 1e-6)
        err = np.sqrt(np.mean((var.p[:, :, 0, 0] - 2.0 * fwd.x[:, :, 0]) ** 2))
        se = np.std(2.0 * fwd.x[:, -1, 0]) / np.sqrt(fwd.n_paths)
        assert err < 3 * se + 0.05

    def test_terminal_identity_of_derivative(self):
        prob = problem(make_driver("zero"), make_terminal("quadratic"), x0=0.5)
        fwd, sol = solve(prob, n_steps=10, n_paths=2000, seed=5)
        var = variational_solve(prob, fwd, sol, BasisSpec(), 4, 1e-6)
        expected = np.einsum(
            "pmd,pdk->pmk",
            prob.terminal.grad(fwd.x[:, -1]),
            fwd.grad_x[:, -1],
        )
        assert var.p.shape == (fwd.n_paths, 11, 1, 1) and var.q.shape == (fwd.n_paths, 11, 1, 1, 1)
        assert np.allclose(var.p[:, -1], expected)

    def test_converged_follows_the_rule_of_the_base_solve(self):
        prob = problem(make_driver("linear_zdel", {"coeff": 0.1}), make_terminal("quadratic"),
                       alpha_z=lag_atom())
        fwd, sol = solve(prob, n_steps=8, n_paths=500)
        cut = variational_solve(prob, fwd, sol, BasisSpec(), 1, 1e-12)
        done = variational_solve(prob, fwd, sol, BasisSpec(), 8, 1e-3)
        assert cut.tol == 1e-12 and not cut.converged
        assert cut.last_update == max(cut.diffs_p[0], cut.diffs_q[0])
        assert done.converged and done.sweeps < 8 and done.last_update < 1e-3


class TestRepresentation:
    def test_unit_control_for_identity_terminal(self):
        prob = problem(make_driver("zero"), make_terminal("identity"))
        fwd, sol = solve(prob, n_steps=10, n_paths=2000)
        var = variational_solve(prob, fwd, sol, BasisSpec(), 4, 1e-6)
        z_rep = representation_z(fwd, var, prob.forward)
        assert np.allclose(z_rep, 1.0, atol=1e-6)

    def test_quadratic_terminal_control_is_twice_state(self):
        prob = problem(make_driver("zero"), make_terminal("quadratic"), x0=1.0)
        fwd, sol = solve(prob, n_steps=20, n_paths=10_000, seed=5)
        var = variational_solve(prob, fwd, sol, BasisSpec(), 4, 1e-6)
        z_rep = representation_z(fwd, var, prob.forward)
        err = np.sqrt(np.mean((z_rep[:, :, 0, 0] - 2.0 * fwd.x[:, :, 0]) ** 2))
        assert err < 0.06

    def test_regression_and_representation_controls_agree(self):
        prob = problem(
            make_driver("linear_zdel", {"coeff": 0.1, "lipschitz": 0.1}),
            make_terminal("identity"),
            alpha_z=lag_atom(),
        )
        fwd, sol = solve(prob, n_steps=20, n_paths=10_000, seed=5, tol=1e-3)
        var = variational_solve(prob, fwd, sol, BasisSpec(), 6, 1e-3)
        z_rep = representation_z(fwd, var, prob.forward)
        for i in range(1, 20):
            num = np.sqrt(np.mean((sol.z[:, i] - z_rep[:, i]) ** 2))
            den = np.sqrt(np.mean(z_rep[:, i] ** 2))
            assert num / den <= 0.10


class TestDelayedStateDriver:
    """Driver reading the lagged forward state: closed forms are available.

    For f = c * xdel with a unit atom at lag d, additive noise and a linear
    terminal, the state-derivative of Y is 1 + c (T - max(t, d)) and the true
    control is 1 + c (T - d - t)^+.  The two differ where lags reach behind
    current time, so the flow-formula control is checked against its own
    closed form, not against the regressed control.
    """

    T1 = 1.0
    CX = 0.2
    LAG = 0.25

    def fixture(self):
        return DelayFbsdeProblem(
            horizon=self.T1, dim_x=1, dim_y=1, x0=[0.3],
            forward=make_forward("brownian"),
            driver=make_driver("affine", {"coeff_x": self.CX,
                                          "lipschitz": 3 * self.CX**2}),
            terminal=make_terminal("identity"),
            alpha_x=DelayMeasure(self.T1, atoms=((-self.LAG, 1.0),)),
            alpha_y=DelayMeasure(self.T1),
            alpha_z=DelayMeasure(self.T1),
            p=2.0, beta=1.0, gamma=0.5,
        )

    def run(self, n_paths=8000):
        prob = self.fixture()
        grid = np.linspace(0.0, self.T1, 21)
        fwd = simulate_forward(prob.forward, prob.x0, grid, n_paths, 5)
        sol = picard_solve(prob, fwd, BasisSpec(), 6, 1e-5)
        var = variational_solve(prob, fwd, sol, BasisSpec(), 6, 1e-5)
        return prob, grid, fwd, sol, var

    def test_state_derivative_matches_closed_form(self):
        prob, grid, fwd, sol, var = self.run()
        closed = 1.0 + self.CX * (self.T1 - np.maximum(grid, self.LAG))
        assert np.abs(var.p[:, :, 0, 0] - closed).max() < 1e-5

    def test_difference_quotient_is_exact_for_linear_problem(self):
        rep = fd_directional_check(self.fixture(), [1.0], [0.5, 0.25],
                                   n_paths=2000, n_steps=20, seed=5)
        assert max(rep.errors) < 1e-5

    def test_regressed_control_tracks_true_not_flow(self):
        prob, grid, fwd, sol, var = self.run(n_paths=20_000)
        z_true = 1.0 + self.CX * np.maximum(self.T1 - self.LAG - grid, 0.0)
        z_flow = 1.0 + self.CX * (self.T1 - np.maximum(grid, self.LAG))
        z_mean = sol.z[:, 1:-1, 0, 0].mean(axis=0)
        rms_true = np.sqrt(np.mean((z_mean - z_true[1:-1]) ** 2))
        rms_flow = np.sqrt(np.mean((z_mean - z_flow[1:-1]) ** 2))
        assert rms_true < 0.03
        assert rms_true < rms_flow
        zr = representation_z(fwd, var, prob.forward)
        assert np.abs(zr[:, :, 0, 0] - z_flow).max() < 1e-5


class TestMultidimensional:
    def test_sum_terminal_in_two_dimensions(self):
        zero = DelayMeasure(T)
        prob = DelayFbsdeProblem(
            horizon=T, dim_x=2, dim_y=1, x0=[0.2, -0.1],
            forward=make_forward("brownian", {}, 2),
            driver=make_driver("zero", {}, 2, 1),
            terminal=make_terminal("affine", {"slope": 1.0}, 2, 1),
            alpha_x=zero, alpha_y=zero, alpha_z=zero,
            p=2.0, beta=1.0, gamma=0.5,
        )
        grid = np.linspace(0.0, T, 11)
        fwd = simulate_forward(prob.forward, prob.x0, grid, 4000, 7)
        sol = picard_solve(prob, fwd, BasisSpec(), 4, 1e-6)
        truth = fwd.x[:, :, 0] + fwd.x[:, :, 1]
        rms = np.sqrt(np.mean((sol.y[:, :, 0] - truth) ** 2, axis=0))
        assert rms.max() < 0.1
        z_cols = sol.z[:, 1:-1, 0, :].mean(axis=(0, 1))
        assert np.allclose(z_cols, 1.0, atol=0.05)
        var = variational_solve(prob, fwd, sol, BasisSpec(), 4, 1e-6)
        assert np.allclose(var.p, 1.0, atol=1e-6)
        z_rep = representation_z(fwd, var, prob.forward)
        assert np.allclose(z_rep, 1.0, atol=1e-6)

    def test_identity_terminal_with_matrix_control(self):
        zero = DelayMeasure(T)
        prob = DelayFbsdeProblem(
            horizon=T, dim_x=2, dim_y=2, x0=[0.2, -0.1],
            forward=make_forward("brownian", {}, 2),
            driver=make_driver("zero", {}, 2, 2),
            terminal=make_terminal("identity", {}, 2, 2),
            alpha_x=zero, alpha_y=zero, alpha_z=zero,
            p=2.0, beta=1.0, gamma=0.5,
        )
        grid = np.linspace(0.0, T, 11)
        fwd = simulate_forward(prob.forward, prob.x0, grid, 4000, 7)
        sol = picard_solve(prob, fwd, BasisSpec(), 4, 1e-6)
        rms = np.sqrt(np.mean(np.sum((sol.y - fwd.x) ** 2, axis=-1), axis=0))
        assert rms.max() < 0.1
        z_mean = sol.z[:, 1:-1].mean(axis=(0, 1))
        assert np.allclose(z_mean, np.eye(2), atol=0.05)

    def test_jacobian_columns_follow_the_state_axes(self):
        # g(x) = |x|^2 with Brownian X: grad_Y_t = 2 X_t^T, one column per state axis
        zero = DelayMeasure(T)
        prob = DelayFbsdeProblem(
            horizon=T, dim_x=2, dim_y=1, x0=[0.2, -0.1],
            forward=make_forward("brownian", {}, 2),
            driver=make_driver("zero", {}, 2, 1),
            terminal=make_terminal("quadratic", {}, 2, 1),
            alpha_x=zero, alpha_y=zero, alpha_z=zero,
            p=2.0, beta=1.0, gamma=0.5,
        )
        fwd = simulate_forward(prob.forward, prob.x0, np.linspace(0.0, T, 11), 4000, 7)
        sol = picard_solve(prob, fwd, BasisSpec(), 4, 1e-6)
        var = variational_solve(prob, fwd, sol, BasisSpec(), 4, 1e-6)
        assert var.p.shape == (4000, 11, 1, 2) and var.q.shape == (4000, 11, 1, 2, 2)
        for axis in (0, 1):
            err = np.sqrt(np.mean((var.p[:, :, 0, axis] - 2.0 * fwd.x[:, :, axis]) ** 2))
            assert err < 0.05


class TestMultiplicativeNoiseOracle:
    def test_gbm_forward_closed_form(self):
        # Y_t = X_t e^{mu (T - t)} and Z_t = nu X_t e^{mu (T - t)}
        mu, nu = 0.3, 0.4
        zero = DelayMeasure(T)
        prob = DelayFbsdeProblem(
            horizon=T, dim_x=1, dim_y=1, x0=[1.0],
            forward=make_forward("gbm", {"mu": mu, "nu": nu}),
            driver=make_driver("zero"), terminal=make_terminal("identity"),
            alpha_x=zero, alpha_y=zero, alpha_z=zero,
            p=2.0, beta=1.0, gamma=0.5,
        )
        grid = np.linspace(0.0, T, 21)
        fwd = simulate_forward(prob.forward, prob.x0, grid, 10_000, 5)
        sol = picard_solve(prob, fwd, BasisSpec(), 4, 1e-6)
        var = variational_solve(prob, fwd, sol, BasisSpec(), 4, 1e-6)
        z_rep = representation_z(fwd, var, prob.forward)
        decay = np.exp(mu * (T - grid))
        y_true = fwd.x[:, :, 0] * decay
        z_true = nu * y_true
        rel_y = np.sqrt(np.mean((sol.y[:, :, 0] - y_true) ** 2)) / np.sqrt(np.mean(y_true**2))
        rel_z = np.sqrt(np.mean((z_rep[:, 1:-1, 0, 0] - z_true[:, 1:-1]) ** 2)) / np.sqrt(
            np.mean(z_true**2)
        )
        assert rel_y < 0.02
        assert rel_z < 0.02
        z_mean_err = np.abs(
            sol.z[:, 1:-1, 0, 0].mean(axis=0) - z_true[:, 1:-1].mean(axis=0)
        ).max()
        assert z_mean_err < 0.05


class TestDensityDelayOracle:
    def test_density_delay_matches_independent_quadrature(self):
        # deterministic fixture: f = c * ydel with a uniform density on
        # [-0.5, 0), constant terminal; oracle solves the delayed integral
        # equation on its own fine grid with midpoint sums
        c, lo = 0.2, -0.5
        t_end = 1.0
        prob = DelayFbsdeProblem(
            horizon=t_end, dim_x=1, dim_y=1, x0=[0.0],
            forward=make_forward("brownian"),
            driver=make_driver("linear_ydel", {"coeff": c, "lipschitz": c}),
            terminal=make_terminal("constant", {"value": 1.0}),
            alpha_x=DelayMeasure(t_end),
            alpha_y=DelayMeasure(t_end, density_pieces=((lo, 0.0, 1.0),)),
            alpha_z=DelayMeasure(t_end),
            p=2.0, beta=1.0, gamma=0.5,
        )
        grid = np.linspace(0.0, t_end, 21)
        fwd = simulate_forward(prob.forward, prob.x0, grid, 500, 3)
        sol = picard_solve(prob, fwd, BasisSpec(), 12, 1e-11)

        n = 2000
        dt = t_end / n
        times = np.linspace(0.0, t_end, n + 1)
        vmids = (np.arange(int(-lo / dt)) + 0.5) * dt  # midpoints of [0, -lo)
        y = np.ones(n + 1)
        for _ in range(100):
            prev = y
            conv = np.array([
                np.sum(np.interp(t - vmids, times, prev) * (t - vmids >= -1e-12)) * dt
                for t in times
            ])
            y = np.ones(n + 1)
            for i in range(n - 1, -1, -1):
                y[i] = y[i + 1] + c * dt * conv[i]
            if np.max(np.abs(y - prev)) < 1e-12:
                break
        assert sol.y[:, 0].mean() == pytest.approx(y[0], abs=0.01)
        assert np.sqrt((sol.z**2).mean()) < 0.02


class TestFdCheck:
    def test_linear_terminal_exact_for_all_steps(self):
        prob = problem(make_driver("zero"), make_terminal("identity"))
        rep = fd_directional_check(prob, [1.0], [0.5, 0.25], 2000, 10, seed=3)
        assert max(rep.errors) < 1e-6

    def test_quadratic_terminal_first_order_bias(self):
        prob = problem(make_driver("zero"), make_terminal("quadratic"), x0=1.0)
        rep = fd_directional_check(prob, [1.0], [0.5, 0.25, 0.125], 4000, 10, seed=5)
        assert rep.errors[1] == pytest.approx(0.5 * rep.errors[0], rel=1e-3)
        assert rep.errors[2] == pytest.approx(0.5 * rep.errors[1], rel=1e-3)
        assert rep.richardson_error < rep.noise_floor + 3 * rep.noise_floor_se

    @pytest.mark.parametrize("epsilons, paired", [
        ([0.3, 0.5, 0.25], True),  # 0.25 pairs with its exact double, in any order
        ([0.1, 0.2000000000005], False),  # near, but not exact, doubling
    ])
    def test_richardson_pairs_exact_doubles_only(self, epsilons, paired):
        prob = problem(make_driver("zero"), make_terminal("quadratic"), x0=1.0)
        rep = fd_directional_check(prob, [1.0], epsilons, 1000, 10, seed=5)
        if paired:
            assert rep.richardson_error < min(rep.errors)
            assert rep.richardson_error < rep.noise_floor + 3 * rep.noise_floor_se
        else:
            assert np.isnan(rep.richardson_error)
            assert np.isfinite(rep.errors).all()

    def test_deterministic_delay_fixture_matches_derivative(self):
        prob = problem(
            make_driver("linear_ydel", {"coeff": 0.1, "lipschitz": 0.1}),
            make_terminal("constant", {"value": 1.0}),
            alpha_y=lag_atom(),
        )
        rep = fd_directional_check(prob, [1.0], [0.5, 0.25], 1000, 20, seed=3,
                                   tol=1e-10, max_sweeps=12)
        assert max(rep.errors) < 1e-4


class TestFdCheckSharedNoise:
    ARGS = ([1.0], [0.5, 0.25, 0.125], 600, 8)

    @staticmethod
    def quadratic():
        return problem(make_driver("zero"), make_terminal("quadratic"),
                       forward=make_forward("gbm", {"mu": 0.1, "nu": 0.3}), x0=1.0)

    def test_noise_drawn_once_per_check(self, monkeypatch):
        calls = []
        draw = forward_module.brownian_increments

        def counted(*args):
            calls.append(args)
            return draw(*args)

        monkeypatch.setattr(forward_module, "brownian_increments", counted)
        fd_directional_check(self.quadratic(), *self.ARGS, seed=4)
        assert len(calls) == 1

    def test_report_equals_independent_simulation_per_shift(self, monkeypatch):
        shared = fd_directional_check(self.quadratic(), *self.ARGS, seed=4)

        def simulate_again(coeffs, x0, grid, dw):
            return simulate_forward(coeffs, x0, grid, len(dw), 4)

        monkeypatch.setattr(solver_module, "bundle_from_increments", simulate_again)
        assert fd_directional_check(self.quadratic(), *self.ARGS, seed=4) == shared

    def test_no_flow_is_inverted(self, monkeypatch):
        # fd-check reads Y only; the inverse flow feeds the control formula alone
        calls = []
        for module, name in ((np.linalg, "inv"), (forward_module, "_flow_inverse")):
            def counted(a, invert=getattr(module, name)):
                calls.append(np.shape(a))
                return invert(a)

            monkeypatch.setattr(module, name, counted)
        fd_directional_check(self.quadratic(), *self.ARGS, seed=4)
        assert calls == []

    def test_singular_shifted_flow_raises(self):
        # Noise-free drift c x^2 / 2: the flow's first step is 1 + c x0 dt, which is
        # exactly 1 at x0 = 0 and exactly 0 at the shifted x0 = 0.5 (dt = 0.125).
        c = -16.0
        coeffs = SdeCoefficients(
            "singular_shift", 1,
            drift=lambda t, x: 0.5 * c * x**2,
            diffusion=lambda t, x: np.zeros((len(x), 1, 1)),
            grad_drift=lambda t, x: c * x[:, :, None],
            grad_diffusion=lambda t, x: np.zeros((len(x), 1, 1, 1)),
        )
        prob = problem(make_driver("zero"), make_terminal("identity"), forward=coeffs)
        with pytest.raises(ValueError, match=r"singular variational flow at path 0, node 1"):
            fd_directional_check(prob, [1.0], [0.5], 50, 4, seed=1)


def per_node_picard(prob, fwd, basis, sweeps, tol):
    """picard_solve's sweeps with the driver called once per node below N."""
    _, wy, wz, xdel_all, plan = solver_module._solve_setup(prob, fwd, basis)
    grid, n = fwd.grid, len(fwd.grid) - 1

    def driver_all(ydel_all, zdel_all):
        out = np.zeros((n + 1, fwd.n_paths, prob.dim_y))
        for j in range(n):
            out[j] = prob.driver.value(grid[j], xdel_all[j], ydel_all[j], zdel_all[j])
        return out

    terminal_vals = prob.terminal.value(fwd.x[:, -1])
    return solver_module._run_sweeps(fwd, terminal_vals, wy, wz, driver_all,
                                     {"xdel": xdel_all}, plan, basis, sweeps, tol)


def per_node_variational(prob, fwd, base, basis, sweeps, tol):
    """variational_solve's sweeps with the driver gradients taken once per node below N."""
    wx, wy, wz, xdel_all, plan = solver_module._solve_setup(prob, fwd, basis)
    grid, n, m, d = fwd.grid, len(fwd.grid) - 1, prob.dim_y, prob.dim_x
    ydel_base, zdel_base, xdel_flow = (
        _convolve_nodes(w, np.moveaxis(v, 1, 0))
        for w, v in ((wy, base.y), (wz, base.z), (wx, fwd.grad_x)))
    const = np.zeros((n + 1, fwd.n_paths, m, d))
    gy = np.zeros((n + 1, fwd.n_paths, m, m))
    gz = np.zeros((n + 1, fwd.n_paths, m, m, d))
    for j in range(n):
        args = (grid[j], xdel_all[j], ydel_base[j], zdel_base[j])
        const[j] = np.einsum("pmd,pdk->pmk", prob.driver.grad_x(*args), xdel_flow[j])
        gy[j] = prob.driver.grad_y(*args)
        gz[j] = prob.driver.grad_z(*args)

    def driver_all(pdel_all, qdel_all):
        return (const + np.einsum("jpmk,jpkh->jpmh", gy, pdel_all)
                + np.einsum("jpmkc,jpkhc->jpmh", gz, qdel_all))

    terminal_vals = np.einsum("pmd,pdk->pmk", prob.terminal.grad(fwd.x[:, -1]),
                              fwd.grad_x[:, -1])
    frozen = {"xdel": xdel_all, "ydel": ydel_base - ydel_base.mean(axis=1, keepdims=True),
              "zdel": zdel_base - zdel_base.mean(axis=1, keepdims=True)}
    return solver_module._run_sweeps(fwd, terminal_vals, wy, wz, driver_all, frozen,
                                     plan[1:], basis, sweeps, tol)


def per_node_representation(fwd, var, coeffs):
    return np.stack([
        np.einsum("pmd,pdk,pkl->pml", var.p[:, i], fwd.grad_x_inv[:, i],
                  coeffs.diffusion(fwd.grid[i], fwd.x[:, i]))
        for i in range(len(fwd.grid))
    ], axis=1)


class TestOneCallPerSolve:
    """The whole-bundle coefficient calls reproduce per-node loops exactly.

    The driver values and gradients at node N differ (the loops leave them
    zero) but no scheme term reads them, so every output is bit-identical.
    """

    def gbm_case(self):
        density = DelayMeasure(T, density_pieces=((-0.3, -0.1, 1.5),))
        prob = DelayFbsdeProblem(
            horizon=T, dim_x=1, dim_y=1, x0=[1.0],
            forward=make_forward("gbm", {"mu": 0.1, "nu": 0.3}),
            driver=make_driver("affine", {"const": 0.2, "coeff_x": 0.3, "coeff_y": -0.2,
                                          "coeff_z": 0.1}),
            terminal=make_terminal("quadratic"),
            alpha_x=lag_atom(-0.1), alpha_y=density, alpha_z=lag_atom(),
            p=2.0, beta=1.0, gamma=0.5,
        )
        return prob, BasisSpec()

    def brownian_2d_case(self):
        prob = DelayFbsdeProblem(
            horizon=T, dim_x=2, dim_y=2, x0=[0.2, -0.1],
            forward=make_forward("brownian", {}, 2),
            driver=make_driver("affine", {"const": 0.1, "coeff_x": 0.2, "coeff_y": 0.3,
                                          "coeff_z": -0.2}, 2, 2),
            terminal=make_terminal("identity", {}, 2, 2),
            alpha_x=lag_atom(-0.1), alpha_y=lag_atom(), alpha_z=lag_atom(-0.15),
            p=2.0, beta=1.0, gamma=0.5,
        )
        return prob, BasisSpec(degree=1)

    @pytest.mark.parametrize("case", ["gbm_case", "brownian_2d_case"])
    def test_solves_equal_per_node_reference(self, case):
        prob, basis = getattr(self, case)()
        grid = np.linspace(0.0, T, 11)
        fwd = simulate_forward(prob.forward, prob.x0, grid, 400, 3)
        sol = picard_solve(prob, fwd, basis, 4, 1e-12)
        y, z, *_ = per_node_picard(prob, fwd, basis, 4, 1e-12)
        assert np.array_equal(sol.y, y) and np.array_equal(sol.z, z)
        var = variational_solve(prob, fwd, sol, basis, 4, 1e-12)
        p, q, *_ = per_node_variational(prob, fwd, sol, basis, 4, 1e-12)
        assert np.array_equal(var.p, p) and np.array_equal(var.q, q)
        z_rep = representation_z(fwd, var, prob.forward)
        assert np.array_equal(z_rep, per_node_representation(fwd, var, prob.forward))


class TestNodeBlocks:
    """Sweeps fit their nodes in stacked blocks sized by DESIGN_BUDGET.

    One-node blocks and whole-sweep blocks must give the same numbers, which
    guards the hand-off of Y from one block to the block below it.
    """

    def all_delays_case(self):
        prob = problem(
            make_driver("affine", {"const": 0.2, "coeff_x": 0.3, "coeff_y": -0.2,
                                   "coeff_z": 0.1}),
            make_terminal("quadratic"), alpha_x=lag_atom(-0.1),
            alpha_y=DelayMeasure(T, density_pieces=((-0.3, -0.1, 1.5),)), alpha_z=lag_atom(),
        )
        return prob, BasisSpec()

    brownian_2d_case = TestOneCallPerSolve.brownian_2d_case

    def solve_at_budget(self, monkeypatch, budget, case):
        monkeypatch.setattr(solver_module, "DESIGN_BUDGET", budget)
        prob, basis = case
        grid = np.linspace(0.0, T, 13)
        fwd = simulate_forward(prob.forward, prob.x0, grid, 400, 3)
        sol = picard_solve(prob, fwd, basis, 3, 1e-12)
        var = variational_solve(prob, fwd, sol, basis, 3, 1e-12)
        return sol, var

    @pytest.mark.parametrize("case", ["all_delays_case", "brownian_2d_case"])
    def test_block_size_does_not_change_the_solution(self, monkeypatch, case):
        one, middle, whole = (self.solve_at_budget(monkeypatch, budget, getattr(self, case)())
                              for budget in (1, 5 * 400 * 15 * 8, 2**40))
        for sol, var in (middle, whole):
            assert np.array_equal(sol.y, one[0].y) and np.array_equal(sol.z, one[0].z)
            assert np.array_equal(var.p, one[1].p) and np.array_equal(var.q, one[1].q)
            assert sol.diffs_y == one[0].diffs_y and var.diffs_q == one[1].diffs_q
        assert one[0].y.flags.c_contiguous and one[1].q.flags.c_contiguous

    @staticmethod
    def late_noise():
        """Brownian state switched on at t = 0.25: it stays at x0 through node 4 of 8."""
        def diffusion(t, x):
            on = (np.asarray(t) >= 0.25)[..., None, None]
            return np.broadcast_to(on, (*x.shape[:-1], 1, 1)).astype(float)

        brownian = make_forward("brownian")
        return SdeCoefficients("late_noise", 1, brownian.drift, diffusion,
                               brownian.grad_drift, brownian.grad_diffusion)

    @pytest.mark.parametrize("features, forward, node, sweep", [
        # the state is x0 at nodes 1-4, inside the stack of nodes 1-7
        (("x",), "late_noise", 4, 1),
        # node 7 reads node 3 through the same atom in y and z, where both are
        # fitted quadratics in x_3: y, z and their squares and product span at
        # most the five monomials of x_3 up to degree 4
        (("x", "ydel", "zdel"), "brownian", 7, 2),
    ])
    def test_failure_inside_a_block_names_its_node(self, monkeypatch, features, forward,
                                                   node, sweep):
        monkeypatch.setattr(solver_module, "DESIGN_BUDGET", 2**40)
        coeffs = self.late_noise() if forward == "late_noise" else make_forward(forward)
        prob = problem(make_driver("zero"), make_terminal("identity"), alpha_y=lag_atom(),
                       alpha_z=lag_atom(), forward=coeffs)
        with pytest.raises(ValueError, match=f"^regression failed at node {node}, "
                                             f"sweep {sweep}: "
                                             "rank-deficient design with zero ridge"):
            solve(prob, n_steps=8, n_paths=400,
                  basis=BasisSpec(features=features, ridge=0.0), sweeps=2)


def path_major_copy(fwd):
    """The bundle's arrays as path-major contiguous copies."""
    return forward_module.ForwardBundle(
        grid=fwd.grid, **{name: np.ascontiguousarray(getattr(fwd, name))
                          for name in ("dw", "x", "grad_x")})


class TestBundleLayout:
    """Simulated bundles hold node-major memory, which moves no output bit."""

    CASES = ["gbm_case", "brownian_2d_case"]

    @staticmethod
    def case(name):
        prob, basis = getattr(TestOneCallPerSolve(), name)()
        fwd = simulate_forward(prob.forward, prob.x0, np.linspace(0.0, T, 11), 400, 3)
        return prob, basis, fwd

    @pytest.mark.parametrize("name", CASES)
    def test_node_slices_are_contiguous(self, name):
        *_, fwd = self.case(name)
        for array in (fwd.x, fwd.dw, fwd.grad_x):
            assert np.moveaxis(array, 0, 1).flags.c_contiguous

    @pytest.mark.parametrize("name", CASES)
    def test_solves_equal_on_a_path_major_copy(self, name):
        prob, basis, fwd = self.case(name)
        copy = path_major_copy(fwd)
        assert copy.x.flags.c_contiguous and np.array_equal(copy.x, fwd.x)
        sols = [picard_solve(prob, bundle, basis, 4, 1e-12) for bundle in (fwd, copy)]
        assert np.array_equal(sols[0].y, sols[1].y) and np.array_equal(sols[0].z, sols[1].z)
        assert sols[0].diffs_y == sols[1].diffs_y and sols[0].diffs_z == sols[1].diffs_z
        vars_ = [variational_solve(prob, bundle, sol, basis, 4, 1e-12)
                 for bundle, sol in zip((fwd, copy), sols)]
        assert np.array_equal(vars_[0].p, vars_[1].p) and np.array_equal(vars_[0].q, vars_[1].q)
        assert vars_[0].diffs_p == vars_[1].diffs_p and vars_[0].diffs_q == vars_[1].diffs_q
        z_reps = [representation_z(bundle, var, prob.forward)
                  for bundle, var in zip((fwd, copy), vars_)]
        assert np.array_equal(z_reps[0], z_reps[1])

    @pytest.mark.parametrize("name", CASES)
    def test_fd_check_equals_on_a_path_major_copy(self, monkeypatch, name):
        prob, basis, _ = self.case(name)
        args = (prob, [1.0] * prob.dim_x, [0.5, 0.25], 400, 10, 3, basis, 4, 1e-12)
        node_major = fd_directional_check(*args)

        def simulate_path_major(*sim_args):
            return path_major_copy(simulate_forward(*sim_args))

        monkeypatch.setattr(solver_module, "simulate_forward", simulate_path_major)
        path_major = fd_directional_check(*args)
        assert repr(path_major) == repr(node_major)


class TestOncePerSolveFactors:
    """Stacks of sweep-invariant features are factored once per solve."""

    @staticmethod
    def count_factorizations(monkeypatch):
        calls = []
        cholesky = np.linalg.cholesky

        def counted(a):
            calls.append(np.shape(a))
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        return calls

    @pytest.mark.parametrize("case", ["gbm_case", "brownian_2d_case"])
    @pytest.mark.parametrize("sweeps", [1, 2, 5])
    def test_derivative_solve_factors_each_stack_once(self, monkeypatch, case, sweeps):
        prob, basis, fwd = TestBundleLayout.case(case)
        sol = picard_solve(prob, fwd, basis, 4, 1e-12)
        calls = self.count_factorizations(monkeypatch)
        var = variational_solve(prob, fwd, sol, basis, sweeps, 1e-15)
        assert var.sweeps == sweeps
        later = solver_module._solve_setup(prob, fwd, basis)[-1][1]
        assert len(calls) == len(later)

    def test_base_solve_reuses_the_invariant_stacks_of_sweep_one(self, monkeypatch):
        # sweep 1 factors every stack; later sweeps factor only the stacks
        # that read the iterate's ydel or zdel
        prob, basis, fwd = TestBundleLayout.case("gbm_case")
        first, later = solver_module._solve_setup(prob, fwd, basis)[-1]
        calls = self.count_factorizations(monkeypatch)
        picard_solve(prob, fwd, basis, 3, 1e-15)
        new_in_sweep_two = [s for s in later if s not in first]
        iterate_reading = [s for s in later if {"ydel", "zdel"} & set(s[2])]
        assert iterate_reading and any(s in first for s in later)
        assert len(calls) == len(first) + len(new_in_sweep_two) + len(iterate_reading)

    def test_rebuilt_designs_are_bitwise_equal_across_sweeps(self, monkeypatch):
        prob, basis, fwd = TestBundleLayout.case("gbm_case")
        sol = picard_solve(prob, fwd, basis, 4, 1e-12)
        records = record_designs(monkeypatch, lambda design: design.copy())
        variational_solve(prob, fwd, sol, basis, 3, 1e-15)
        later = solver_module._solve_setup(prob, fwd, basis)[-1][1]
        sweeps = [records[i: i + len(later)] for i in range(0, len(records), len(later))]
        assert len(sweeps) == 3
        for designs in sweeps[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(designs, sweeps[0], strict=True))

    def test_no_design_outlives_its_stack(self, monkeypatch):
        # every design is freed before the next stack builds its own; the
        # solve keeps the factors alone
        prob, basis, fwd = TestBundleLayout.case("gbm_case")
        refs, alive = [], []

        def recording(design, ridge, factor=None):
            alive.append(sum(ref() is not None for ref in refs))
            refs.append(weakref.ref(design))
            return DesignSolver(design, ridge, factor)

        monkeypatch.setattr(solver_module, "DesignSolver", recording)
        sol = picard_solve(prob, fwd, basis, 3, 1e-15)
        variational_solve(prob, fwd, sol, basis, 3, 1e-15)
        assert len(refs) > 3 and not any(alive)
        assert all(ref() is None for ref in refs)
