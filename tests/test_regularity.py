import numpy as np
import pytest

from delaybsde import regularity
from delaybsde.forward import make_forward, simulate_forward
from delaybsde.generators import make_driver, make_terminal
from delaybsde.measures import DelayMeasure
from delaybsde.regression import BasisSpec, DesignSolver
from delaybsde.regularity import (
    apriori_scaling,
    best_approx_check,
    fit_loglog_slope,
    l2_regularity,
    moment_check,
    y_increment_rate,
)
from delaybsde.solver import DelayFbsdeProblem, picard_solve, representation_z, variational_solve

T = 0.5


def make_problem(driver, terminal, alpha_y=None, alpha_z=None, x0=0.0):
    zero = DelayMeasure(T)
    return DelayFbsdeProblem(
        horizon=T, dim_x=1, dim_y=1, x0=[x0],
        forward=make_forward("brownian"),
        driver=driver, terminal=terminal,
        alpha_x=zero, alpha_y=alpha_y or zero, alpha_z=alpha_z or zero,
        p=2.0, beta=1.0, gamma=0.5,
    )


def solve_on(prob, n_steps, n_paths, seed=5, tol=1e-4, sweeps=8):
    grid = np.linspace(0.0, T, n_steps + 1)
    fwd = simulate_forward(prob.forward, prob.x0, grid, n_paths, seed)
    sol = picard_solve(prob, fwd, BasisSpec(), sweeps, tol)
    return fwd, sol


def reference_control(prob, n_steps, n_paths, seed=5):
    fwd, sol = solve_on(prob, n_steps, n_paths, seed)
    var = variational_solve(prob, fwd, sol, BasisSpec(), 6, 1e-4)
    return fwd, representation_z(fwd, var, prob.forward)


class TestSlopeFit:
    def test_recovers_exact_power_law(self):
        sizes = np.array([0.1, 0.05, 0.025, 0.0125])
        slope, intercept, resid = fit_loglog_slope(sizes, 3.0 * sizes**1.5)
        assert slope == pytest.approx(1.5, rel=1e-10)
        assert resid < 1e-20

    def test_needs_three_points(self):
        with pytest.raises(ValueError, match="three"):
            fit_loglog_slope([0.1, 0.05], [1.0, 0.5])


class TestYIncrementRate:
    def test_brownian_variance_slope(self):
        prob = make_problem(make_driver("zero"), make_terminal("identity"))
        _, sol = solve_on(prob, 40, 10_000)
        seps = [T / 40, T / 20, T / 10, T / 5]
        report = y_increment_rate(sol, 2.0, seps, target_tol=0.15)
        assert report.target_slope == 1.0
        assert report.passed, f"slope {report.slope}"

    def test_brownian_fourth_moment_slope(self):
        prob = make_problem(make_driver("zero"), make_terminal("identity"))
        _, sol = solve_on(prob, 40, 10_000)
        seps = [T / 40, T / 20, T / 10, T / 5]
        report = y_increment_rate(sol, 4.0, seps, target_tol=0.3)
        assert report.target_slope == 2.0
        assert report.passed, f"slope {report.slope}"

    def test_deterministic_delay_fixture_is_smoother(self):
        prob = make_problem(
            make_driver("linear_ydel", {"coeff": 0.1, "lipschitz": 0.1}),
            make_terminal("constant", {"value": 1.0}),
            alpha_y=DelayMeasure(T, atoms=((-0.25, 1.0),)),
        )
        _, sol = solve_on(prob, 40, 1000, tol=1e-10, sweeps=12)
        report = y_increment_rate(sol, 2.0, [T / 20, T / 10, T / 5], target_tol=10.0)
        # Lipschitz-in-time values: second moment of increments scales at
        # least quadratically, far above the generic rate
        assert report.slope >= 1.0

    def test_off_grid_separation_rejected(self):
        prob = make_problem(make_driver("zero"), make_terminal("identity"))
        _, sol = solve_on(prob, 10, 500)
        with pytest.raises(ValueError, match="multiple"):
            y_increment_rate(sol, 2.0, [T / 7, T / 5, T / 3])

    def test_separation_beyond_horizon_rejected(self):
        prob = make_problem(make_driver("zero"), make_terminal("identity"))
        _, sol = solve_on(prob, 10, 500)
        with pytest.raises(ValueError, match="exceeds the horizon"):
            y_increment_rate(sol, 2.0, [T / 10, T / 5, 2 * T])


class TestL2Regularity:
    def test_brownian_quadratic_slope_one(self):
        prob = make_problem(make_driver("zero"), make_terminal("quadratic"), x0=1.0)
        fwd, z_ref = reference_control(prob, 160, 4000)
        report = l2_regularity(fwd, z_ref, [10, 20, 40, 80], BasisSpec(features=("x",)))
        assert report.passed, f"slope {report.slope}"
        # closed form: the functional is 4 * T * |pi| / 2 up to estimation noise
        expected = 2.0 * T * np.asarray(report.sizes)
        assert np.allclose(report.values, expected, rtol=0.35)
        # nested refinement never increases the functional
        assert all(np.diff(report.values) < 0)

    def test_constant_control_gives_vanishing_functional(self):
        prob = make_problem(
            make_driver("linear_zdel", {"coeff": 0.1, "lipschitz": 0.1}),
            make_terminal("identity"),
            alpha_z=DelayMeasure(T, atoms=((-0.25, 1.0),)),
        )
        fwd, z_ref = reference_control(prob, 160, 2000)
        values = [
            _functional(fwd, z_ref, nc) for nc in (10, 20, 40)
        ]
        assert max(values) < 1e-3

    def test_constant_control_measures_no_rate(self):
        prob = make_problem(
            make_driver("linear_zdel", {"coeff": 0.1, "lipschitz": 0.1}),
            make_terminal("identity"),
            alpha_z=DelayMeasure(T, atoms=((-0.25, 1.0),)),
        )
        fwd, z_ref = reference_control(prob, 40, 1000)
        report = l2_regularity(fwd, z_ref, [5, 10, 20])
        assert not report.measured and not report.passed
        assert np.isnan(report.slope) and report.scale == pytest.approx(T, rel=1e-6)
        assert max(report.values) <= regularity.ROUNDING_LEVEL * report.scale
        # a state-dependent control of the same size is measured
        report = l2_regularity(fwd, z_ref + 0.1 * fwd.x[..., None], [5, 10, 20])
        assert report.measured and np.isfinite(report.slope)

    def test_first_cell_is_fitted_on_the_intercept_alone(self, monkeypatch):
        # every path starts at x0, so the first cell's projection is a sample
        # mean, well posed even at zero ridge; the other cells share one stack
        prob = make_problem(make_driver("zero"), make_terminal("quadratic"), x0=1.0)
        fwd, z_ref = reference_control(prob, 40, 500)
        shapes = []

        def recording(design, ridge):
            shapes.append(design.shape)
            return DesignSolver(design, ridge)

        monkeypatch.setattr(regularity, "DesignSolver", recording)
        for n_coarse in (10, 1):
            assert regularity.coarse_control_error(fwd, z_ref, n_coarse,
                                                   BasisSpec(ridge=0.0)) > 0
        assert shapes == [(1, 500, 1), (9, 500, 3), (1, 500, 1)]

    def test_mesh_must_divide_reference(self):
        prob = make_problem(make_driver("zero"), make_terminal("identity"))
        fwd, z_ref = reference_control(prob, 32, 500)
        with pytest.raises(ValueError, match="does not divide"):
            l2_regularity(fwd, z_ref, [10, 20, 40])


def _functional(fwd, z_ref, n_coarse):
    from delaybsde.regularity import coarse_control_error

    return coarse_control_error(fwd, z_ref, n_coarse, BasisSpec(features=("x",)))


class TestBestApprox:
    def test_constant_control_is_tie(self):
        prob = make_problem(
            make_driver("linear_zdel", {"coeff": 0.1, "lipschitz": 0.1}),
            make_terminal("identity"),
            alpha_z=DelayMeasure(T, atoms=((-0.25, 1.0),)),
        )
        fwd, z_ref = reference_control(prob, 80, 2000)
        out = best_approx_check(fwd, z_ref, 10)
        assert out["passed"]
        assert out["avg_error"] < 1e-6 and out["node_error"] < 1e-6

    def test_time_average_beats_node_sampling_strictly(self):
        # a drifted state makes the conditional cell average differ from the
        # node sample, so the optimality gap is genuinely strict
        zero = DelayMeasure(T)
        prob = DelayFbsdeProblem(
            horizon=T, dim_x=1, dim_y=1, x0=[1.0],
            forward=make_forward("linear_drift", {"rate": 1.0, "vol": 0.3}),
            driver=make_driver("zero"), terminal=make_terminal("quadratic"),
            alpha_x=zero, alpha_y=zero, alpha_z=zero, p=2.0, beta=1.0, gamma=0.5,
        )
        fwd, z_ref = reference_control(prob, 160, 4000)
        out = best_approx_check(fwd, z_ref, 10)
        assert out["passed"]
        assert out["avg_error"] < out["node_error"] - 3 * out["se"]


class TestAprioriScaling:
    def fixture(self):
        return make_problem(
            make_driver("linear_zdel", {"coeff": 0.1, "lipschitz": 0.1}),
            make_terminal("identity"),
            alpha_z=DelayMeasure(T, atoms=((-0.25, 1.0),)),
        )

    def test_zero_perturbation_gives_zero(self):
        prob = self.fixture()
        grid = np.linspace(0.0, T, 11)
        fwd = simulate_forward(prob.forward, prob.x0, grid, 1000, 5)
        report = apriori_scaling(prob, fwd, [0.0, 0.1])
        assert report.s_norms[0] == 0.0
        assert report.h_norms_z[0] == 0.0

    def test_quadratic_scaling_and_bounded_ratio(self):
        prob = self.fixture()
        grid = np.linspace(0.0, T, 21)
        fwd = simulate_forward(prob.forward, prob.x0, grid, 4000, 5)
        eps = [0.4, 0.2, 0.1]
        report = apriori_scaling(prob, fwd, eps)
        for k in range(2):
            ratio = report.s_norms[k] / report.s_norms[k + 1]
            assert ratio == pytest.approx(4.0, rel=0.2)
        spread = (max(report.ratios) - min(report.ratios)) / min(report.ratios)
        assert spread < 0.25

    def test_linear_response_in_terminal_only(self):
        prob = self.fixture()
        grid = np.linspace(0.0, T, 11)
        fwd = simulate_forward(prob.forward, prob.x0, grid, 1000, 5)
        report = apriori_scaling(prob, fwd, [0.2, 0.1], driver_shift=0.0)
        # a pure terminal shift propagates as a constant: dY == eps exactly
        assert report.s_norms[0] == pytest.approx(
            0.04 * np.exp(prob.beta * T), rel=1e-6
        )


class TestMomentCheck:
    def test_zero_data_gives_zero_norms(self):
        prob = make_problem(make_driver("zero"),
                            make_terminal("constant", {"value": 0.0}))
        fwd, sol = solve_on(prob, 10, 1000)
        out = moment_check(prob, fwd, sol)
        assert out["lhs"] == 0.0
        assert out["rhs"] == 0.0

    def test_brownian_moments_match_closed_form(self):
        prob = make_problem(make_driver("zero"), make_terminal("identity"))
        prob = prob.with_x0([0.0])
        from dataclasses import replace

        prob = replace(prob, beta=0.0)
        fwd, sol = solve_on(prob, 20, 10_000)
        out = moment_check(prob, fwd, sol, p=2.0)
        # E int |W_t|^2 dt = T^2 / 2 and E |W_T|^2 = T
        assert out["h_norm_y"] == pytest.approx(T**2 / 2, rel=0.1)
        assert out["rhs_terminal"] == pytest.approx(T, rel=0.1)
        assert out["finite"]

    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_ratio_invariant_under_driver_scaling(self, p):
        # zero terminal and driver c: Y = c (T - t), so lhs and the data
        # functional both scale as c^p
        ratios = []
        for c in (1.0, 2.0, 4.0):
            prob = make_problem(make_driver("affine", {"const": c}),
                                make_terminal("constant", {"value": 0.0}))
            fwd, sol = solve_on(prob, 10, 500)
            out = moment_check(prob, fwd, sol, p=p)
            weights = np.exp(prob.beta * fwd.grid[:-1]) * np.diff(fwd.grid)
            assert out["rhs_terminal"] == 0.0
            assert out["rhs_driver"] == pytest.approx((c**2 * np.sum(weights)) ** (p / 2))
            ratios.append(out["ratio"])
        assert ratios == pytest.approx([ratios[0]] * 3, rel=1e-9)

    def test_cp_bound_recorded_when_supplied(self):
        prob = make_problem(make_driver("zero"), make_terminal("identity"))
        fwd, sol = solve_on(prob, 10, 1000)
        out = moment_check(prob, fwd, sol, p=2.0, cp=1e6)
        assert "bounded_by_cp" in out
        assert out["bounded_by_cp"]

    def test_contraction_feasible_problem_respects_its_constant(self):
        from dataclasses import replace

        from delaybsde.constants import constants_report

        atom = DelayMeasure(T, atoms=((-0.25, 1.0),))
        prob = make_problem(
            make_driver("linear_zdel", {"coeff": 1e-4, "lipschitz": 1e-7}),
            make_terminal("identity"),
            alpha_z=atom,
        )
        prob = replace(prob, alpha_y=atom, p=4.0)
        report = constants_report(prob.structural_params())
        assert report.feasible_contraction
        fwd, sol = solve_on(prob, 20, 4000)
        out = moment_check(prob, fwd, sol, p=4.0, cp=report.cp)
        assert out["finite"]
        assert out["bounded_by_cp"]
