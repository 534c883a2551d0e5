import numpy as np
import pytest

from delaybsde.regression import (
    FEATURES,
    BasisSpec,
    DesignSolver,
    _exponents,
    expand_features,
)


def gaussian_pair(m, t, T, seed=0):
    """Samples of (W_t, W_T) from one Brownian path family."""
    rng = np.random.default_rng(seed)
    w_t = rng.normal(0.0, np.sqrt(t), m)
    w_T = w_t + rng.normal(0.0, np.sqrt(T - t), m)
    return w_t, w_T


def fit(features, targets, degree=2, ridge=1e-8):
    """Coefficients and fitted values of targets on the polynomial basis of features.

    The fit runs on a stack of one design, and must give the same numbers as
    the design alone.
    """
    design = expand_features(features, degree)
    targets = np.asarray(targets, dtype=float)
    columns = targets.reshape(len(design), -1)
    stacked = DesignSolver(design[None], ridge)
    coeffs = stacked.solve(columns[None])
    fitted = stacked.fitted(coeffs)
    single = DesignSolver(design, ridge)
    assert np.array_equal(coeffs[0], single.solve(columns))
    assert np.array_equal(fitted[0], single.fitted(coeffs[0]))
    return coeffs[0].reshape(-1, *targets.shape[1:]), fitted[0].reshape(targets.shape)


def column_builder(features, degree):
    """The column-by-column monomial builder that expand_features replaced."""
    features = np.asarray(features, dtype=float)
    exps = _exponents(features.shape[1], degree)
    design = np.ones((features.shape[0], len(exps)))
    for col, exp in enumerate(exps):
        for j, power in enumerate(exp):
            if power:
                design[:, col] *= features[:, j] ** power
    return design


def svd_ridge(design, ridge, targets):
    """Reference ridge solve: thin SVD and the filter s / (s^2 + lambda)."""
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    penalty = ridge * float(np.sum(s**2)) / design.shape[1]
    return vt.T @ ((s / (s**2 + penalty))[:, None] * (u.T @ targets.reshape(len(design), -1)))


def assert_columns_close(actual, expected, rtol=1e-8):
    """Relative agreement in the Euclidean norm of every column."""
    actual = actual.reshape(len(actual), -1)
    err = np.linalg.norm(actual - expected, axis=0)
    assert np.all(err <= rtol * np.linalg.norm(expected, axis=0)), err


class TestExpansion:
    def test_degree_two_column_count(self):
        design = expand_features(np.ones((30, 3)), 2)
        assert design.shape == (30, 10)  # 1 + 3 + 6

    def test_intercept_first(self):
        design = expand_features(np.arange(12.0).reshape(4, 3), 2)
        assert np.all(design[:, 0] == 1.0)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    @pytest.mark.parametrize("n_feat", [1, 2, 3])
    def test_equals_column_builder(self, degree, n_feat):
        feats = np.random.default_rng(degree + 10 * n_feat).normal(size=(257, n_feat))
        design = expand_features(feats, degree)
        assert np.array_equal(design, column_builder(feats, degree))

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_feature_blocks_equal_column_builder(self, degree):
        # blocks of widths 1, 2 x 2 (flattened) and 1 over a stack of 3
        # nodes, read as their concatenation
        rng = np.random.default_rng(degree)
        blocks = [rng.normal(size=(3, 257, 1)), rng.normal(size=(3, 257, 2, 2)),
                  rng.normal(size=(3, 257))[..., None]]
        design = expand_features(blocks, degree, (3, 257))
        feats = np.concatenate([b.reshape(3, 257, -1) for b in blocks], axis=-1)
        assert np.array_equal(design, expand_features(feats, degree))
        for node in range(3):
            assert np.array_equal(design[node], column_builder(feats[node], degree))

    def test_no_block_gives_the_intercept(self):
        design = expand_features([], 2, (4, 50))
        assert design.shape == (4, 50, 1) and np.all(design == 1.0)

    def test_columns_are_contiguous(self):
        design = expand_features(np.ones((50, 2)), 2)
        assert design.T.flags.c_contiguous


def _designs(m=2000):
    rng = np.random.default_rng(21)
    x = rng.normal(size=(m, 2))
    return {
        "well_conditioned": expand_features(x, 2),
        # node 0: every path sits at x0 = 0 and the delayed features vanish
        "node_zero": expand_features(np.zeros((m, 3)), 2),
        "zero_delayed_column": expand_features(
            np.column_stack([x[:, 0], np.zeros(m), x[:, 1]]), 2),
    }


class TestCholeskyAgainstSvd:
    @pytest.mark.parametrize("name", list(_designs()))
    @pytest.mark.parametrize("n_targets", [1, 3])
    def test_coefficients_and_fitted_values(self, name, n_targets):
        design = _designs()[name]
        rng = np.random.default_rng(n_targets)
        targets = rng.normal(size=(len(design), n_targets)) + design[:, -1:]
        if n_targets == 1:
            targets = targets[:, 0]
        solver = DesignSolver(design)
        coeffs = solver.solve(targets)
        assert coeffs.shape == (design.shape[1],) + targets.shape[1:]
        expected = svd_ridge(design, 1e-8, targets)
        assert_columns_close(coeffs, expected)
        assert_columns_close(solver.fitted(coeffs), design @ expected)

    def test_fitted_values_on_a_nonzero_constant_design(self):
        # Rank one with entries 1, 0.3, 0.09, ...: the coefficients along the
        # null space are set by the ridge alone and carry the Gram matrix's
        # condition (about k / ridge) times machine precision, so only the
        # fitted values are compared.
        design = expand_features(np.full((2000, 3), 0.3), 2)
        targets = np.random.default_rng(3).normal(size=(2000, 2))
        solver = DesignSolver(design)
        fitted = solver.fitted(solver.solve(targets))
        assert_columns_close(fitted, design @ svd_ridge(design, 1e-8, targets))

    @pytest.mark.parametrize("name", list(_designs()))
    def test_condition_is_the_singular_value_ratio(self, name):
        design = _designs()[name]
        s = np.linalg.svd(design, compute_uv=False)
        expected = s[0] / s[-1] if s[-1] > 0 else float("inf")
        assert DesignSolver(design).condition == expected

    @staticmethod
    def _ill_conditioned(m=1024):
        # Columns 1 and 1 + 2^-33 v with v = +-1: every Gram entry is exactly
        # m in any summation order, so X^T X is singular in floating point
        # although the design has full rank (condition about 1.7e10).
        v = np.tile([1.0, -1.0], m // 2)
        return np.column_stack([np.ones(m), 1.0 + 2.0**-33 * v])

    def test_zero_ridge_on_an_ill_conditioned_full_rank_design(self):
        design = self._ill_conditioned()
        s = np.linalg.svd(design, compute_uv=False)
        assert 1e9 < s[0] / s[-1] < 1e11
        with pytest.raises(ValueError, match="not positive definite at ridge 0.0"):
            DesignSolver(design, ridge=0.0)

    def test_tiny_ridge_names_the_ridge(self):
        with pytest.raises(ValueError, match="ridge 1e-300; set a larger ridge"):
            DesignSolver(self._ill_conditioned(), ridge=1e-300)


def _stack_features(m=700):
    """Sweep-like node features (x, xdel, ydel) of four nodes, as one stack."""
    rng = np.random.default_rng(31)
    x = rng.normal(size=(m, 3))
    return np.stack([
        x,
        np.zeros((m, 3)),  # node 0: every path sits at x0 = 0, no delay reached yet
        np.column_stack([x[:, 0], x[:, 1], np.zeros(m)]),  # a delayed column still zero
        x**3,
    ])


class TestStackedSolver:
    def test_stacked_expansion_equals_per_design(self):
        feats = _stack_features()
        designs = expand_features(feats, 2)
        assert designs.shape == (4, 700, 10)
        assert np.swapaxes(designs, -1, -2).flags.c_contiguous
        for i, f in enumerate(feats):
            assert np.array_equal(designs[i], expand_features(f, 2))

    @pytest.mark.parametrize("n_targets", [1, 3])
    def test_stack_equals_per_design_solvers(self, n_targets):
        feats = _stack_features()
        designs = expand_features(feats, 2)
        targets = np.random.default_rng(n_targets).normal(size=(4, 700, n_targets))
        stacked = DesignSolver(designs)
        coeffs = stacked.solve(targets)
        fitted = stacked.fitted(coeffs)
        assert coeffs.shape == (4, 10, n_targets) and fitted.shape == targets.shape
        for i, f in enumerate(feats):
            single = DesignSolver(expand_features(f, 2))
            assert np.array_equal(coeffs[i], single.solve(targets[i]))
            assert np.array_equal(fitted[i], single.fitted(coeffs[i]))
            assert single.penalty == stacked.penalty[i]

    def test_kept_factor_gives_the_same_fit_without_factoring(self, monkeypatch):
        designs = expand_features(_stack_features(), 2)
        targets = np.random.default_rng(5).normal(size=(4, 700, 2))
        first = DesignSolver(designs)
        monkeypatch.setattr(np.linalg, "cholesky", None)
        again = DesignSolver(designs.copy(order="K"), factor=first.factor)
        coeffs = again.solve(targets)
        assert np.array_equal(coeffs, first.solve(targets))
        assert np.array_equal(again.fitted(coeffs), first.fitted(coeffs))
        assert np.array_equal(again.penalty, first.penalty)

    def test_any_leading_batch_shape(self):
        feats = _stack_features().reshape(2, 2, 700, 3)
        targets = np.random.default_rng(4).normal(size=(2, 2, 700, 1))
        solver = DesignSolver(expand_features(feats, 2))
        flat = DesignSolver(expand_features(feats.reshape(4, 700, 3), 2))
        assert np.array_equal(solver.solve(targets).reshape(4, 10, 1),
                              flat.solve(targets.reshape(4, 700, 1)))

    def test_zero_ridge_names_the_rank_deficient_design(self):
        designs = expand_features(_stack_features()[[0, 3, 1, 0]], 2)
        with pytest.raises(ValueError, match="rank-deficient design at stack index 2 "):
            DesignSolver(designs, ridge=0.0)
        with pytest.raises(ValueError, match="^rank-deficient design with zero ridge"):
            DesignSolver(designs[2], ridge=0.0)

    def test_failed_factorization_names_the_design(self):
        good = np.column_stack([np.ones(1024), np.random.default_rng(5).normal(size=1024)])
        stack = np.stack([good, TestCholeskyAgainstSvd._ill_conditioned(), good])
        with pytest.raises(ValueError, match="Gram matrix at stack index 1 is not positive "
                                             "definite at ridge 0.0"):
            DesignSolver(stack, ridge=0.0)

    def test_condition_is_a_float_over_the_full_rank_designs(self):
        designs = expand_features(_stack_features(), 2)
        singles = [DesignSolver(d).condition for d in designs]
        assert np.isinf(singles[1]) and singles[2] > 1e12
        condition = DesignSolver(designs).condition
        assert type(condition) is float
        assert condition == max(singles[0], singles[3]) < 1e12
        # a stack with no design of full rank reads its largest ratio
        assert np.isinf(DesignSolver(designs[1:3]).condition)


class TestBasisSpec:
    def test_default_selects_every_feature(self):
        assert BasisSpec().features == FEATURES

    @pytest.mark.parametrize("features, message", [
        (("X",), "unknown basis feature 'X'"),
        (("x", "x_lags"), "unknown basis feature 'x_lags'"),
        (("x", "x"), "basis features repeat"),
        ((), "at least one feature"),
    ])
    def test_bad_feature_lists_rejected(self, features, message):
        with pytest.raises(ValueError, match=message):
            BasisSpec(features=features)


class TestFit:
    def test_constant_target_recovered(self):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(500, 2))
        _, fitted = fit(feats, np.full(500, 5.0))
        assert fitted[0] == pytest.approx(5.0, rel=1e-6)
        assert np.sqrt(np.mean((fitted - 5.0) ** 2)) < 1e-6

    def test_martingale_projection_slope(self):
        m, t, T = 10_000, 0.3, 1.0
        w_t, w_T = gaussian_pair(m, t, T, seed=2)
        coeffs, _ = fit(w_t[:, None], w_T, degree=1, ridge=0.0)
        slope = coeffs[1]
        se = 1.0 / np.sqrt(m * t)
        assert abs(slope - 1.0) < 3 * np.sqrt(T - t) * se

    def test_gaussian_conditional_second_moment(self):
        m, t, T = 10_000, 0.4, 1.0
        w_t, w_T = gaussian_pair(m, t, T, seed=3)
        (const, lin, quad), _ = fit(w_t[:, None], w_T**2, degree=2, ridge=0.0)
        assert abs(quad - 1.0) < 0.1
        assert abs(lin) < 0.1
        assert abs(const - (T - t)) < 0.05

    def test_projection_orthogonality(self):
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(2000, 2))
        targets = rng.normal(size=2000)
        design = expand_features(feats, 2)
        solver = DesignSolver(design, ridge=0.0)
        resid = targets - solver.fitted(solver.solve(targets))
        for col in range(design.shape[1]):
            dot = abs(np.dot(resid, design[:, col]))
            assert dot < 1e-8 * np.linalg.norm(resid) * np.linalg.norm(design[:, col]) + 1e-8

    def test_deterministic_coefficients(self):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(800, 3))
        targets = rng.normal(size=800)
        a, _ = fit(feats, targets)
        b, _ = fit(feats, targets)
        assert np.array_equal(a, b)

    def test_rank_deficient_without_ridge_raises(self):
        feats = np.ones((200, 2))  # constant columns duplicate the intercept
        with pytest.raises(ValueError, match="ridge"):
            fit(feats, np.ones(200), degree=1, ridge=0.0)

    def test_rank_deficient_with_ridge_shrinks_to_mean(self):
        feats = np.ones((200, 2))
        _, fitted = fit(feats, np.full(200, 3.0), degree=1, ridge=1e-8)
        assert fitted[0] == pytest.approx(3.0, rel=1e-6)

    def test_underdetermined_guard(self):
        feats = np.random.default_rng(0).normal(size=(40, 3))
        with pytest.raises(ValueError, match="basis size"):
            fit(feats, np.zeros(40), degree=2)

    def test_predictions_affine_in_targets(self):
        rng = np.random.default_rng(7)
        feats = rng.normal(size=(600, 2))
        y1 = rng.normal(size=600)
        y2 = rng.normal(size=600)
        combo, _ = fit(feats, 2.0 * y1 - 3.0 * y2)
        parts = 2.0 * fit(feats, y1)[0] - 3.0 * fit(feats, y2)[0]
        assert np.allclose(combo, parts, atol=1e-12)

    def test_multi_target_columns(self):
        rng = np.random.default_rng(6)
        feats = rng.normal(size=(500, 1))
        targets = np.column_stack([feats[:, 0], 2.0 * feats[:, 0]])
        _, fitted = fit(feats, targets, degree=1)
        assert np.allclose(fitted[:, 1], 2.0 * fitted[:, 0], atol=1e-8)


class TestPredict:
    def test_linear_fit_pass_through(self):
        feats = np.linspace(-1, 1, 200)[:, None]
        coeffs, _ = fit(feats, feats[:, 0], degree=1, ridge=0.0)
        new_row = expand_features(np.array([[0.3]]), 1)
        assert (new_row @ coeffs)[0] == pytest.approx(0.3, abs=1e-10)

    def test_same_features_same_prediction(self):
        rng = np.random.default_rng(8)
        feats = rng.normal(size=(300, 2))
        feats[10] = feats[0]  # duplicated row
        _, fitted = fit(feats, rng.normal(size=300))
        assert fitted[10] == fitted[0]


class TestTowerConsistency:
    def test_nested_projections_agree_statistically(self):
        # project W_T^2 to time t, then to time s, versus directly to s
        m, s, t, T = 20_000, 0.2, 0.5, 1.0
        rng = np.random.default_rng(9)
        w_s = rng.normal(0.0, np.sqrt(s), m)
        w_t = w_s + rng.normal(0.0, np.sqrt(t - s), m)
        w_T = w_t + rng.normal(0.0, np.sqrt(T - t), m)
        _, inner = fit(w_t[:, None], w_T**2, degree=2, ridge=0.0)
        _, two_step = fit(w_s[:, None], inner, degree=2, ridge=0.0)
        _, direct = fit(w_s[:, None], w_T**2, degree=2, ridge=0.0)
        rms = np.sqrt(np.mean((two_step - direct) ** 2))
        se = np.std(w_T**2) / np.sqrt(m)
        assert rms < 3 * se + 0.02
