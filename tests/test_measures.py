import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaybsde.measures import DelayMeasure, _cell_masses, cell_weights


def unit_atom(loc, T=1.0):
    return DelayMeasure(T, atoms=((loc, 1.0),))


class TestMassOps:
    def test_total_mass_single_atom(self):
        assert unit_atom(-0.25).total_mass() == 1.0

    def test_total_mass_density(self):
        m = DelayMeasure(1.0, density_pieces=((-0.5, 0.0, 2.0),))
        assert m.total_mass() == pytest.approx(1.0)

    def test_total_mass_two_atoms(self):
        m = DelayMeasure(1.0, atoms=((-0.1, 0.3), (-0.4, 0.7)))
        assert m.total_mass() == pytest.approx(1.0)

    def test_exp_weighted_atom(self):
        m = unit_atom(-0.5)
        assert m.exp_weighted_mass(1.0) == pytest.approx(np.exp(0.5), rel=1e-12)

    def test_exp_weighted_beta_zero_reduces_to_mass(self):
        m = DelayMeasure(1.0, atoms=((-0.3, 0.4),), density_pieces=((-0.9, -0.5, 1.2),))
        assert m.exp_weighted_mass(0.0) == m.total_mass()

    def test_exp_weighted_density_closed_form(self):
        m = DelayMeasure(1.0, density_pieces=((-1.0, 0.0, 1.0),))
        assert m.exp_weighted_mass(1.0) == pytest.approx(np.e - 1.0, rel=1e-12)

    @given(beta1=st.floats(0.0, 5.0), beta2=st.floats(0.0, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_exp_weighted_monotone_in_beta(self, beta1, beta2):
        m = DelayMeasure(1.0, atoms=((-0.2, 0.5),), density_pieces=((-0.8, -0.4, 1.0),))
        lo, hi = sorted([beta1, beta2])
        assert m.exp_weighted_mass(lo) <= m.exp_weighted_mass(hi) + 1e-12


    def test_exp_weighted_subnormal_beta_matches_beta_zero(self):
        # beta * (b - a) is subnormal here; the density slab must not lose digits
        m = DelayMeasure(1.0, atoms=((-0.2, 0.5),), density_pieces=((-0.8, -0.4, 1.0),))
        at_zero = m.exp_weighted_mass(0.0)
        assert at_zero <= m.exp_weighted_mass(2.2e-313) <= at_zero * (1.0 + 1e-15)

    def test_exp_weighted_array_matches_each_number(self):
        # an array of beta runs the same operations per entry, so every entry
        # equals the scalar call bit for bit; beta = 0 gives total_mass()
        m = DelayMeasure(1.0, atoms=((-0.2, 0.5), (-0.6, 0.25)),
                         density_pieces=((-0.9, -0.7, 1.0), (-0.5, -0.3, 2.0)))
        betas = np.array([[0.0, 2.2e-313, 0.3], [1.0, 2.5, 40.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = m.exp_weighted_mass(betas)
        want = [[m.exp_weighted_mass(float(b)) for b in row] for row in betas]
        assert got.shape == betas.shape
        assert got.tolist() == want
        assert got[0, 0] == m.total_mass()
        with pytest.raises(ValueError, match="nonnegative"):
            m.exp_weighted_mass(np.array([1.0, -1e-300]))


class TestIntervalMass:
    def test_atom_on_left_endpoint_included(self):
        assert unit_atom(-0.25).interval_mass(-0.25, -0.20) == 1.0

    def test_atom_on_right_endpoint_excluded(self):
        assert unit_atom(-0.25).interval_mass(-0.30, -0.25) == 0.0

    def test_density_slice(self):
        m = DelayMeasure(1.0, density_pieces=((-0.5, 0.0, 2.0),))
        assert m.interval_mass(-0.4, -0.3) == pytest.approx(0.2)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError, match="a <= b"):
            unit_atom(-0.25).interval_mass(-0.1, -0.2)

    def test_cell_partition_recovers_mass(self):
        # summing shifted cell masses over the grid recovers the reachable mass
        m = DelayMeasure(1.0, atoms=((-0.23, 0.7), (-0.61, 0.3)))
        grid = np.linspace(0.0, 1.0, 17)
        for i in range(len(grid)):
            total = sum(
                m.interval_mass(grid[j] - grid[i], grid[j + 1] - grid[i])
                for j in range(len(grid) - 1)
            )
            assert total == pytest.approx(m.interval_mass(-grid[i], 0.0), abs=1e-12)


class TestInterchangeWeight:
    def test_atom_window_membership(self):
        m = unit_atom(-0.25)
        assert m.interchange_weight(0.5, 0.0) == 1.0

    def test_atom_outside_window(self):
        m = unit_atom(-0.25)
        assert m.interchange_weight(0.8, 0.0) == 0.0

    def test_full_support_at_r_equals_t_zero(self):
        m = DelayMeasure(1.0, atoms=((-0.4, 0.5),), density_pieces=((-0.9, -0.6, 1.0),))
        assert m.interchange_weight(0.0, 0.0) == pytest.approx(m.total_mass())

    def test_density_window_overlap(self):
        m = DelayMeasure(1.0, density_pieces=((-0.8, -0.2, 1.0),))
        # window (r-T, r-t] = (-0.5, 0.3] -> overlap with [-0.8, -0.2) below 0
        assert m.interchange_weight(0.5, 0.1) == pytest.approx(0.3)


def scalar_cell_weights(measure, grid):
    """Reference: one scalar interval_mass call per cell."""
    n = len(grid) - 1
    return np.array([
        [measure.interval_mass(grid[j] - grid[i], grid[j + 1] - grid[i]) for j in range(n)]
        for i in range(n + 1)
    ])


class TestCellWeights:
    @pytest.mark.parametrize("measure, grid", [
        pytest.param(DelayMeasure(1.0, atoms=((-0.25, 0.7), (-0.5, 0.3), (-0.125, 1.1))),
                     np.linspace(0.0, 1.0, 17), id="atoms-on-cell-boundaries"),
        pytest.param(DelayMeasure(1.0, atoms=((-0.01, 1.0), (-0.4, 0.5))),
                     np.linspace(0.0, 1.0, 11), id="sub-step-atom"),
        pytest.param(DelayMeasure(1.0, density_pieces=((-0.7, -0.3, 1.5), (-0.3, -0.1, 0.4))),
                     np.linspace(0.0, 1.0, 21), id="density-pieces-meeting"),
        pytest.param(DelayMeasure(1.0), np.linspace(0.0, 1.0, 9), id="zero-measure"),
        pytest.param(DelayMeasure(1.0, atoms=((-0.3, 0.6),),
                                  density_pieces=((-0.9, -0.45, 1.0), (-0.2, -0.05, 2.0))),
                     np.concatenate([[0.0], np.cumsum(np.random.default_rng(3).uniform(
                         0.01, 0.1, 24))]), id="non-uniform-grid"),
    ])
    def test_equal_to_scalar_loop(self, measure, grid):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            weights = cell_weights(measure, grid)
        assert weights.shape == (len(grid), len(grid) - 1)
        assert np.array_equal(weights, scalar_cell_weights(measure, grid))

    def test_single_row_equals_matrix_row(self):
        # a row reads only its own node: the cell masses at one t_i give row i
        m = DelayMeasure(1.0, atoms=((-0.25, 0.4),), density_pieces=((-0.7, -0.3, 1.1),))
        grid = np.linspace(0.0, 1.0, 33)
        full = cell_weights(m, grid)
        for i in (0, 9, 32):
            row = _cell_masses(m, grid[:-1] - grid[i], grid[1:] - grid[i])
            assert np.array_equal(row, full[i])


class TestDelayedConvolution:
    """Rows of cell_weights against node values: row i is the convolution at t_i."""

    def test_zero_extension(self):
        m = unit_atom(-0.25)
        grid = np.linspace(0.0, 1.0, 21)
        assert cell_weights(m, grid)[2] @ np.ones(20) == 0.0  # t = 0.1

    def test_unit_path_after_lag(self):
        m = unit_atom(-0.25)
        grid = np.linspace(0.0, 1.0, 21)
        assert cell_weights(m, grid)[6] @ np.ones(20) == pytest.approx(1.0)  # t = 0.3

    def test_power_two_at_lagged_value(self):
        m = unit_atom(-0.25)
        grid = np.linspace(0.0, 1.0, 5)
        assert cell_weights(m, grid)[2] @ grid[:4] ** 2 == pytest.approx(0.0625)  # t = 0.5

    def test_linear_in_path_for_power_one(self):
        m = DelayMeasure(1.0, atoms=((-0.25, 0.4),), density_pieces=((-0.7, -0.3, 1.1),))
        row = cell_weights(m, np.linspace(0.0, 1.0, 33))[16]  # t = 0.5
        rng = np.random.default_rng(0)
        a = rng.normal(size=32)
        b = rng.normal(size=32)
        assert row @ (2.0 * a + 3.0 * b) == pytest.approx(2.0 * (row @ a) + 3.0 * (row @ b),
                                                          rel=1e-12)

    def test_density_mass_times_constant(self):
        m = DelayMeasure(1.0, density_pieces=((-0.5, 0.0, 1.0),))
        grid = np.linspace(0.0, 1.0, 21)
        assert cell_weights(m, grid)[12] @ np.full(20, 3.0) == pytest.approx(1.5)  # t = 0.6

    def test_sub_step_atom_warns(self):
        m = unit_atom(-0.01)
        with pytest.warns(UserWarning, match="shorter than the grid step"):
            cell_weights(m, np.linspace(0.0, 1.0, 11))


from identity_utils import exact_sides, riemann_sides  # noqa: E402


class TestInterchangeIdentity:
    def test_exact_for_grid_aligned_atoms(self):
        rng = np.random.default_rng(7)
        grid = np.linspace(0.0, 1.0, 65)
        for _ in range(5):
            lags = rng.choice(np.arange(1, 64), size=3, replace=False)
            m = DelayMeasure(1.0, atoms=tuple((-grid[j], rng.uniform(0.1, 2.0)) for j in lags))
            values = rng.normal(size=65)
            for t_idx in (0, 8, 32):
                for k in (1, 2):
                    lhs, rhs = riemann_sides(m, grid, values, t_idx, k)
                    if abs(lhs) > 1e-12:
                        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_order_delta_for_generic_measures(self):
        rng = np.random.default_rng(1)
        m = DelayMeasure(
            1.0, atoms=((-0.313, 0.8),), density_pieces=((-0.77, -0.21, 1.0),)
        )
        errs = []
        for n in (40, 80, 160):
            grid = np.linspace(0.0, 1.0, n + 1)
            lhs, rhs = riemann_sides(m, grid, rng.normal(size=n + 1), 0, 2)
            errs.append(abs(lhs - rhs) / abs(lhs))
        assert errs[-1] < 0.05
        assert errs[-1] < errs[0]

    def test_exact_for_aligned_density_with_cell_integration(self):
        rng = np.random.default_rng(5)
        n = 160
        grid = np.linspace(0.0, 1.0, n + 1)
        for _ in range(4):
            j1, j2 = sorted(rng.choice(np.arange(0, n), size=2, replace=False))
            if j1 == j2:
                continue
            m = DelayMeasure(
                1.0, density_pieces=((grid[j1] - 1.0, grid[j2] - 1.0, rng.uniform(0.2, 2.0)),)
            )
            values = rng.normal(size=n + 1)
            for t_idx in (0, 16, 80):
                for k in (1, 2):
                    lhs, rhs = exact_sides(m, grid, values, t_idx, k)
                    if abs(lhs) > 1e-12:
                        assert abs(lhs - rhs) <= 1e-6 * abs(lhs)


class TestValidation:
    def test_atom_outside_support_rejected(self):
        with pytest.raises(ValueError):
            DelayMeasure(1.0, atoms=((0.0, 1.0),))
        with pytest.raises(ValueError):
            DelayMeasure(1.0, atoms=((-1.5, 1.0),))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            DelayMeasure(1.0, atoms=((-0.5, -1.0),))

    def test_overlapping_density_rejected(self):
        with pytest.raises(ValueError):
            DelayMeasure(1.0, density_pieces=((-0.8, -0.4, 1.0), (-0.5, -0.1, 1.0)))

    def test_from_literal(self):
        m = DelayMeasure.from_literal(
            1.0, [{"atom": [-0.25, 1.0]}, {"density": [-0.8, -0.5, 2.0]}]
        )
        assert m.total_mass() == pytest.approx(1.6)
