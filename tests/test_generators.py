import numpy as np
import pytest

from delaybsde.generators import make_driver, make_terminal


def sample_args(rng, d=1, m=1, n=6):
    return (
        0.3,
        rng.normal(size=(n, d)),
        rng.normal(size=(n, m)),
        rng.normal(size=(n, m, d)),
    )


AFFINE = {"const": 0.2, "coeff_x": 0.3, "coeff_y": -0.4, "coeff_z": 0.5}

DRIVER_CASES = [
    ("zero", {}),
    ("affine", AFFINE),
    ("linear_ydel", {"coeff": 0.1}),
    ("linear_zdel", {"coeff": 0.1}),
]


class TestDriverGradients:
    @pytest.mark.parametrize("preset,params", DRIVER_CASES)
    def test_gradients_match_finite_differences(self, preset, params):
        rng = np.random.default_rng(0)
        drv = make_driver(preset, params)
        t, xdel, ydel, zdel = sample_args(rng)
        step = 1e-6
        base = drv.value(t, xdel, ydel, zdel)

        fd_x = (drv.value(t, xdel + step, ydel, zdel) - base) / step
        assert np.allclose(fd_x, drv.grad_x(t, xdel, ydel, zdel)[:, :, 0], atol=1e-5)

        fd_y = (drv.value(t, xdel, ydel + step, zdel) - base) / step
        assert np.allclose(fd_y, drv.grad_y(t, xdel, ydel, zdel)[:, :, 0], atol=1e-5)

        bump = zdel.copy()
        bump[:, 0, 0] += step
        fd_z = (drv.value(t, xdel, ydel, bump) - base) / step
        assert np.allclose(fd_z, drv.grad_z(t, xdel, ydel, zdel)[:, :, 0, 0], atol=1e-5)

    @pytest.mark.parametrize("preset,params", DRIVER_CASES)
    def test_sampled_lipschitz_ratio_below_declared(self, preset, params):
        rng = np.random.default_rng(1)
        drv = make_driver(preset, params)
        if drv.lipschitz == 0.0 and preset != "zero":
            pytest.skip("preset declares no bound")
        for _ in range(50):
            t, xdel, ydel, zdel = sample_args(rng, n=1)
            _, xdel2, ydel2, zdel2 = sample_args(rng, n=1)
            num = np.sum((drv.value(t, xdel, ydel, zdel)
                          - drv.value(t, xdel2, ydel2, zdel2)) ** 2)
            den = (np.sum((xdel - xdel2) ** 2) + np.sum((ydel - ydel2) ** 2)
                   + np.sum((zdel - zdel2) ** 2))
            assert num <= drv.lipschitz * den + 1e-12

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown driver preset"):
            make_driver("quadratic_bmo")


class TestTerminalGradients:
    @pytest.mark.parametrize(
        "preset,params",
        [
            ("identity", {}),
            ("affine", {"offset": 0.3, "slope": 2.0}),
            ("constant", {"value": 1.5}),
            ("quadratic", {}),
        ],
    )
    def test_gradients_match_finite_differences(self, preset, params):
        rng = np.random.default_rng(2)
        term = make_terminal(preset, params)
        x = rng.normal(size=(8, 1)) + 1.0
        step = 1e-6
        fd = (term.value(x + step) - term.value(x)) / step
        assert np.allclose(fd, term.grad(x)[:, :, 0], atol=1e-5)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown terminal preset"):
            make_terminal("call_spread")


def per_node(call, n_nodes):
    """call(j) for every node j, stacked along axis 1 as an (M, N+1, ·) array."""
    return np.stack([call(j) for j in range(n_nodes)], axis=1)


class TestBatchShapes:
    """One call on (M, N+1, ·) states equals the stacked per-node (M, ·) calls."""

    @pytest.mark.parametrize("preset,params,d,m", [
        *((preset, params, 1, 1) for preset, params in DRIVER_CASES),
        ("zero", {}, 2, 2),
        ("affine", AFFINE, 2, 2),
        ("affine", AFFINE, 2, 1),
        ("linear_zdel", {"coeff": 0.1}, 2, 3),
    ])
    def test_driver_node_batch_equals_per_node_calls(self, preset, params, d, m):
        rng = np.random.default_rng(3)
        drv = make_driver(preset, params, d, m)
        grid = np.linspace(0.0, 0.5, 6)
        args = (rng.normal(size=(7, 6, d)), rng.normal(size=(7, 6, m)),
                rng.normal(size=(7, 6, m, d)))
        shapes = {"value": (m,), "grad_x": (m, d), "grad_y": (m, m), "grad_z": (m, m, d)}
        for name, tail in shapes.items():
            fn = getattr(drv, name)
            out = fn(grid, *args)
            assert out.shape == (7, 6, *tail)
            assert np.array_equal(out, per_node(
                lambda j: fn(grid[j], *(a[:, j] for a in args)), 6))

    @pytest.mark.parametrize("preset,params,d,m", [
        ("identity", {}, 1, 1),
        ("identity", {}, 2, 2),
        ("affine", {"offset": 0.3, "slope": 2.0}, 1, 1),
        ("affine", {"offset": 0.3, "slope": 2.0}, 2, 1),
        ("constant", {"value": 1.5}, 2, 2),
        ("quadratic", {}, 1, 1),
        ("quadratic", {}, 2, 1),
    ])
    def test_terminal_node_batch_equals_per_node_calls(self, preset, params, d, m):
        term = make_terminal(preset, params, d, m)
        x = np.random.default_rng(4).normal(size=(7, 6, d))
        for fn, tail in ((term.value, (m,)), (term.grad, (m, d))):
            out = fn(x)
            assert out.shape == (7, 6, *tail)
            assert np.array_equal(out, per_node(lambda j: fn(x[:, j]), 6))
