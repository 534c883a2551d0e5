import numpy as np
import pytest

from delaybsde.forward import (
    brownian_increments,
    bundle_from_increments,
    euler_paths,
    make_forward,
    malliavin_forward,
    simulate_forward,
)


def fd_gradient_check(fn, grad_fn, points, t=0.3, step=1e-6, rtol=1e-5):
    """Gradients of preset coefficients must match finite differences."""
    for x in points:
        x = np.atleast_2d(x)
        base = fn(t, x)
        grad = grad_fn(t, x)
        d = x.shape[1]
        for axis in range(d):
            shifted = x.copy()
            shifted[:, axis] += step
            fd = (fn(t, shifted) - base) / step
            exact = grad[..., axis] if grad.ndim == base.ndim + 1 else grad[:, :, axis]
            scale = max(1.0, float(np.max(np.abs(exact))))
            assert np.allclose(fd, exact, atol=rtol * scale)


class TestPresets:
    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown forward preset"):
            make_forward("levy")

    @pytest.mark.parametrize(
        "preset,params,dim",
        [
            ("brownian", {}, 1),
            ("brownian", {}, 2),
            ("gbm", {"mu": 0.3, "nu": 0.4}, 1),
            ("linear_drift", {"rate": 1.0, "vol": 0.2}, 1),
        ],
    )
    def test_gradients_match_finite_differences(self, preset, params, dim):
        coeffs = make_forward(preset, params, dim)
        rng = np.random.default_rng(0)
        points = rng.normal(size=(4, dim)) + 1.0
        fd_gradient_check(coeffs.drift, coeffs.grad_drift, points)
        fd_gradient_check(coeffs.diffusion, coeffs.grad_diffusion, points)


class TestBatchShapes:
    """One call on (M, N+1, d) states equals the stacked per-node (M, d) calls."""

    @pytest.mark.parametrize("preset,params,dim", [
        ("brownian", {}, 1),
        ("brownian", {}, 2),
        ("gbm", {"mu": 0.3, "nu": 0.4}, 1),
        ("linear_drift", {"rate": 1.0, "vol": 0.2}, 1),
    ])
    def test_node_batch_equals_per_node_calls(self, preset, params, dim):
        coeffs = make_forward(preset, params, dim)
        grid = np.linspace(0.0, 0.5, 6)
        x = np.random.default_rng(5).normal(size=(7, 6, dim)) + 1.0
        shapes = {"drift": (dim,), "diffusion": (dim, dim),
                  "grad_drift": (dim, dim), "grad_diffusion": (dim, dim, dim)}
        for name, tail in shapes.items():
            fn = getattr(coeffs, name)
            out = fn(grid, x)
            assert out.shape == (7, 6, *tail)
            per_node = np.stack([fn(grid[j], x[:, j]) for j in range(6)], axis=1)
            assert np.array_equal(out, per_node)


class TestSimulation:
    def test_additive_noise_is_shifted_brownian(self):
        coeffs = make_forward("brownian")
        grid = np.linspace(0.0, 1.0, 11)
        bundle = simulate_forward(coeffs, [0.5], grid, 200, seed=1)
        walk = np.cumsum(bundle.dw, axis=1)
        assert np.allclose(bundle.x[:, 1:], 0.5 + walk)
        assert np.allclose(bundle.x[:, 0], 0.5)
        assert np.allclose(bundle.grad_x, np.eye(1))
        assert np.allclose(bundle.grad_x_inv, np.eye(1))

    def test_gbm_mean_matches_closed_form(self):
        coeffs = make_forward("gbm", {"mu": 0.5, "nu": 0.3})
        grid = np.linspace(0.0, 1.0, 51)
        bundle = simulate_forward(coeffs, [1.0], grid, 10_000, seed=2)
        terminal = bundle.x[:, -1, 0]
        target = np.exp(0.5)
        se = np.std(terminal) / np.sqrt(len(terminal))
        # allow Euler bias on top of three standard errors
        assert abs(np.mean(terminal) - target) < 3 * se + 0.05 * target

    def test_deterministic_linear_drift_euler_bias(self):
        coeffs = make_forward("linear_drift", {"rate": 1.0, "vol": 0.0})
        errors = []
        steps = [20, 40, 80]
        for n in steps:
            grid = np.linspace(0.0, 1.0, n + 1)
            bundle = simulate_forward(coeffs, [1.0], grid, 1, seed=0)
            errors.append(abs(bundle.x[0, -1, 0] - np.e))
        slopes = np.diff(np.log(errors)) / np.diff(np.log(1.0 / np.asarray(steps)))
        assert np.allclose(slopes, 1.0, atol=0.15)

    def test_same_seed_bitwise_identical(self):
        coeffs = make_forward("gbm", {"mu": 0.1, "nu": 0.2})
        grid = np.linspace(0.0, 0.5, 21)
        a = simulate_forward(coeffs, [1.0], grid, 64, seed=9)
        b = simulate_forward(coeffs, [1.0], grid, 64, seed=9)
        assert np.array_equal(a.dw, b.dw)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.grad_x, b.grad_x)

    def test_paths_are_seed_and_index_keyed(self):
        grid = np.linspace(0.0, 1.0, 5)
        wide = brownian_increments(grid, 8, 1, seed=3)
        narrow = brownian_increments(grid, 4, 1, seed=3)
        assert np.array_equal(wide[:4], narrow)

    @pytest.mark.parametrize("seed", [0, 5, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("n_paths, n_steps, dim", [(1, 1, 1), (7, 3, 1), (300, 2, 2)])
    def test_stream_equals_one_generator_per_path(self, seed, n_paths, n_steps, dim):
        grid = np.array([0.0, 0.07, 0.3, 0.31])[: n_steps + 1]
        scale = np.sqrt(np.diff(grid))[:, None]
        reference = np.stack([
            np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
            .standard_normal((n_steps, dim)) * scale
            for i in range(n_paths)
        ])
        assert np.array_equal(brownian_increments(grid, n_paths, dim, seed), reference)

    def test_bundle_from_increments_matches_simulation(self):
        coeffs = make_forward("gbm", {"mu": 0.1, "nu": 0.2})
        grid = np.linspace(0.0, 0.5, 11)
        sim = simulate_forward(coeffs, [1.0], grid, 32, seed=6)
        built = bundle_from_increments(coeffs, [1.0], grid, sim.dw, 6)
        for key in ("grid", "dw", "x", "grad_x", "grad_x_inv"):
            assert np.array_equal(getattr(built, key), getattr(sim, key))
        assert (built.seed, built.n_paths) == (sim.seed, sim.n_paths)

    def test_strong_order_half_for_gbm(self):
        coeffs = make_forward("gbm", {"mu": 0.2, "nu": 0.5})
        n_fine = 256
        grid_fine = np.linspace(0.0, 1.0, n_fine + 1)
        dw_fine = brownian_increments(grid_fine, 2000, 1, seed=5)
        x_fine, _ = euler_paths(coeffs, np.array([1.0]), grid_fine, dw_fine)
        errs, hs = [], []
        for factor in (4, 8, 16):
            n_c = n_fine // factor
            grid_c = np.linspace(0.0, 1.0, n_c + 1)
            dw_c = dw_fine.reshape(2000, n_c, factor, 1).sum(axis=2)
            x_c, _ = euler_paths(coeffs, np.array([1.0]), grid_c, dw_c)
            errs.append(np.sqrt(np.mean((x_c[:, -1, 0] - x_fine[:, -1, 0]) ** 2)))
            hs.append(1.0 / n_c)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert abs(slope - 0.5) < 0.2

    def test_flow_chain_property(self):
        coeffs = make_forward("gbm", {"mu": 0.3, "nu": 0.4})
        grid = np.linspace(0.0, 1.0, 21)
        bundle = simulate_forward(coeffs, [1.0], grid, 50, seed=7)
        u, s, t = 3, 10, 18
        left = np.einsum(
            "pab,pbc,pcd,pde->pae",
            bundle.grad_x[:, t], bundle.grad_x_inv[:, s],
            bundle.grad_x[:, s], bundle.grad_x_inv[:, u],
        )
        right = np.einsum("pab,pbc->pac", bundle.grad_x[:, t], bundle.grad_x_inv[:, u])
        assert np.allclose(left, right, atol=1e-6)

    def test_singular_flow_names_path_and_node(self):
        # drift rate chosen so one Euler step exactly annihilates the flow
        n = 4
        coeffs = make_forward("linear_drift", {"rate": -n / 1.0, "vol": 0.0})
        grid = np.linspace(0.0, 1.0, n + 1)
        with pytest.raises(ValueError, match=r"path 0, node 1"):
            simulate_forward(coeffs, [1.0], grid, 3, seed=0)

    def test_flow_inverse_is_inverse(self):
        coeffs = make_forward("gbm", {"mu": 0.3, "nu": 0.4})
        grid = np.linspace(0.0, 1.0, 21)
        bundle = simulate_forward(coeffs, [1.0], grid, 50, seed=7)
        prod = np.einsum("pnab,pnbc->pnac", bundle.grad_x, bundle.grad_x_inv)
        assert np.allclose(prod, np.eye(1), atol=1e-6)


class TestMalliavinForward:
    def test_identity_for_additive_noise(self):
        coeffs = make_forward("brownian")
        grid = np.linspace(0.0, 1.0, 11)
        bundle = simulate_forward(coeffs, [0.0], grid, 20, seed=0)
        for u, t in [(0, 5), (3, 3), (2, 9)]:
            assert np.allclose(malliavin_forward(bundle, coeffs, u, t), np.eye(1))

    def test_zero_above_diagonal(self):
        coeffs = make_forward("brownian")
        grid = np.linspace(0.0, 1.0, 11)
        bundle = simulate_forward(coeffs, [0.0], grid, 20, seed=0)
        assert np.allclose(malliavin_forward(bundle, coeffs, 7, 3), 0.0)

    def test_equal_times_give_diffusion(self):
        coeffs = make_forward("gbm", {"mu": 0.1, "nu": 0.4})
        grid = np.linspace(0.0, 1.0, 11)
        bundle = simulate_forward(coeffs, [1.0], grid, 30, seed=4)
        t = 6
        got = malliavin_forward(bundle, coeffs, t, t)
        assert np.allclose(got, coeffs.diffusion(grid[t], bundle.x[:, t]), atol=1e-10)

    def test_gbm_flow_algebra(self):
        # for proportional noise the perturbation derivative is nu * X_t
        coeffs = make_forward("gbm", {"mu": 0.1, "nu": 0.4})
        grid = np.linspace(0.0, 1.0, 11)
        bundle = simulate_forward(coeffs, [1.0], grid, 200, seed=4)
        u, t = 3, 8
        got = malliavin_forward(bundle, coeffs, u, t)[:, 0, 0]
        assert np.allclose(got, 0.4 * bundle.x[:, t, 0], rtol=1e-6)
