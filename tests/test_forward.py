from dataclasses import fields

import numpy as np
import pytest

from delaybsde import forward as forward_module
from delaybsde.forward import (
    ForwardBundle,
    SdeCoefficients,
    brownian_increments,
    bundle_from_increments,
    euler_paths,
    make_forward,
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
        built = bundle_from_increments(coeffs, [1.0], grid, sim.dw)
        for key in ("grid", "dw", "x", "grad_x", "grad_x_inv"):
            assert np.array_equal(getattr(built, key), getattr(sim, key))
        assert built.n_paths == sim.n_paths

    @pytest.mark.parametrize("steps", [5, 12])
    def test_increments_must_match_the_grid(self, steps):
        coeffs = make_forward("gbm", {"mu": 0.1, "nu": 0.2})
        dw = brownian_increments(np.linspace(0.0, 1.0, steps + 1), 5, 1, seed=0)
        with pytest.raises(ValueError, match=rf"increments have {steps} steps but the grid has 10"):
            bundle_from_increments(coeffs, [1.0], np.linspace(0.0, 1.0, 11), dw)

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


def coupled_2d(nu=0.3):
    """2-d diffusion with drift A x and noise nu diag(x): a full, path-dependent flow."""
    a = np.array([[0.1, 0.4], [-0.3, 0.2]])
    eye = np.eye(2)

    def grad_diffusion(t, x):
        g = np.zeros((*x.shape[:-1], 2, 2, 2))
        for j in range(2):
            g[..., j, j, j] = nu
        return g

    return SdeCoefficients(
        "coupled_2d", 2,
        drift=lambda t, x: x @ a.T,
        diffusion=lambda t, x: nu * x[..., :, None] * eye,
        grad_drift=lambda t, x: np.broadcast_to(a, (*x.shape[:-1], 2, 2)).copy(),
        grad_diffusion=grad_diffusion,
    )


class TestBundleState:
    """A bundle stores what was simulated; the inverse flow is derived on read."""

    def test_fields_are_the_simulated_arrays(self):
        assert [f.name for f in fields(ForwardBundle)] == ["grid", "dw", "x", "grad_x"]

    @pytest.mark.parametrize("coeffs, x0", [
        (make_forward("gbm", {"mu": 0.1, "nu": 0.4}), [1.0]),
        (coupled_2d(), [1.0, -0.5]),
    ])
    def test_inverse_equals_inverting_the_flow(self, coeffs, x0):
        bundle = simulate_forward(coeffs, x0, np.linspace(0.0, 1.0, 11), 40, seed=3)
        assert not np.allclose(bundle.grad_x[:, -1], np.eye(coeffs.dim))
        assert np.array_equal(bundle.grad_x_inv, np.linalg.inv(bundle.grad_x))


class TestFlowHelpers:
    """At d = 1 the check reads the flow entry and the inverse is its reciprocal."""

    @staticmethod
    def log_uniform(rng, shape, low=-20.0, high=20.0):
        signs = rng.choice([-1.0, 1.0], shape)
        return signs * 10.0 ** rng.uniform(low, high, shape)

    def test_inverse_is_lapack_bit_for_bit(self):
        g = self.log_uniform(np.random.default_rng(0), (2000, 41))[..., None, None]
        assert np.array_equal(forward_module._flow_inverse(g), np.linalg.inv(g))

    def test_singular_decision_matches_lapack_outside_the_band(self):
        # LAPACK's det is sign * exp(log|a|), off the entry by up to about
        # |log a| eps relative; near the 1e-14 threshold that is a few dozen ULP
        rng = np.random.default_rng(1)
        ladder = 1e-14 * (1.0 + np.arange(-200, 201) * np.finfo(float).eps / 4)
        entries = np.concatenate([self.log_uniform(rng, 20_000), ladder, -ladder])
        g = entries[:, None, None]
        band = np.abs(np.abs(entries) - 1e-14) <= 1e-14 * 40 * np.finfo(float).eps
        lapack = np.abs(np.linalg.det(g)) < 1e-14
        ours = forward_module._flow_singular(g)
        assert band.sum() > 0 and (~band).sum() > 20_000
        assert np.array_equal(ours[~band], lapack[~band])

    @pytest.mark.parametrize("coeffs, x0, lapack_calls", [
        (make_forward("gbm", {"mu": 0.1, "nu": 0.4}), [1.0], 0),
        (coupled_2d(), [1.0, -0.5], 2),
    ], ids=["d1", "d2"])
    def test_lapack_only_for_matrix_flows(self, monkeypatch, coeffs, x0, lapack_calls):
        calls = []
        for name in ("det", "inv"):
            def spy(a, lapack=getattr(np.linalg, name), name=name):
                calls.append(name)
                return lapack(a)
            monkeypatch.setattr(np.linalg, name, spy)
        bundle = simulate_forward(coeffs, x0, np.linspace(0.0, 1.0, 11), 20, seed=3)
        bundle.grad_x_inv
        assert len(calls) == lapack_calls

    def test_singular_matrix_flow_names_path_and_node(self, monkeypatch):
        # noise-free drift A x with I + A dt = [[0.5, 0.5], [0.5, 0.5]] of rank 1
        a = np.array([[-2.0, 2.0], [2.0, -2.0]])
        coeffs = SdeCoefficients(
            "rank_one_step", 2,
            drift=lambda t, x: x @ a.T,
            diffusion=lambda t, x: np.zeros((*x.shape[:-1], 2, 2)),
            grad_drift=lambda t, x: np.broadcast_to(a, (*x.shape[:-1], 2, 2)).copy(),
            grad_diffusion=lambda t, x: np.zeros((*x.shape[:-1], 2, 2, 2)),
        )
        calls = []
        det = np.linalg.det

        def spy(g):
            calls.append(np.shape(g))
            return det(g)

        monkeypatch.setattr(np.linalg, "det", spy)
        with pytest.raises(ValueError, match=r"singular variational flow at path 0, node 1"):
            simulate_forward(coeffs, [1.0, 0.5], np.linspace(0.0, 1.0, 5), 3, seed=0)
        assert calls == [(3, 5, 2, 2)]


def malliavin(bundle, coeffs, u, t):
    """D_u X_t = 1{u <= t} grad X_t (grad X_u)^-1 sigma(u, X_u), from the bundle's flow."""
    if u > t:
        return np.zeros_like(bundle.grad_x[:, t])
    sig = coeffs.diffusion(bundle.grid[u], bundle.x[:, u])
    return np.einsum("pjl,plk,pkm->pjm", bundle.grad_x[:, t], bundle.grad_x_inv[:, u], sig)


class TestMalliavinForward:
    """The flow and its inverse as the representation formula reads them."""

    def test_identity_for_additive_noise(self):
        coeffs = make_forward("brownian")
        grid = np.linspace(0.0, 1.0, 11)
        bundle = simulate_forward(coeffs, [0.0], grid, 20, seed=0)
        for u, t in [(0, 5), (3, 3), (2, 9)]:
            assert np.allclose(malliavin(bundle, coeffs, u, t), np.eye(1))

    def test_zero_above_diagonal(self):
        coeffs = make_forward("brownian")
        grid = np.linspace(0.0, 1.0, 11)
        bundle = simulate_forward(coeffs, [0.0], grid, 20, seed=0)
        assert np.allclose(malliavin(bundle, coeffs, 7, 3), 0.0)

    def test_equal_times_give_diffusion(self):
        grid = np.linspace(0.0, 1.0, 11)
        t = 6
        for coeffs, x0 in [(make_forward("gbm", {"mu": 0.1, "nu": 0.4}), [1.0]),
                           (coupled_2d(), [1.0, -0.5])]:
            bundle = simulate_forward(coeffs, x0, grid, 30, seed=4)
            got = malliavin(bundle, coeffs, t, t)
            assert np.allclose(got, coeffs.diffusion(grid[t], bundle.x[:, t]), atol=1e-10)

    def test_gbm_flow_algebra(self):
        # for proportional noise the perturbation derivative is nu * X_t
        coeffs = make_forward("gbm", {"mu": 0.1, "nu": 0.4})
        grid = np.linspace(0.0, 1.0, 11)
        bundle = simulate_forward(coeffs, [1.0], grid, 200, seed=4)
        u, t = 3, 8
        got = malliavin(bundle, coeffs, u, t)[:, 0, 0]
        assert np.allclose(got, 0.4 * bundle.x[:, t, 0], rtol=1e-6)
