"""Forward diffusion engine: Euler paths and first-variation flow.

Simulates dX = b(t, X) dt + sigma(t, X) dW together with the matrix flow
dG = grad_b G dt + grad_sigma G dW started at the identity.  The flow is
inverted only where a formula reads the inverse (dimensions stay small, so
direct inversion beats simulating the inverse flow).  At d = 1 the
singularity check reads the flow entry itself and the inverse is its
reciprocal, bit-equal to LAPACK's and without its per-matrix overhead; for
d >= 2 both go through `np.linalg.det` / `np.linalg.inv`.

Coefficients come from a preset registry, keeping configs data-only.
Randomness is counter-based: path i draws from a Philox stream keyed by
(seed, i), so bundles are reproducible independently of scheduling.  One
generator serves a whole call and is re-keyed to (seed, i) with a zero
counter before path i, which yields the same stream as a fresh generator per
path without its construction cost.  `bundle_from_increments` builds a bundle
from given increments, so solves that share the noise (the shifted initial
states of a finite-difference check) draw it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SdeCoefficients",
    "ForwardBundle",
    "make_forward",
    "brownian_increments",
    "euler_paths",
    "bundle_from_increments",
    "simulate_forward",
    "FORWARD_PRESETS",
]


@dataclass(frozen=True)
class SdeCoefficients:
    """Drift, diffusion and their spatial gradients, vectorized over states.

    Each takes (t, x) with x of shape (..., d) for any leading batch shape
    ... (paths, or paths and nodes) and t a number or an array that
    broadcasts against it; outputs keep the batch shape:
      drift -> (..., d); diffusion -> (..., d, d);
      grad_drift -> (..., d, d) with [..., j, l] = d b_j / d x_l;
      grad_diffusion -> (..., d, d, d) with [..., j, k, l] = d sigma_jk / d x_l.
    """

    name: str
    dim: int
    drift: Callable
    diffusion: Callable
    grad_drift: Callable
    grad_diffusion: Callable


def _brownian(params, dim):
    def drift(t, x):
        return np.zeros_like(x)

    def diffusion(t, x):
        return np.broadcast_to(np.eye(dim), (*x.shape[:-1], dim, dim)).copy()

    def grad_drift(t, x):
        return np.zeros((*x.shape[:-1], dim, dim))

    def grad_diffusion(t, x):
        return np.zeros((*x.shape[:-1], dim, dim, dim))

    return SdeCoefficients("brownian", dim, drift, diffusion, grad_drift, grad_diffusion)


def _gbm(params, dim):
    if dim != 1:
        raise ValueError("gbm preset is one-dimensional")
    mu = float(params.get("mu", 0.0))
    nu = float(params.get("nu", 0.0))

    def drift(t, x):
        return mu * x

    def diffusion(t, x):
        return nu * x[..., None]

    def grad_drift(t, x):
        return np.full((*x.shape[:-1], 1, 1), mu)

    def grad_diffusion(t, x):
        return np.full((*x.shape[:-1], 1, 1, 1), nu)

    return SdeCoefficients("gbm", 1, drift, diffusion, grad_drift, grad_diffusion)


def _linear_drift(params, dim):
    if dim != 1:
        raise ValueError("linear_drift preset is one-dimensional")
    rate = float(params.get("rate", 1.0))
    vol = float(params.get("vol", 0.0))

    def drift(t, x):
        return rate * x

    def diffusion(t, x):
        return np.full((*x.shape[:-1], 1, 1), vol)

    def grad_drift(t, x):
        return np.full((*x.shape[:-1], 1, 1), rate)

    def grad_diffusion(t, x):
        return np.zeros((*x.shape[:-1], 1, 1, 1))

    return SdeCoefficients("linear_drift", 1, drift, diffusion, grad_drift, grad_diffusion)


FORWARD_PRESETS = {
    "brownian": _brownian,
    "gbm": _gbm,
    "linear_drift": _linear_drift,
}


def make_forward(preset, params=None, dim=1):
    if preset not in FORWARD_PRESETS:
        raise ValueError(f"unknown forward preset {preset!r}")
    return FORWARD_PRESETS[preset](params or {}, dim)


@dataclass(frozen=True)
class ForwardBundle:
    """Per-path arrays of the simulated diffusion and its flow.

    dw: (M, N, d) Brownian increments; x: (M, N+1, d); grad_x: (M, N+1, d, d).
    grad_x at node 0 is the identity and x at node 0 equals the initial state
    on every path.
    """

    grid: np.ndarray
    dw: np.ndarray
    x: np.ndarray
    grad_x: np.ndarray

    @property
    def n_paths(self):
        return len(self.dw)

    @property
    def grad_x_inv(self):
        """Inverse flow (M, N+1, d, d), computed on each read."""
        return _flow_inverse(self.grad_x)


def _flow_singular(g):
    """Mask of the flow matrices g (..., d, d) with |det| < 1e-14.

    At d = 1 the determinant is the entry itself.  LAPACK's det (sign times
    exp of the log-magnitude) is off the entry by up to about |log g| machine
    epsilons, so the two rules disagree only on entries a few dozen ULP or
    less above 1e-14 (1e-14 itself is singular to LAPACK, not here).
    """
    det = g[..., 0, 0] if g.shape[-1] == 1 else np.linalg.det(g)
    return np.abs(det) < 1e-14


def _flow_inverse(g):
    """Inverse of each flow matrix g (..., d, d); the reciprocal at d = 1."""
    return 1.0 / g if g.shape[-1] == 1 else np.linalg.inv(g)


def brownian_increments(grid, n_paths, dim, seed):
    """Counter-based increments: path i uses Philox keyed by (seed, i)."""
    grid = np.asarray(grid, dtype=float)
    n = len(grid) - 1
    out = np.empty((n_paths, n, dim))
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    start = bitgen.state  # key (seed, 0), counter 0, empty buffer
    for i in range(n_paths):
        start["state"]["key"][1] = i
        bitgen.state = start
        gen.standard_normal(out=out[i])
    out *= np.sqrt(np.diff(grid))[:, None]
    return out


def euler_paths(coeffs, x0, grid, dw):
    """Euler scheme for the state and its first-variation flow, shared noise."""
    grid = np.asarray(grid, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    n_paths, n, dim = dw.shape
    if dim != coeffs.dim or x0.shape != (dim,):
        raise ValueError("dimension mismatch between coefficients, x0 and increments")
    if n != len(grid) - 1:
        raise ValueError(f"increments have {n} steps but the grid has {len(grid) - 1}")
    x = np.empty((n_paths, n + 1, dim))
    grad = np.empty((n_paths, n + 1, dim, dim))
    x[:, 0] = x0
    grad[:, 0] = np.eye(dim)
    for i in range(n):
        t, dt = grid[i], grid[i + 1] - grid[i]
        xi = x[:, i]
        gi = grad[:, i]
        sig = coeffs.diffusion(t, xi)
        x[:, i + 1] = xi + coeffs.drift(t, xi) * dt + np.einsum("pjk,pk->pj", sig, dw[:, i])
        gsig = coeffs.grad_diffusion(t, xi)
        grad[:, i + 1] = (
            gi
            + np.einsum("pjl,plm->pjm", coeffs.grad_drift(t, xi), gi) * dt
            + np.einsum("pjkl,plm,pk->pjm", gsig, gi, dw[:, i])
        )
    return x, grad


def bundle_from_increments(coeffs, x0, grid, dw):
    """Forward bundle driven by given increments dw of shape (M, N, d).

    Raises ValueError when the flow is singular at some path and node.
    """
    grid = np.asarray(grid, dtype=float)
    x, grad = euler_paths(coeffs, x0, grid, dw)
    bad = np.argwhere(_flow_singular(grad))
    if len(bad):
        path, node = bad[0]
        raise ValueError(f"singular variational flow at path {path}, node {node}")
    return ForwardBundle(grid=grid, dw=dw, x=x, grad_x=grad)


def simulate_forward(coeffs, x0, grid, n_paths, seed):
    """Simulate the forward bundle; deterministic given (seed, path index)."""
    if n_paths < 1:
        raise ValueError("need at least one path")
    dw = brownian_increments(grid, n_paths, coeffs.dim, seed)
    return bundle_from_increments(coeffs, x0, grid, dw)

