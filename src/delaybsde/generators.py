"""Driver and terminal-condition presets for the delay FBSDE solver.

A driver maps (t, xdel, ydel, zdel) to an m-vector, where the three arguments
are the delayed convolutions of the forward state, the value process and the
control process.  Every coefficient takes states with any leading batch
shape, so a solver evaluates all paths and nodes in one call.  Presets supply
the driver, its partial gradients and a declared Lipschitz bound; configs
refer to presets by name so that no user code ever travels through
configuration files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Driver",
    "Terminal",
    "make_driver",
    "make_terminal",
    "DRIVER_PRESETS",
    "TERMINAL_PRESETS",
]


@dataclass(frozen=True)
class Driver:
    """Generator of the backward equation together with its gradients.

    value(t, xdel, ydel, zdel) -> (..., m) with xdel (..., d), ydel (..., m),
    zdel (..., m, d), where the leading batch shape ... (paths, or paths and
    nodes) is the same for all three and t is a number or an array that
    broadcasts against it.  Gradient shapes: grad_x (..., m, d),
    grad_y (..., m, m), grad_z (..., m, m, d).  lipschitz is the declared
    squared-Lipschitz bound; sampled difference quotients never exceed it
    (test-enforced).
    """

    name: str
    dim_x: int
    dim_y: int
    lipschitz: float
    value: Callable
    grad_x: Callable
    grad_y: Callable
    grad_z: Callable


def _zero_driver(params, d, m):
    lip = float(params.get("lipschitz", 0.0))

    def value(t, xdel, ydel, zdel):
        return np.zeros((*xdel.shape[:-1], m))

    def grad_x(t, xdel, ydel, zdel):
        return np.zeros((*xdel.shape[:-1], m, d))

    def grad_y(t, xdel, ydel, zdel):
        return np.zeros((*xdel.shape[:-1], m, m))

    def grad_z(t, xdel, ydel, zdel):
        return np.zeros((*xdel.shape[:-1], m, m, d))

    return Driver("zero", d, m, lip, value, grad_x, grad_y, grad_z)


def _affine_driver(params, d, m):
    """const + cx * sum(xdel) + cy * ydel + cz * sum_k zdel[., k], per component."""
    const = float(params.get("const", 0.0))
    cx = float(params.get("coeff_x", 0.0))
    cy = float(params.get("coeff_y", 0.0))
    cz = float(params.get("coeff_z", 0.0))
    lip = params.get("lipschitz")
    if lip is None:
        lip = 3.0 * max(cx, cy, cz, 0.0) ** 2
    lip = float(lip)

    def value(t, xdel, ydel, zdel):
        out = np.full((*xdel.shape[:-1], m), const)
        out += cx * np.sum(xdel, axis=-1, keepdims=True)
        out += cy * ydel
        out += cz * np.sum(zdel, axis=-1)
        return out

    def grad_x(t, xdel, ydel, zdel):
        return np.full((*xdel.shape[:-1], m, d), cx)

    def grad_y(t, xdel, ydel, zdel):
        return np.broadcast_to(cy * np.eye(m), (*xdel.shape[:-1], m, m)).copy()

    def grad_z(t, xdel, ydel, zdel):
        g = np.zeros((*xdel.shape[:-1], m, m, d))
        for j in range(m):
            g[..., j, j, :] = cz
        return g

    name = params.get("_name", "affine")
    return Driver(name, d, m, lip, value, grad_x, grad_y, grad_z)


def _linear_ydel(params, d, m):
    p = dict(params)
    p.setdefault("coeff_y", p.pop("coeff", 0.1))
    p["_name"] = "linear_ydel"
    return _affine_driver(p, d, m)


def _linear_zdel(params, d, m):
    p = dict(params)
    p.setdefault("coeff_z", p.pop("coeff", 0.1))
    p["_name"] = "linear_zdel"
    return _affine_driver(p, d, m)


DRIVER_PRESETS = {
    "zero": _zero_driver,
    "affine": _affine_driver,
    "linear_ydel": _linear_ydel,
    "linear_zdel": _linear_zdel,
}


def make_driver(preset, params=None, dim_x=1, dim_y=1):
    if preset not in DRIVER_PRESETS:
        raise ValueError(f"unknown driver preset {preset!r}")
    return DRIVER_PRESETS[preset](params or {}, dim_x, dim_y)


@dataclass(frozen=True)
class Terminal:
    """Terminal payoff g and its gradient: value (..., d) -> (..., m), grad -> (..., m, d).

    The leading batch shape ... of the states is kept in both outputs.
    """

    name: str
    dim_x: int
    dim_y: int
    value: Callable
    grad: Callable


def _identity_terminal(params, d, m):
    if d != m:
        raise ValueError("identity terminal needs matching dimensions")

    def value(x):
        return x.copy()

    def grad(x):
        return np.broadcast_to(np.eye(d), (*x.shape[:-1], d, d)).copy()

    return Terminal("identity", d, m, value, grad)


def _affine_terminal(params, d, m):
    offset = float(params.get("offset", 0.0))
    slope = float(params.get("slope", 1.0))
    if m != 1:
        raise ValueError("affine terminal is scalar-valued")

    def value(x):
        return offset + slope * np.sum(x, axis=-1, keepdims=True)

    def grad(x):
        return np.full((*x.shape[:-1], 1, d), slope)

    return Terminal("affine", d, m, value, grad)


def _constant_terminal(params, d, m):
    level = float(params.get("value", 1.0))

    def value(x):
        return np.full((*x.shape[:-1], m), level)

    def grad(x):
        return np.zeros((*x.shape[:-1], m, d))

    return Terminal("constant", d, m, value, grad)


def _quadratic_terminal(params, d, m):
    """Squared Euclidean norm of the state; scalar-valued."""
    if m != 1:
        raise ValueError("quadratic terminal is scalar-valued")

    def value(x):
        return np.sum(x**2, axis=-1, keepdims=True)

    def grad(x):
        return 2.0 * x[..., None, :]

    return Terminal("quadratic", d, m, value, grad)


TERMINAL_PRESETS = {
    "identity": _identity_terminal,
    "affine": _affine_terminal,
    "constant": _constant_terminal,
    "quadratic": _quadratic_terminal,
}


def make_terminal(preset, params=None, dim_x=1, dim_y=1):
    if preset not in TERMINAL_PRESETS:
        raise ValueError(f"unknown terminal preset {preset!r}")
    return TERMINAL_PRESETS[preset](params or {}, dim_x, dim_y)
