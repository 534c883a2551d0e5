"""Shared helpers for the integration-order interchange checks."""

import numpy as np

from delaybsde.measures import cell_weights


def _convolutions(measure, grid, values, k):
    """(|phi|^k . m)(t_i) at every node, from the solver's cell weights."""
    n = len(grid) - 1
    return cell_weights(measure, grid) @ np.abs(values[:n]) ** k


def riemann_sides(measure, grid, values, t_idx, k):
    """Left-Riemann sums of both sides of the interchange identity.

    Both sides read |phi|^k of the node values phi.
    """
    dt = np.diff(grid)
    n = len(grid) - 1
    conv = _convolutions(measure, grid, values, k)[:n]
    lhs = float(np.sum(dt[t_idx:] * conv[t_idx:]))
    wts = np.array([measure.interchange_weight(grid[j], grid[t_idx]) for j in range(n)])
    rhs = float(np.sum(dt * wts * np.abs(values[:n]) ** k))
    return lhs, rhs


def exact_sides(measure, grid, values, t_idx, k):
    """Both sides integrated exactly per cell (integrands are piecewise linear)."""
    dt = np.diff(grid)
    n = len(grid) - 1
    conv = _convolutions(measure, grid, values, k)
    lhs = float(np.sum(dt[t_idx:] * 0.5 * (conv[t_idx:n] + conv[t_idx + 1 :])))
    wts = np.array([measure.interchange_weight(t, grid[t_idx]) for t in grid])
    rhs = float(np.sum(dt * 0.5 * (wts[:n] + wts[1:]) * np.abs(values[:n]) ** k))
    return lhs, rhs
