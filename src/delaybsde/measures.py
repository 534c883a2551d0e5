"""Deterministic delay measures on [-T, 0) and their sliding grid convolutions.

A delay measure assigns nonnegative mass to past lags: point masses (atoms)
plus a piecewise-constant density.  Everything downstream of the solver reads
the past of a process through integrals of the form

    (phi . m)(t)   = integral of phi(t + v) m(dv)          over v in [-T, 0)
    (phi^p . m)(t) = integral of |phi(t + v)|^p m(dv)

with the process extended by zero below time 0.  On a time grid these reduce
to weighted sums of node values; the weights are interval masses of the
measure over grid cells shifted by -t.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DelayMeasure",
    "GridPath",
    "cell_weights",
    "delayed_convolution",
]

# Absolute slack used when binning atoms into half-open intervals.  Grid
# arithmetic carries ~1e-16 rounding, so locations within _SNAP of a cell
# boundary are treated as sitting on it.
_SNAP = 1e-12


def _as_atoms(entries):
    out = []
    for loc, weight in entries:
        out.append((float(loc), float(weight)))
    return tuple(out)


def _as_pieces(entries):
    out = []
    for a, b, level in entries:
        out.append((float(a), float(b), float(level)))
    return tuple(sorted(out))


@dataclass(frozen=True)
class DelayMeasure:
    """Finite nonnegative measure supported on [-T, 0).

    atoms: sequence of (location, weight), location in [-T, 0), weight >= 0.
    density_pieces: sequence of (a, b, level) meaning level * dv on [a, b),
    with [a, b) contained in [-T, 0), pairwise disjoint.
    """

    horizon: float
    atoms: tuple = ()
    density_pieces: tuple = ()

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        object.__setattr__(self, "atoms", _as_atoms(self.atoms))
        object.__setattr__(self, "density_pieces", _as_pieces(self.density_pieces))
        T = self.horizon
        for loc, weight in self.atoms:
            if not (-T <= loc < 0):
                raise ValueError(f"atom location {loc} outside [-{T}, 0)")
            if weight < 0:
                raise ValueError("atom weights must be nonnegative")
        prev_end = -np.inf
        for a, b, level in self.density_pieces:
            if not (-T <= a < b <= 0):
                raise ValueError(f"density interval [{a}, {b}) outside [-{T}, 0)")
            if level < 0:
                raise ValueError("density levels must be nonnegative")
            if a < prev_end - _SNAP:
                raise ValueError("density intervals must be disjoint")
            prev_end = b

    @classmethod
    def from_literal(cls, horizon, entries):
        """Build from config entries like {"atom": [v, w]} or {"density": [a, b, level]}."""
        atoms, pieces = [], []
        for entry in entries:
            if "atom" in entry:
                atoms.append(tuple(entry["atom"]))
            elif "density" in entry:
                pieces.append(tuple(entry["density"]))
            else:
                raise ValueError(f"unknown measure entry {entry!r}")
        return cls(horizon, tuple(atoms), tuple(pieces))

    @property
    def is_zero(self):
        return self.total_mass() == 0.0

    def total_mass(self):
        """Mass of the full support [-T, 0)."""
        mass = sum(w for _, w in self.atoms)
        mass += sum(level * (b - a) for a, b, level in self.density_pieces)
        return float(mass)

    def exp_weighted_mass(self, beta):
        """Integral of exp(-beta * v) over the measure, beta >= 0.

        beta may be an array, giving an array of its shape whose entries are
        computed exactly as for a number.  Atoms are summed exactly; density
        pieces use the closed-form exponential integral, and beta = 0 gives
        total_mass().
        """
        beta = np.asarray(beta, dtype=float)
        if np.any(beta < 0):
            raise ValueError("beta must be nonnegative")
        mass = sum(w * np.exp(-beta * loc) for loc, w in self.atoms)
        for a, b, level in self.density_pieces:
            # (exp(-beta a) - exp(-beta b)) / beta, written as
            # (b - a) * expm1(x) / x so that a subnormal x loses no digits
            x = beta * (b - a)
            with np.errstate(invalid="ignore"):  # 0 / 0 where x = 0 is masked out
                slab = np.where(x > 0.0, (b - a) * (np.expm1(x) / x), b - a)
            mass += level * np.exp(-beta * b) * slab
        mass = np.where(beta == 0.0, self.total_mass(), mass)
        return float(mass) if mass.ndim == 0 else mass

    def interval_mass(self, a, b):
        """Mass of [a, b) intersected with the support.

        Half-open convention: an atom exactly at ``a`` counts, one exactly at
        ``b`` does not.
        """
        if a > b:
            raise ValueError("need a <= b")
        mass = 0.0
        for loc, w in self.atoms:
            if a - _SNAP <= loc < b - _SNAP:
                mass += w
        for pa, pb, level in self.density_pieces:
            mass += level * max(0.0, min(pb, b) - max(pa, a))
        return float(mass)

    def interchange_weight(self, r, t):
        """Kernel turning time integrals of delayed convolutions into plain ones.

        For the time window [t, T], the weight of source time r is the mass of
        lags v with r - T < v <= r - t (and v < 0).  Summed against |phi_r|^k
        over r in [0, T] this reproduces the time integral of (phi^k . m) over
        [t, T]; see the quadrature tests for the discrete statement.
        """
        hi = r - t
        lo = r - self.horizon
        mass = 0.0
        for loc, w in self.atoms:
            if lo + _SNAP < loc <= hi + _SNAP:
                mass += w
        for pa, pb, level in self.density_pieces:
            mass += level * max(0.0, min(pb, hi, 0.0) - max(pa, lo))
        return float(mass)


@dataclass(frozen=True)
class GridPath:
    """Node values of a process on a time grid t_0 = 0 < ... < t_N = T.

    Lookups between nodes are left-constant (the value at the last node not
    after the query time); times below 0 read as zero.  The zero extension is
    implicit, never stored.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must hold at least two nodes")
        if abs(grid[0]) > _SNAP:
            raise ValueError("grid must start at 0")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if len(values) != len(grid):
            raise ValueError("need one value per grid node")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def n_steps(self):
        return len(self.grid) - 1

    def value_at(self, time):
        """Left-constant lookup with zero extension below time 0."""
        if time < -_SNAP:
            return np.zeros_like(self.values[0])
        idx = np.searchsorted(self.grid, time + _SNAP, side="right") - 1
        idx = min(max(idx, 0), len(self.grid) - 1)
        return self.values[idx]

    def node_index(self, time):
        """Index of the grid node equal to ``time``; raises off the grid."""
        idx = np.searchsorted(self.grid, time + _SNAP, side="right") - 1
        if idx < 0 or abs(self.grid[idx] - time) > 1e-9 * max(1.0, self.grid[-1]):
            raise ValueError(f"off-grid time {time}")
        return int(idx)


def _cell_masses(measure, lo, hi):
    """``measure.interval_mass`` applied elementwise over arrays of cell bounds.

    Same half-open atom rule and the same order of additions (atoms, then
    density pieces) as the scalar method, so every entry is bit-identical.
    """
    mass = np.zeros(np.broadcast(lo, hi).shape)
    for loc, w in measure.atoms:
        mass += np.where((lo - _SNAP <= loc) & (loc < hi - _SNAP), w, 0.0)
    for pa, pb, level in measure.density_pieces:
        mass += level * np.maximum(0.0, np.minimum(pb, hi) - np.maximum(pa, lo))
    return mass


def _row_weights(measure, grid, rows):
    """Rows ``rows`` (an index or a slice) of the cell-weight matrix."""
    t = grid[rows][..., None]
    return _cell_masses(measure, grid[:-1] - t, grid[1:] - t)


def cell_weights(measure, grid):
    """Discrete convolution weights W[i, j] = m([t_j - t_i, t_{j+1} - t_i)).

    Row i gives the node weights for the delayed convolution at t_i: the sum
    over j of W[i, j] * phi(t_j) approximates the integral of phi(t_i + v)
    against the measure, with cells before time 0 contributing nothing.
    """
    grid = np.asarray(grid, dtype=float)
    dt_min = float(np.min(np.diff(grid)))
    for loc, w in measure.atoms:
        if w > 0 and -dt_min < loc:
            warnings.warn(
                f"atom at lag {loc} is shorter than the grid step {dt_min}; "
                "the discrete convolution cannot resolve it",
                stacklevel=2,
            )
            break
    return _row_weights(measure, grid, slice(None))


def delayed_convolution(measure, path, t, power=1):
    """Sliding convolution (phi . m)(t) or (|phi|^power . m)(t) at a grid node.

    power 1 returns the raw (possibly vector) weighted sum; power > 1 applies
    the Euclidean norm per node before weighting and returns a scalar.
    """
    if power < 1:
        raise ValueError("power must be >= 1")
    i = path.node_index(t)
    weights = _row_weights(measure, path.grid, i)
    vals = path.values[: len(weights)]
    if power == 1:
        return np.tensordot(weights, vals, axes=(0, 0))
    if vals.ndim == 1:
        mags = np.abs(vals)
    else:
        mags = np.linalg.norm(vals.reshape(len(vals), -1), axis=1)
    return float(np.dot(weights, mags**power))
