"""Least-squares Monte Carlo estimation of conditional expectations.

Every conditional expectation in the discrete schemes is realized as a
cross-sectional ridge regression across simulated paths: targets are
projected onto total-degree polynomials of a handful of node features.  One
fit per time node, never pooled across nodes; the fits of many nodes run as
one stack of designs.  The caller picks the columns of each design: the
solver's feature plan drops, by a rule on the delay weights, the features
that are constant across paths at a node, so designs are full rank except
where features are collinear by structure.  Fits are deterministic
functions of their inputs (Cholesky solve of the ridge Gram matrix, no
randomness).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement

import numpy as np

__all__ = ["FEATURES", "BasisSpec", "DesignSolver", "expand_features"]

# Node features a basis may select: the state and the delayed convolutions of
# the state, the value and the control.
FEATURES = ("x", "xdel", "ydel", "zdel")


@dataclass(frozen=True)
class BasisSpec:
    """Polynomial regression basis: total degree, feature selection, ridge.

    features is the most a fit may read: a solve fits each node on the
    selected features that are live there, so the full basis is the widest
    design, not every design.  ridge is a relative weight; the effective
    penalty is ridge times the average squared column norm of the design
    fitted, so features collinear by structure (a delayed value and control
    read through one atom, say) shrink instead of aborting.
    """

    degree: int = 2
    features: tuple = FEATURES
    ridge: float = 1e-8

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if self.ridge < 0:
            raise ValueError("ridge must be nonnegative")
        features = tuple(self.features)
        if not features:
            raise ValueError("basis needs at least one feature")
        for name in features:
            if name not in FEATURES:
                raise ValueError(f"unknown basis feature {name!r}; expected one of {FEATURES}")
        if len(set(features)) < len(features):
            raise ValueError(f"basis features repeat: {features}")
        object.__setattr__(self, "features", features)


def _exponents(n_features, degree):
    exps = [(0,) * n_features]
    for deg in range(1, degree + 1):
        for combo in combinations_with_replacement(range(n_features), deg):
            exp = [0] * n_features
            for idx in combo:
                exp[idx] += 1
            exps.append(tuple(exp))
    return exps


def expand_features(features, degree, shape=None):
    """Monomial designs of all total degrees <= degree, intercept first.

    features: (..., M, n_features) with any leading batch shape; or, with
    shape = (..., M) given, a sequence of feature blocks, each read as an
    array shape + (n_b,) (trailing axes flattened) and all of them as their
    concatenation along the last axis; no block gives the intercept alone.
    Each column is written once, as a contiguous row of the transpose, with
    its powers multiplied in feature order, so each returned (M, k) design is
    Fortran-ordered, and a stack of them is the axis swap of one C-ordered
    (..., k, M) array.
    """
    if shape is None:
        features = np.asarray(features, dtype=float)
        shape, features = features.shape[:-1], [features]
    columns = [column for block in features
               for column in np.moveaxis(np.reshape(block, (*shape, -1)), -1, 0)]
    exps = _exponents(len(columns), degree)
    design = np.empty((*shape[:-1], len(exps), shape[-1]))
    design[..., 0, :] = 1.0
    for col, exp in enumerate(exps[1:], 1):
        out = design[..., col, :]
        (first, power), *rest = [(columns[j], p) for j, p in enumerate(exp) if p]
        if power == 1:
            np.copyto(out, first)
        elif power == 2:
            np.multiply(first, first, out=out)
        else:
            np.power(first, power, out=out)
        for column, power in rest:
            out *= column if power == 1 else column**power
    return np.swapaxes(design, -1, -2)


class DesignSolver:
    """Ridge least squares on a fixed design or stack of designs.

    design: (..., M, k), with any leading batch shape; every design of a
    stack is fitted on its own, to the same numbers a solver of that design
    alone gives.  Coefficients are (X^T X + lambda I)^{-1} X^T y with
    lambda = ridge * trace(X^T X) / k per design.  The Gram matrices are
    factored by one stacked Cholesky; every call to solve() reuses the
    factors, so a block of sweep nodes pays one factorization for both the
    value and the control regressions.  factor, the `factor` of a solver of
    a bitwise-equal design, skips the Gram matrix, its checks and its
    factorization: a design rebuilt in every sweep is factored once.
    """

    def __init__(self, design, ridge=1e-8, factor=None):
        design = np.asarray(design, dtype=float)
        m, k = design.shape[-2:]
        if k > max(1, m // 10):
            raise ValueError(
                f"basis size {k} exceeds one tenth of the sample count {m}; "
                "the fit would be underdetermined"
            )
        self.design = design
        if factor is not None:
            self.penalty, self._factor = factor
            return
        gram = np.swapaxes(design, -1, -2) @ design
        self.penalty = ridge * np.trace(gram, axis1=-2, axis2=-1) / k
        if ridge == 0.0 and not self._full_rank.all():
            raise ValueError(
                f"rank-deficient design{self._where(~self._full_rank)} with zero ridge; "
                "set a positive ridge"
            )
        gram[..., range(k), range(k)] += self.penalty[..., None]
        try:
            self._factor = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            failed = np.zeros(gram.shape[:-2], dtype=bool)
            for index in np.ndindex(failed.shape):
                try:
                    np.linalg.cholesky(gram[index])
                except np.linalg.LinAlgError:
                    failed[index] = True
            raise ValueError(
                f"ridge Gram matrix{self._where(failed)} is not positive definite at "
                f"ridge {ridge}; set a larger ridge"
            ) from None

    @property
    def factor(self):
        """The ridge penalty and Cholesky factor, without the design."""
        return self.penalty, self._factor

    @staticmethod
    def _where(failed):
        """' at stack index i' for the first failed design of a stack; '' for one design."""
        return f" at stack index {np.flatnonzero(failed)[0]}" if failed.ndim else ""

    @cached_property
    def _singular_values(self):
        return np.linalg.svd(self.design, compute_uv=False)

    @cached_property
    def _full_rank(self):
        """Per design: smallest singular value above s_max * max(M, k) * eps."""
        s = self._singular_values
        return s[..., -1] > s[..., 0] * max(self.design.shape[-2:]) * np.finfo(float).eps

    @property
    def condition(self):
        """Ratio of the largest to the smallest singular value of the design.

        For a stack, the largest ratio over its designs of full numerical
        rank (the rank rule of ridge = 0), or over all of them when none has
        full rank: a rank-deficient design, fitted by the ridge alone, would
        otherwise hide the conditioning of the rest of its stack.
        """
        s = self._singular_values
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(s[..., -1] > 0, s[..., 0] / s[..., -1], np.inf)
        full = self._full_rank
        return float(np.max(ratios[full] if full.any() else ratios))

    def solve(self, targets):
        """Ridge coefficients for one or many target columns per design."""
        rhs = np.swapaxes(self.design, -1, -2) @ np.asarray(targets, dtype=float)
        upper = np.swapaxes(self._factor, -1, -2)
        return np.linalg.solve(upper, np.linalg.solve(self._factor, rhs))

    def fitted(self, coeffs):
        return self.design @ coeffs
