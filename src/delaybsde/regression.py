"""Least-squares Monte Carlo estimation of conditional expectations.

Every conditional expectation in the discrete schemes is realized as a
cross-sectional ridge regression across simulated paths: targets are
projected onto total-degree polynomials of a handful of node features.  One
fit per time node, never pooled across nodes.  Fits are deterministic
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

    ridge is a relative weight; the effective penalty is ridge times the
    average squared column norm of the design, so near-collinear features
    (a degenerate delayed convolution, say) shrink instead of aborting.
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


def expand_features(features, degree):
    """Monomial design matrix of all total degrees <= degree, intercept first.

    Columns are filled as contiguous rows of the transpose, so the returned
    (M, k) matrix is Fortran-ordered.
    """
    features = np.asarray(features, dtype=float)
    m, n_feat = features.shape
    exps = _exponents(n_feat, degree)
    columns = features.T
    design = np.ones((len(exps), m))
    for col, exp in enumerate(exps):
        for j, power in enumerate(exp):
            if power:
                design[col] *= columns[j] ** power
    return design.T


class DesignSolver:
    """Ridge least squares on a fixed design, reusable across target sets.

    Coefficients are (X^T X + lambda I)^{-1} X^T y with
    lambda = ridge * trace(X^T X) / k.  The Gram matrix is factored by
    Cholesky once; every call to solve() reuses the factor, so the solver
    node of the Picard sweep pays one factorization per node for both the
    value and the control regressions.
    """

    def __init__(self, design, ridge=1e-8):
        design = np.asarray(design, dtype=float)
        m, k = design.shape
        if k > max(1, m // 10):
            raise ValueError(
                f"basis size {k} exceeds one tenth of the sample count {m}; "
                "the fit would be underdetermined"
            )
        self.design = design
        gram = design.T @ design
        self.penalty = ridge * float(np.trace(gram)) / k
        if ridge == 0.0:
            s = self._singular_values
            tol = s[0] * max(m, k) * np.finfo(float).eps if s[0] > 0 else 0.0
            if s[-1] <= tol:
                raise ValueError(
                    "rank-deficient design with zero ridge; set a positive ridge"
                )
        gram[np.diag_indices(k)] += self.penalty
        try:
            self._factor = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            raise ValueError(
                f"ridge Gram matrix is not positive definite at ridge {ridge}; "
                "set a larger ridge"
            ) from None

    @cached_property
    def _singular_values(self):
        return np.linalg.svd(self.design, compute_uv=False)

    @property
    def condition(self):
        """Ratio of the largest to the smallest singular value of the design."""
        s = self._singular_values
        return float(s[0] / s[-1]) if s[-1] > 0 else float("inf")

    def solve(self, targets):
        """Ridge coefficients for one or many target columns."""
        rhs = self.design.T @ np.asarray(targets, dtype=float)
        return np.linalg.solve(self._factor.T, np.linalg.solve(self._factor, rhs))

    def fitted(self, coeffs):
        return self.design @ coeffs
