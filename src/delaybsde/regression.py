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

__all__ = ["BasisSpec", "FitResult", "DesignSolver", "expand_features", "fit_condexp", "predict"]

DEFAULT_FEATURES = ("x", "xdel", "ydel", "zdel")


@dataclass(frozen=True)
class BasisSpec:
    """Polynomial regression basis: total degree, feature selection, ridge.

    ridge is a relative weight; the effective penalty is ridge times the
    average squared column norm of the design, so near-collinear features
    (a degenerate delayed convolution, say) shrink instead of aborting.
    """

    degree: int = 2
    features: tuple = DEFAULT_FEATURES
    ridge: float = 1e-8

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if self.ridge < 0:
            raise ValueError("ridge must be nonnegative")
        object.__setattr__(self, "features", tuple(self.features))


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
    if features.ndim == 1:
        features = features[None, :]
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


@dataclass(frozen=True)
class FitResult:
    """Coefficients of one conditional-expectation fit plus fit diagnostics."""

    coefficients: np.ndarray
    residual_rms: float
    condition: float
    degree: int
    n_features: int


def fit_condexp(features, targets, spec):
    """Project targets onto the polynomial basis of the features.

    Minimizes the squared residual plus the (scaled) ridge penalty; see
    BasisSpec.  Deterministic: identical inputs give identical coefficients.
    """
    design = expand_features(features, spec.degree)
    solver = DesignSolver(design, spec.ridge)
    coeffs = solver.solve(targets)
    resid = np.asarray(targets, dtype=float) - solver.fitted(coeffs)
    return FitResult(
        coefficients=coeffs,
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        condition=solver.condition,
        degree=spec.degree,
        n_features=np.atleast_2d(np.asarray(features, dtype=float)).shape[1],
    )


def predict(fit, features):
    """Evaluate a fit on one feature row or a batch of rows."""
    features = np.asarray(features, dtype=float)
    single = features.ndim == 1
    if np.atleast_2d(features).shape[1] != fit.n_features:
        raise ValueError(
            f"feature dimension mismatch: got {np.atleast_2d(features).shape[1]}, "
            f"fit expects {fit.n_features}"
        )
    design = expand_features(features, fit.degree)
    out = design @ fit.coefficients
    return out[0] if single else out
