"""Explicit constants and feasibility checks for delay BSDE well-posedness.

Solvability of a backward equation whose generator reads delayed values of
the solution hinges on smallness conditions linking the Lipschitz constant K,
the horizon T, the delay masses and two free exponents (beta, gamma).  This
module evaluates every constant of those conditions in closed form and
decides feasibility:

* the L2 existence condition (p = 2),
* the positivity of the energy constants D1, D2, D3,
* the a priori constant C_p built from them (p > 2),
* the L^p Picard contraction condition driven by C_p.

All formulas are transcribed literally and evaluated over broadcast arrays of
(beta, gamma), so a whole grid of exponents is one call.  The test suite keeps
a second, independently written evaluator as a transcription oracle, and a
point-by-point scalar evaluator as the reference for the broadcast one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .measures import DelayMeasure

__all__ = [
    "StructuralParams",
    "ConstantsReport",
    "bdg_constant",
    "stability_constants",
    "apriori_constant",
    "l2_existence_check",
    "lp_contraction_check",
    "constants_report",
    "best_feasible",
    "search_feasible",
]


@dataclass(frozen=True)
class StructuralParams:
    """Structural data entering the feasibility conditions.

    lipschitz is the declared squared-Lipschitz constant K of the generator,
    dim_y the dimension of the backward component.  beta and gamma are
    numbers, or arrays that broadcast against each other to a grid of them.
    """

    lipschitz: float
    horizon: float
    p: float
    dim_y: int
    alpha_y: DelayMeasure
    alpha_z: DelayMeasure
    beta: float
    gamma: float

    def __post_init__(self):
        if self.lipschitz < 0:
            raise ValueError("lipschitz must be nonnegative")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.p < 2:
            raise ValueError("p must be >= 2")
        if self.dim_y < 1:
            raise ValueError("dim_y must be >= 1")


@dataclass(frozen=True)
class ConstantsReport:
    """Every derived constant, the three feasibility verdicts and the search margin.

    For numbers beta and gamma every field is a Python float or bool.  For
    arrays every field is an array of their broadcast shape, entry (i, j)
    being the report at that grid point; fields that do not depend on the
    exponents are repeated.
    """

    beta: float
    gamma: float
    mass_bound: float
    weighted_mass_bound: float
    lip_eff: float
    bdg: float
    d1: float
    d2: float
    d3: float
    gamma3: float
    cp1: float
    cp2: float
    cp3: float
    cp4: float
    cp: float
    l2_lhs_y: float
    l2_lhs_z: float
    lp_lhs_y: float
    lp_lhs_z: float
    feasible_l2: bool
    feasible_energy: bool
    feasible_contraction: bool
    margin: float


def bdg_constant(p, m):
    """Burkholder-type constant m^(p/2+1) (p/(p-1))^(p^2/2) (p(p-1)/2)^(p/2)."""
    if p <= 2:
        raise ValueError("bdg constant defined for p > 2 only")
    if m < 1:
        raise ValueError("dimension must be >= 1")
    return float(m ** (p / 2 + 1) * (p / (p - 1)) ** (p * p / 2) * (p * (p - 1) / 2) ** (p / 2))


def _apriori(params, gamma, wl, dp, ratio, d2, d3):
    p, T = params.p, params.horizon
    gamma3 = (
        0.5
        * d3
        * ((p - 2) / p) ** (p / 2)
        * (gamma - wl) ** (p / 2)
        / (2.0 ** (3 * p / 2 - 2) * (gamma - wl) ** (p / 2) + 2.0 ** (5 * p / 2 - 3) * wl ** (p / 2))
    )
    front = 2.0 * (1.0 + T ** (p / 2)) / d3 * (p / (p - 2)) ** (p / 2)
    c1 = front * (2.0 ** (p - 2) + 2.0 ** (3 * p / 2 - 2) * ratio ** (p / 2))
    c2 = front * (2.0 ** (3 * p / 2 - 2) + 2.0 ** (5 * p / 2 - 3) * ratio ** (p / 2)) / gamma3
    inner = 2.0 ** (3 * p - 2) * dp**2 * d2 ** (-p / 2) + 2.0 ** (3 * p / 2 - 1) * gamma3
    front_z = 2.0 / d3 * (p / (p - 2)) ** (p / 2) * d2 ** (-p / 2)
    c3 = front_z * (
        2.0 ** (p / 2) + inner * (2.0 ** (p - 2) + 2.0 ** (3 * p / 2 - 2) * ratio ** (p / 2))
    )
    # The bracket below is raised to p/2 as a whole, with the mass ratio
    # entering linearly; this mirrors the printed constant, asymmetric to c2.
    c4 = front_z * (
        inner * (2.0 ** (3 * p / 2 - 2) + 2.0 ** (5 * p / 2 - 3) * ratio) ** (p / 2) / gamma3
        + 2.0 ** (3 * p / 2 - 1) * gamma3
    )
    return gamma3, c1, c2, c3, c4, np.maximum(c1 + c3, c2 + c4)


def _masses(params, beta):
    """Larger total mass, larger weighted mass, lip_eff and the weighted masses per measure.

    The conditions read a weighted mass w only through lip_eff * w, which is 0
    where lip_eff = 0 even if w overflows to inf; the per-measure masses are
    therefore returned as 0 there.
    """
    mass = max(params.alpha_y.total_mass(), params.alpha_z.total_mass())
    lip_eff = params.lipschitz * mass
    wy = params.alpha_y.exp_weighted_mass(beta)
    wz = params.alpha_z.exp_weighted_mass(beta)
    weighted = np.maximum(wy, wz)
    if lip_eff == 0.0:
        wy = wz = np.zeros_like(weighted)
    return mass, weighted, lip_eff, wy, wz


def _l2(params, beta, lip_eff, wy, wz):
    scale = (8.0 * params.horizon + 1.0 / beta) * lip_eff * max(1.0, params.horizon)
    lhs_y = scale * wy
    lhs_z = scale * wz
    return lhs_y, lhs_z, (lhs_y < 1.0) & (lhs_z < 1.0)


def _evaluate(params):
    """(report, a priori pieces, L^p condition) over broadcast (beta, gamma), each formula once.

    The pieces and the condition hold values where p > 2, d2 > 0 and d3 > 0
    and nan (False) elsewhere; unlike the report they are not masked where
    d1 <= 0.  All three come back shaped like the report's fields.
    """
    p, T = params.p, params.horizon
    beta = np.asarray(params.beta, dtype=float)
    gamma = np.asarray(params.gamma, dtype=float)
    if np.any(gamma <= 0):
        raise ValueError("gamma must be positive")
    grid = np.broadcast_shapes(beta.shape, gamma.shape)
    # At least one-dimensional, so that a single point runs the same ufunc
    # loops as a grid: numpy scalars would take libm's pow instead.
    beta, gamma = np.atleast_1d(beta, gamma)
    nan = float("nan")
    with np.errstate(all="ignore"):
        mass, weighted, lip_eff, wy, wz = _masses(params, beta)
        wl = np.maximum(wy, wz) * lip_eff
        d1 = beta - gamma - wl / gamma
        d2 = 1.0 - wl / gamma
        if p > 2:
            dp = bdg_constant(p, params.dim_y)
            ratio = wl / (gamma - wl)
            d3 = np.where(
                d2 > 0.0,
                1.0
                - 2.0 ** (4 * p - 4) * dp**2 * (p / (p - 2)) ** (p / 2) * ratio ** (p / 2)
                * d2 ** (-p / 2)
                - (wl * T / gamma) ** (p / 2) * (p / (p - 2)) ** (p / 2) * 2.0 ** (p - 2),
                -np.inf,
            )
            holds = (d2 > 0.0) & (d3 > 0.0)
            pieces = _apriori(params, gamma, wl, dp, ratio, d2, d3)
            scale = 2.0 ** (p / 2 - 1) * pieces[-1] * max(1.0, T ** (p / 2))
            lhs_y = scale * (lip_eff * T * wy) ** (p / 2)
            lhs_z = scale * (lip_eff * T * wz) ** (p / 2)
            pieces = [np.where(holds, c, nan) for c in pieces]
            lp = [np.where(holds, lhs_y, nan), np.where(holds, lhs_z, nan),
                  holds & (lhs_y < 1.0) & (lhs_z < 1.0)]
        else:
            dp = nan
            d3 = np.full(d2.shape, nan)
            holds = np.zeros(d2.shape, dtype=bool)
            pieces = [d3] * 6
            lp = [d3, d3, holds]
        shown = (d1 > 0.0) & holds
        gamma3, cp1, cp2, cp3, cp4, cp = (np.where(shown, c, nan) for c in pieces)
        lp_y, lp_z = (np.where(shown, lhs, nan) for lhs in lp[:2])
        positive = beta > 0.0
        l2_y, l2_z, l2_ok = _l2(params, beta, lip_eff, wy, wz)
        l2_y, l2_z = np.where(positive, l2_y, nan), np.where(positive, l2_z, nan)
        margin = np.minimum(d1, d2)
        if p == 2:
            margin = np.where(positive, np.minimum(margin, 1.0 - np.maximum(l2_y, l2_z)), -np.inf)
        else:
            margin = np.minimum(margin, d3)
            margin = np.where(shown, np.minimum(margin, 1.0 - np.maximum(lp_y, lp_z)), margin)
    values = dict(
        beta=beta, gamma=gamma,
        mass_bound=mass, weighted_mass_bound=weighted,
        lip_eff=lip_eff, bdg=dp, d1=d1, d2=d2, d3=d3,
        gamma3=gamma3, cp1=cp1, cp2=cp2, cp3=cp3, cp4=cp4, cp=cp,
        l2_lhs_y=l2_y, l2_lhs_z=l2_z, lp_lhs_y=lp_y, lp_lhs_z=lp_z,
        feasible_l2=positive & l2_ok,
        feasible_energy=shown if p > 2 else (d1 > 0.0) & (d2 > 0.0),
        feasible_contraction=shown & lp[2],
        margin=margin,
    )
    work = np.broadcast_shapes(beta.shape, gamma.shape)

    def shaped(value):
        value = np.broadcast_to(value, work).reshape(grid)
        return value.item() if grid == () else value

    report = ConstantsReport(**{name: shaped(value) for name, value in values.items()})
    return report, tuple(map(shaped, pieces)), tuple(map(shaped, lp))


def _apriori_point(params):
    if params.p <= 2:
        raise ValueError("a priori constant defined for p > 2 only")
    report, pieces, lp = _evaluate(params)
    if not (report.d2 > 0.0 and report.d3 > 0.0):
        raise ValueError(
            f"a priori estimate infeasible at (beta={params.beta}, gamma={params.gamma}): "
            f"d2={report.d2}, d3={report.d3}"
        )
    return pieces, lp


def stability_constants(params):
    """Energy constants (d1, d2, d3) of the weighted-norm estimate.

    d3 is reported as -inf on the singular set gamma <= weighted_mass * L so
    that grid searches can skip infeasible candidates without raising; it
    needs p > 2 and is nan at p = 2.
    """
    report = constants_report(params)
    return report.d1, report.d2, report.d3


def apriori_constant(params):
    """A priori constant pieces (gamma3, c1, c2, c3, c4, cp) for p > 2.

    Raises when the energy constants fail, since the estimate then carries no
    information at this (beta, gamma).
    """
    return _apriori_point(params)[0]


def l2_existence_check(params):
    """L2 existence condition: (8T + 1/beta) L w(rho) max(1, T) < 1 per measure."""
    if params.beta <= 0:
        raise ValueError("beta must be positive")
    with np.errstate(all="ignore"):
        _, _, lip_eff, wy, wz = _masses(params, params.beta)
        lhs_y, lhs_z, holds = _l2(params, params.beta, lip_eff, wy, wz)
    return float(lhs_y), float(lhs_z), bool(holds)


def lp_contraction_check(params):
    """L^p Picard contraction condition for p > 2.

    Left-hand side per measure: 2^(p/2-1) C_p (L T w(rho))^(p/2) max(1, T^(p/2)).
    Errors from the a priori constant propagate.
    """
    return _apriori_point(params)[1]


def constants_report(params):
    """Evaluate every constant at (beta, gamma) and collect the verdicts.

    beta and gamma may be arrays; every field of the report then has their
    broadcast shape, so ``replace(params, beta=betas[:, None],
    gamma=gammas[None, :])`` evaluates a whole grid in one call.  Fields that
    require p > 2 or a feasible energy estimate are nan where they do not
    apply; infeasibility is a verdict here, not an error, but gamma <= 0 or
    beta < 0 anywhere raises.  The margin is min(d1, d2[, d3], 1 - condition
    lhs), positive where feasible, with the L2 existence condition at p = 2
    and the contraction condition at p > 2.
    """
    return _evaluate(params)[0]


def best_feasible(report):
    """(beta, gamma, margin) of the report's best point, or None when none is feasible.

    Only points with a finite positive margin count.  The largest margin wins;
    ties break toward the smallest beta, then the smallest gamma, so the
    result does not depend on the order of the grid.
    """
    margin = np.asarray(report.margin)
    ok = np.isfinite(margin) & (margin > 0)
    if not ok.any():
        return None
    top = margin[ok].max()
    best = margin == top
    beta = np.broadcast_to(report.beta, margin.shape)[best]
    gamma = np.broadcast_to(report.gamma, margin.shape)[best]
    i = np.lexsort((gamma, beta))[0]
    return float(beta[i]), float(gamma[i]), float(top)


def search_feasible(base, beta_grid, gamma_grid):
    """Grid search for (beta, gamma) maximizing the feasibility margin.

    Returns (beta, gamma, margin) for the best candidate with positive margin,
    or None when the whole grid is infeasible.  Ties break toward the smallest
    beta, then the smallest gamma.  Axis values outside beta >= 0, gamma > 0
    are skipped.
    """
    betas = np.asarray(beta_grid, dtype=float).ravel()
    gammas = np.asarray(gamma_grid, dtype=float).ravel()
    betas, gammas = betas[betas >= 0], gammas[gammas > 0]
    if not (betas.size and gammas.size):
        return None
    return best_feasible(constants_report(replace(base, beta=betas[:, None],
                                                  gamma=gammas[None, :])))
