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

All formulas are transcribed literally; the test suite keeps a second,
independently written evaluator as a transcription oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .measures import DelayMeasure

__all__ = [
    "StructuralParams",
    "ConstantsReport",
    "max_mass",
    "max_weighted_mass",
    "bdg_constant",
    "stability_constants",
    "apriori_constant",
    "l2_existence_check",
    "lp_contraction_check",
    "constants_report",
    "fold_best",
    "search_feasible",
]


@dataclass(frozen=True)
class StructuralParams:
    """Structural data entering the feasibility conditions.

    lipschitz is the declared squared-Lipschitz constant K of the generator,
    dim_y the dimension of the backward component.
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
    """Every derived constant, the three feasibility verdicts and the search margin."""

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


def max_mass(alpha_y, alpha_z):
    """Larger of the two total delay masses."""
    return max(alpha_y.total_mass(), alpha_z.total_mass())


def max_weighted_mass(alpha_y, alpha_z, beta):
    """Larger of the two exp(-beta v)-weighted delay masses."""
    return max(alpha_y.exp_weighted_mass(beta), alpha_z.exp_weighted_mass(beta))


def bdg_constant(p, m):
    """Burkholder-type constant m^(p/2+1) (p/(p-1))^(p^2/2) (p(p-1)/2)^(p/2)."""
    if p <= 2:
        raise ValueError("bdg constant defined for p > 2 only")
    if m < 1:
        raise ValueError("dimension must be >= 1")
    return float(m ** (p / 2 + 1) * (p / (p - 1)) ** (p * p / 2) * (p * (p - 1) / 2) ** (p / 2))


def _apriori(params, wl, dp, ratio, d2, d3):
    p, T, gamma = params.p, params.horizon, params.gamma
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
    cp = max(c1 + c3, c2 + c4)
    return float(gamma3), float(c1), float(c2), float(c3), float(c4), float(cp)


def _masses(params):
    """Larger total mass, lip_eff and the two exp(-beta v)-weighted masses."""
    mass = max_mass(params.alpha_y, params.alpha_z)
    wy = params.alpha_y.exp_weighted_mass(params.beta)
    wz = params.alpha_z.exp_weighted_mass(params.beta)
    return mass, params.lipschitz * mass, wy, wz


def _l2(params, lip_eff, wy, wz):
    scale = (8.0 * params.horizon + 1.0 / params.beta) * lip_eff * max(1.0, params.horizon)
    lhs_y = scale * wy
    lhs_z = scale * wz
    return float(lhs_y), float(lhs_z), bool(lhs_y < 1.0 and lhs_z < 1.0)


def _evaluate(params):
    """(report, a priori pieces, L^p condition) at one (beta, gamma), each formula once.

    The pieces and the condition are None unless p > 2, d2 > 0 and d3 > 0;
    they are returned also where d1 <= 0, although the report shows nan there.
    """
    beta, gamma, p, T = params.beta, params.gamma, params.p, params.horizon
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    mass, lip_eff, wy, wz = _masses(params)
    weighted = max(wy, wz)
    wl = weighted * lip_eff
    dp = bdg_constant(p, params.dim_y) if p > 2 else float("nan")
    d1 = beta - gamma - wl / gamma
    d2 = 1.0 - wl / gamma
    d3 = float("nan") if p == 2 else float("-inf")
    pieces = lp = None
    if p > 2 and d2 > 0.0:
        ratio = wl / (gamma - wl)
        d3 = float(
            1.0
            - 2.0 ** (4 * p - 4) * dp**2 * (p / (p - 2)) ** (p / 2) * ratio ** (p / 2)
            * d2 ** (-p / 2)
            - (wl * T / gamma) ** (p / 2) * (p / (p - 2)) ** (p / 2) * 2.0 ** (p - 2)
        )
        if d3 > 0.0:
            pieces = _apriori(params, wl, dp, ratio, d2, d3)
            scale = 2.0 ** (p / 2 - 1) * pieces[-1] * max(1.0, T ** (p / 2))
            lhs_y = scale * (lip_eff * T * wy) ** (p / 2)
            lhs_z = scale * (lip_eff * T * wz) ** (p / 2)
            lp = float(lhs_y), float(lhs_z), bool(lhs_y < 1.0 and lhs_z < 1.0)
    nan = float("nan")
    shown = d1 > 0 and pieces is not None
    gamma3, cp1, cp2, cp3, cp4, cp = pieces if shown else (nan,) * 6
    lp_y, lp_z, feasible_contraction = lp if shown else (nan, nan, False)
    l2_y, l2_z, feasible_l2 = _l2(params, lip_eff, wy, wz) if beta > 0 else (nan, nan, False)
    if p == 2:
        margin = min(d1, d2, 1.0 - max(l2_y, l2_z)) if beta > 0 else float("-inf")
    elif d1 > 0 and d2 > 0 and d3 > 0:
        margin = min(d1, d2, d3, 1.0 - max(lp_y, lp_z))
    else:
        margin = min(d1, d2, d3)
    report = ConstantsReport(
        beta=beta, gamma=gamma,
        mass_bound=mass, weighted_mass_bound=weighted,
        lip_eff=lip_eff, bdg=dp, d1=d1, d2=d2, d3=d3,
        gamma3=gamma3, cp1=cp1, cp2=cp2, cp3=cp3, cp4=cp4, cp=cp,
        l2_lhs_y=l2_y, l2_lhs_z=l2_z, lp_lhs_y=lp_y, lp_lhs_z=lp_z,
        feasible_l2=feasible_l2,
        feasible_energy=bool(d1 > 0 and d2 > 0 and (p == 2 or d3 > 0)),
        feasible_contraction=feasible_contraction,
        margin=float(margin),
    )
    return report, pieces, lp


def _apriori_point(params):
    if params.p <= 2:
        raise ValueError("a priori constant defined for p > 2 only")
    report, pieces, lp = _evaluate(params)
    if pieces is None:
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
    _, lip_eff, wy, wz = _masses(params)
    return _l2(params, lip_eff, wy, wz)


def lp_contraction_check(params):
    """L^p Picard contraction condition for p > 2.

    Left-hand side per measure: 2^(p/2-1) C_p (L T w(rho))^(p/2) max(1, T^(p/2)).
    Errors from the a priori constant propagate.
    """
    return _apriori_point(params)[1]


def constants_report(params):
    """Evaluate every constant at fixed (beta, gamma) and collect the verdicts.

    Fields that require p > 2 or a feasible energy estimate are nan where they
    do not apply; infeasibility is a verdict here, not an error.  The margin
    is min(d1, d2[, d3], 1 - condition lhs), positive where feasible, with the
    L2 existence condition at p = 2 and the contraction condition at p > 2.
    """
    return _evaluate(params)[0]


def feasibility_margin(params):
    """The report's margin; -inf where the energy constants are undefined."""
    try:
        return constants_report(params).margin
    except ValueError:
        return float("-inf")


def fold_best(best, beta, gamma, margin):
    """Fold a candidate into search_feasible's running best, whatever the visiting order."""
    if margin <= 0 or not np.isfinite(margin):
        return best
    if best is None or margin > best[2] or (margin == best[2] and (beta, gamma) < best[:2]):
        return (float(beta), float(gamma), float(margin))
    return best


def search_feasible(base, beta_grid, gamma_grid):
    """Grid search for (beta, gamma) maximizing the feasibility margin.

    Returns (beta, gamma, margin) for the best candidate with positive margin,
    or None when the whole grid is infeasible.  Ties break toward the smallest
    beta, then the smallest gamma.
    """
    best = None
    for beta, gamma in product(beta_grid, gamma_grid):
        margin = feasibility_margin(replace(base, beta=float(beta), gamma=float(gamma)))
        best = fold_best(best, float(beta), float(gamma), margin)
    return best
