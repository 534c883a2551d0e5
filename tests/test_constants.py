import math
import warnings
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from delaybsde.constants import (
    ConstantsReport,
    StructuralParams,
    apriori_constant,
    bdg_constant,
    best_feasible,
    constants_report,
    l2_existence_check,
    lp_contraction_check,
    search_feasible,
    stability_constants,
)
from delaybsde.measures import DelayMeasure


def atom_measure(T, loc, weight=1.0):
    return DelayMeasure(T, atoms=((loc, weight),))


def params_for(K, T=0.5, p=4.0, m=1, beta=1.0, gamma=0.5, delay=-0.25):
    meas = atom_measure(T, delay)
    return StructuralParams(
        lipschitz=K, horizon=T, p=p, dim_y=m,
        alpha_y=meas, alpha_z=meas, beta=beta, gamma=gamma,
    )


# ---------------------------------------------------------------------------
# Transcription oracle: the same constants written a second time from scratch,
# in log space and with math-module arithmetic, to catch copy slips.
# ---------------------------------------------------------------------------

def oracle_bdg(p, m):
    log_val = (p / 2 + 1) * math.log(m) + (p * p / 2) * math.log(p / (p - 1)) \
        + (p / 2) * math.log(p * (p - 1) / 2)
    return math.exp(log_val)


def oracle_constants(K, T, p, m, beta, gamma, wy, wz, my, mz):
    """Independent evaluation; w* are exp-weighted masses, m* total masses."""
    L = K * max(my, mz)
    a = max(wy, wz) * L
    d1 = beta - gamma - a / gamma
    d2 = 1 - a / gamma
    dp = oracle_bdg(p, m)
    q = p / 2
    rat = a / (gamma - a)
    d3 = 1 - 2 ** (4 * p - 4) * dp * dp * (p / (p - 2)) ** q * rat**q / d2**q \
        - (a * T / gamma) ** q * (p / (p - 2)) ** q * 2 ** (p - 2)
    g3 = 0.5 * d3 * ((p - 2) / p) ** q * (gamma - a) ** q \
        / (2 ** (3 * p / 2 - 2) * (gamma - a) ** q + 2 ** (5 * p / 2 - 3) * a**q)
    pre = 2 * (1 + T**q) / d3 * (p / (p - 2)) ** q
    c1 = pre * (2 ** (p - 2) + 2 ** (3 * p / 2 - 2) * rat**q)
    c2 = pre * (2 ** (3 * p / 2 - 2) + 2 ** (5 * p / 2 - 3) * rat**q) / g3
    bracket = 2 ** (3 * p - 2) * dp * dp / d2**q + 2 ** (3 * p / 2 - 1) * g3
    pre_z = 2 / d3 * (p / (p - 2)) ** q / d2**q
    c3 = pre_z * (2**q + bracket * (2 ** (p - 2) + 2 ** (3 * p / 2 - 2) * rat**q))
    c4 = pre_z * (bracket * (2 ** (3 * p / 2 - 2) + 2 ** (5 * p / 2 - 3) * rat) ** q / g3
                  + 2 ** (3 * p / 2 - 1) * g3)
    return d1, d2, d3, g3, max(c1 + c3, c2 + c4)


# ---------------------------------------------------------------------------
# Reference: the point-by-point evaluator the broadcast one replaced, kept
# verbatim.  The broadcast report must agree with it at every grid point.
# ---------------------------------------------------------------------------

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
    mass = max(params.alpha_y.total_mass(), params.alpha_z.total_mass())
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


def mass_report(alpha_y, alpha_z, beta=1.0):
    return constants_report(StructuralParams(
        lipschitz=1.0, horizon=1.0, p=2.0, dim_y=1,
        alpha_y=alpha_y, alpha_z=alpha_z, beta=beta, gamma=0.5,
    ))


class TestMassBounds:
    def test_max_of_totals(self):
        a = atom_measure(1.0, -0.5, 1.0)
        b = DelayMeasure(1.0, density_pieces=((-1.0, 0.0, 2.0),))
        assert mass_report(a, b).mass_bound == 2.0
        assert mass_report(b, a).mass_bound == 2.0
        assert mass_report(a, a).mass_bound == 1.0

    def test_empty_measures_give_zero(self):
        z = DelayMeasure(1.0)
        assert mass_report(z, z).mass_bound == 0.0
        assert mass_report(z, z).weighted_mass_bound == 0.0

    def test_weighted_reduces_at_beta_zero(self):
        a = atom_measure(1.0, -0.5)
        report = mass_report(a, a, beta=0.0)
        assert report.weighted_mass_bound == report.mass_bound == 1.0

    def test_weighted_atom(self):
        a = atom_measure(1.0, -0.5)
        assert mass_report(a, a).weighted_mass_bound == pytest.approx(np.exp(0.5), rel=1e-12)

    def test_weighted_with_one_empty(self):
        z = DelayMeasure(1.0)
        a = atom_measure(1.0, -0.25)
        for report in (mass_report(z, a, 2.0), mass_report(a, z, 2.0)):
            assert report.weighted_mass_bound == pytest.approx(np.exp(0.5), rel=1e-12)

    def test_array_beta_equals_number_calls(self):
        a = atom_measure(1.0, -0.5)
        b = DelayMeasure(1.0, density_pieces=((-0.8, -0.1, 1.5),))
        betas = np.array([[0.0, 1e-9], [0.5, 30.0]])
        report = mass_report(a, b, betas)
        assert report.weighted_mass_bound.shape == betas.shape
        expected = [[mass_report(a, b, float(x)).weighted_mass_bound for x in row]
                    for row in betas]
        assert np.array_equal(report.weighted_mass_bound, expected)
        assert np.array_equal(report.mass_bound, np.full(betas.shape, b.total_mass()))


class TestBdgConstant:
    def test_spot_value_p4_m1(self):
        assert bdg_constant(4, 1) == pytest.approx(359.594, abs=1e-3)
        assert bdg_constant(4, 1) == pytest.approx(oracle_bdg(4, 1), rel=1e-12)

    def test_spot_value_p4_m2(self):
        assert bdg_constant(4, 2) == pytest.approx(2876.75, abs=1e-2)
        assert bdg_constant(4, 2) == pytest.approx(oracle_bdg(4, 2), rel=1e-12)

    def test_spot_value_p3_m1(self):
        assert bdg_constant(3, 1) == pytest.approx(oracle_bdg(3, 1), rel=1e-12)

    def test_rejects_p_at_most_two(self):
        with pytest.raises(ValueError, match="p > 2"):
            bdg_constant(2, 1)


class TestStabilityConstants:
    def test_zero_lipschitz_limit(self):
        d1, d2, d3 = stability_constants(params_for(0.0, beta=2.0, gamma=0.75))
        assert d1 == 2.0 - 0.75
        assert d2 == 1.0
        assert d3 == 1.0

    def test_simple_arithmetic(self):
        # beta=2, gamma=1 and weighted lipschitz mass 0.5 pinned by hand:
        # the atom at lag 0.5 has exp-weighted mass e^(0.5 beta) = e
        meas = atom_measure(1.0, -0.5)
        K = 0.5 / np.exp(1.0)
        params = StructuralParams(lipschitz=K, horizon=1.0, p=4.0, dim_y=1,
                                  alpha_y=meas, alpha_z=meas, beta=2.0, gamma=1.0)
        d1, d2, _ = stability_constants(params)
        assert d1 == pytest.approx(2.0 - 1.0 - 0.5, rel=1e-12)
        assert d2 == pytest.approx(0.5, rel=1e-12)

    def test_singular_boundary_reports_minus_inf(self):
        meas = atom_measure(1.0, -0.5)
        K = 1.0 / np.exp(1.0)  # weighted lipschitz mass equals gamma
        params = StructuralParams(lipschitz=K, horizon=1.0, p=4.0, dim_y=1,
                                  alpha_y=meas, alpha_z=meas, beta=2.0, gamma=1.0)
        d1, d2, d3 = stability_constants(params)
        assert d2 == pytest.approx(0.0, abs=1e-12)
        assert d3 == float("-inf")

    def test_matches_oracle_on_feasible_point(self):
        params = params_for(1e-7)
        wy = params.alpha_y.exp_weighted_mass(1.0)
        d1, d2, d3 = stability_constants(params)
        o1, o2, o3, *_ = oracle_constants(1e-7, 0.5, 4.0, 1, 1.0, 0.5, wy, wy, 1.0, 1.0)
        assert d1 == pytest.approx(o1, rel=1e-12)
        assert d2 == pytest.approx(o2, rel=1e-12)
        assert d3 == pytest.approx(o3, rel=1e-10)


class TestAprioriConstant:
    GOLDEN_CP = 34720683304230.453  # frozen from the cross-checked evaluation

    def test_infeasible_point_raises(self):
        with pytest.raises(ValueError, match="infeasible"):
            apriori_constant(params_for(0.01))

    def test_zero_lipschitz_gamma3_limit(self):
        p = 4.0
        g3, *_ = apriori_constant(params_for(0.0, p=p))
        expected = 0.5 * ((p - 2) / p) ** (p / 2) * 2.0 ** (-(3 * p / 2 - 2))
        assert g3 == pytest.approx(expected, rel=1e-12)

    def test_golden_value_and_oracle(self):
        params = params_for(1e-7)
        g3, c1, c2, c3, c4, cp = apriori_constant(params)
        assert cp == pytest.approx(self.GOLDEN_CP, rel=1e-12)
        wy = params.alpha_y.exp_weighted_mass(1.0)
        *_, og3, ocp = oracle_constants(1e-7, 0.5, 4.0, 1, 1.0, 0.5, wy, wy, 1.0, 1.0)
        assert g3 == pytest.approx(og3, rel=1e-10)
        assert cp == pytest.approx(ocp, rel=1e-10)

    def test_symmetric_in_measure_swap(self):
        # the constant reads the two measures only through maxima, so
        # exchanging genuinely different measures changes nothing
        a = atom_measure(0.5, -0.25, 0.5)
        b = DelayMeasure(0.5, density_pieces=((-0.4, -0.1, 1.0),))
        params = StructuralParams(lipschitz=1e-7, horizon=0.5, p=4.0, dim_y=1,
                                  alpha_y=a, alpha_z=b, beta=1.0, gamma=0.5)
        swapped = StructuralParams(lipschitz=1e-7, horizon=0.5, p=4.0, dim_y=1,
                                   alpha_y=b, alpha_z=a, beta=1.0, gamma=0.5)
        assert apriori_constant(params) == apriori_constant(swapped)


class TestL2Existence:
    def test_reference_fixture(self):
        lhs_y, lhs_z, feasible = l2_existence_check(params_for(0.1, p=2.0))
        expected = 5.0 * 0.1 * np.exp(0.25)
        assert lhs_y == pytest.approx(expected, abs=1e-3)
        assert lhs_y == pytest.approx(0.642, abs=1e-3)
        assert lhs_z == lhs_y
        assert feasible

    def test_zero_lipschitz_is_feasible(self):
        lhs_y, lhs_z, feasible = l2_existence_check(params_for(0.0, p=2.0))
        assert lhs_y == 0.0 and lhs_z == 0.0 and feasible

    def test_large_lipschitz_infeasible(self):
        params = params_for(1.0, T=1.0, p=2.0, delay=-0.5)
        lhs_y, _, feasible = l2_existence_check(params)
        assert lhs_y == pytest.approx(9.0 * np.exp(0.5), rel=1e-9)
        assert not feasible

    def test_beta_zero_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            l2_existence_check(params_for(0.1, beta=0.0, p=2.0))


class TestContraction:
    def test_zero_lipschitz_feasible(self):
        lhs_y, lhs_z, feasible = lp_contraction_check(params_for(0.0))
        assert lhs_y == 0.0 and feasible

    def test_golden_fixture_feasible(self):
        lhs_y, lhs_z, feasible = lp_contraction_check(params_for(1e-7))
        assert feasible
        assert lhs_y == pytest.approx(0.2862236, rel=1e-5)

    def test_large_lipschitz_errors_through_apriori(self):
        with pytest.raises(ValueError, match="infeasible"):
            lp_contraction_check(params_for(10.0, T=1.0))


class TestMonotonicityInL:
    def test_constants_monotone_on_grid(self):
        ks = np.linspace(0.0, 8e-6, 20)
        d1s, d2s, d3s, l2s, lps = [], [], [], [], []
        for k in ks:
            params = params_for(float(k))
            d1, d2, d3 = stability_constants(params)
            d1s.append(d1)
            d2s.append(d2)
            d3s.append(d3)
            l2s.append(max(l2_existence_check(params)[:2]))
            if d3 > 0:
                lps.append(max(lp_contraction_check(params)[:2]))
        assert all(np.diff(d1s) <= 1e-15)
        assert all(np.diff(d2s) <= 1e-15)
        assert all(np.diff(d3s) <= 1e-15)
        assert all(np.diff(l2s) >= -1e-15)
        assert all(np.diff(lps) >= -1e-15)


class TestSearchFeasible:
    def test_zero_lipschitz_returns_pair_with_beta_above_gamma(self):
        best = search_feasible(params_for(0.0, p=2.0), [0.5, 1.0, 2.0], [0.25, 0.5, 1.0])
        assert best is not None
        beta, gamma, margin = best
        assert beta > gamma
        assert margin > 0

    def test_huge_lipschitz_returns_none(self):
        best = search_feasible(params_for(50.0, T=1.0), [0.5, 1.0, 2.0], [0.25, 0.5, 1.0])
        assert best is None

    def test_golden_params_have_feasible_pair(self):
        best = search_feasible(params_for(1e-7), [0.5, 1.0, 2.0], [0.25, 0.5, 1.0])
        assert best is not None
        assert best[2] > 0

    def test_tie_break_prefers_smallest_beta_then_gamma(self):
        # with zero lipschitz mass the margin caps at 1 for beta - gamma >= 1,
        # so several candidates tie and the smallest pair must win
        base = params_for(0.0, p=2.0)
        best = search_feasible(base, [3.0, 4.0], [0.5, 1.0])
        assert best == (3.0, 0.5, 1.0)
        # the rule holds whatever order the grid comes in
        assert search_feasible(base, [4.0, 3.0], [1.0, 0.5]) == (3.0, 0.5, 1.0)

    def test_margin_matches_brute_maximum(self):
        base = params_for(1e-7)
        betas, gammas = [0.5, 1.0, 2.0], [0.25, 0.5]
        margins = {
            (b, g): constants_report(replace(base, beta=b, gamma=g)).margin
            for b in betas for g in gammas
        }
        best = search_feasible(base, betas, gammas)
        assert best[2] == pytest.approx(max(margins.values()))


class TestBestFeasible:
    """The best-pair rule over a report's arrays, on hand-made margins."""

    @staticmethod
    def report(margin):
        margin = np.array(margin)
        beta = np.array([1.0, 2.0, 3.0])[:, None]
        gamma = np.array([0.1, 0.2])[None, :]
        return SimpleNamespace(beta=np.broadcast_to(beta, margin.shape),
                               gamma=np.broadcast_to(gamma, margin.shape), margin=margin)

    def test_ties_break_on_beta_before_gamma(self):
        rep = self.report([[0.5, 0.9], [0.9, 0.2], [0.9, 0.9]])
        assert best_feasible(rep) == (1.0, 0.2, 0.9)

    def test_only_finite_positive_margins_count(self):
        inf, nan = math.inf, math.nan
        rep = self.report([[inf, nan], [0.0, -1.0], [0.25, -inf]])
        assert best_feasible(rep) == (3.0, 0.1, 0.25)
        assert best_feasible(self.report([[inf, nan], [0.0, -1.0], [-0.5, -inf]])) is None


class TestSearchFeasibleDomain:
    """Axis values outside beta >= 0, gamma > 0 are skipped, never an error."""

    @pytest.mark.parametrize("p", [2.0, 4.0])
    @pytest.mark.parametrize("K", [0.0, 1e-7, 0.1])
    def test_out_of_domain_values_change_nothing(self, p, K):
        base = params_for(K, p=p)
        betas, gammas = [0.0, 0.5, 1.0, 2.0, 3.0], [0.25, 0.5, 1.0]
        expected = search_feasible(base, betas, gammas)
        padded = search_feasible(base, [-1.0, 0.0, 0.5, -0.5, 1.0, 2.0, 3.0],
                                 [0.0, 0.25, -0.5, 0.5, 1.0, -2.0])
        assert padded == expected

    def test_grid_outside_the_domain_gives_none(self):
        base = params_for(0.0, p=2.0)
        assert search_feasible(base, [-1.0, -0.5], [0.5, 1.0]) is None
        assert search_feasible(base, [1.0, 2.0], [0.0, -1.0]) is None
        assert search_feasible(base, [-1.0], [0.0]) is None

    def test_scalar_report_still_rejects_the_outside(self):
        with pytest.raises(ValueError, match="gamma must be positive"):
            constants_report(params_for(0.1, gamma=0.0))
        with pytest.raises(ValueError, match="gamma must be positive"):
            constants_report(params_for(0.1, beta=-1.0, gamma=-0.5))
        with pytest.raises(ValueError, match="beta must be nonnegative"):
            constants_report(params_for(0.1, beta=-1.0))


class TestConstantsReport:
    def test_report_collects_everything(self):
        rep = constants_report(params_for(1e-7))
        assert rep.lip_eff == pytest.approx(1e-7)
        assert rep.feasible_l2 and rep.feasible_energy and rep.feasible_contraction
        assert np.isfinite(rep.cp)

    def test_report_marks_infeasible_without_raising(self):
        rep = constants_report(params_for(0.01))
        assert not rep.feasible_energy
        assert not rep.feasible_contraction
        assert np.isnan(rep.cp)
        assert rep.d3 < 0

    def test_p2_report_has_nan_lp_fields(self):
        rep = constants_report(params_for(0.1, p=2.0))
        assert np.isnan(rep.d3)
        assert np.isnan(rep.cp)
        assert rep.feasible_l2

    def test_scalar_report_holds_python_numbers(self):
        for p in (2.0, 4.0):
            rep = constants_report(params_for(1e-7, p=p))
            for field in fields(ConstantsReport):
                kind = bool if field.name.startswith("feasible") else float
                assert type(getattr(rep, field.name)) is kind, field.name


class TestZeroLipschitzAtOverflowingBeta:
    """exp(-beta v) overflows to inf here, but K w(rho) is 0 since K = 0."""

    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_point_is_feasible_without_warnings(self, p):
        params = params_for(0.0, p=p, beta=3000.0, gamma=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = constants_report(params)
            best = search_feasible(params, [3000.0], [0.5])
            l2 = l2_existence_check(params)
        assert rep.weighted_mass_bound == math.inf
        assert (rep.d1, rep.d2) == (2999.5, 1.0)
        assert rep.l2_lhs_y == rep.l2_lhs_z == 0.0
        assert l2 == (0.0, 0.0, True)
        assert rep.feasible_l2 and rep.feasible_energy
        if p > 2:
            assert rep.d3 == 1.0
            assert rep.lp_lhs_y == rep.lp_lhs_z == 0.0
            assert rep.feasible_contraction
        assert rep.margin == 1.0
        assert best == (3000.0, 0.5, 1.0)


def _rich_params(K, p):
    """y-delay: an atom and two density pieces; z-delay: one atom."""
    alpha_y = DelayMeasure(0.5, atoms=((-0.25, 1.0),),
                           density_pieces=((-0.5, -0.4, 2.0), (-0.3, -0.1, 1.5)))
    alpha_z = atom_measure(0.5, -0.1, 0.5)
    return StructuralParams(lipschitz=K, horizon=0.5, p=p, dim_y=1,
                            alpha_y=alpha_y, alpha_z=alpha_z, beta=1.0, gamma=0.5)


class TestBroadcastMatchesReference:
    BETAS = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0])
    # from below d2 = 0 (gamma < K w) to above d1 = 0 (gamma > beta)
    GAMMAS = np.geomspace(1e-10, 12.0, 25)

    @pytest.mark.parametrize("p, K", [(2.0, 1e-8), (2.0, 0.05), (2.5, 1e-8),
                                      (3.0, 1e-8), (4.0, 1e-8)])
    def test_every_field_matches_the_scalar_evaluator(self, p, K):
        base = _rich_params(K, p)
        grid = constants_report(replace(base, beta=self.BETAS[:, None],
                                        gamma=self.GAMMAS[None, :]))
        points = [[replace(base, beta=float(b), gamma=float(g)) for g in self.GAMMAS]
                  for b in self.BETAS]
        refs = [[_evaluate(point) for point in row] for row in points]
        for field in fields(ConstantsReport):
            got = getattr(grid, field.name)
            want = np.array([[getattr(ref[0], field.name) for ref in row]
                             for row in refs])
            assert got.shape == want.shape == (len(self.BETAS), len(self.GAMMAS))
            if want.dtype == bool:
                assert np.array_equal(got, want), field.name
                continue
            for pattern in (np.isnan, np.isposinf, np.isneginf):
                assert np.array_equal(pattern(got), pattern(want)), field.name
            finite = np.isfinite(want)
            np.testing.assert_allclose(got[finite], want[finite], rtol=1e-14, atol=0,
                                       err_msg=field.name)
        # the grid must cross every boundary it is meant to test
        assert (grid.d2 > 0).any() and (grid.d2 <= 0).any()
        assert (grid.d1 > 0).any() and (grid.d1 <= 0).any()
        assert np.isnan(grid.l2_lhs_y[0]).all() and np.isfinite(grid.l2_lhs_y[1:]).all()
        assert grid.feasible_energy.any()
        if p > 2:
            assert (grid.d3 > 0).any() and np.isfinite(grid.d3[grid.d3 <= 0]).any()
            assert grid.feasible_contraction.any()
            self._check_scalar_functions(points, refs)

    @staticmethod
    def _check_scalar_functions(points, refs):
        """apriori_constant and lp_contraction_check still go through the evaluator."""
        for point, (_, pieces, lp) in zip(sum(points, []), sum(refs, [])):
            if pieces is None:
                with pytest.raises(ValueError, match="infeasible"):
                    apriori_constant(point)
                with pytest.raises(ValueError, match="infeasible"):
                    lp_contraction_check(point)
                continue
            assert apriori_constant(point) == pytest.approx(pieces, rel=1e-14, abs=0)
            got = lp_contraction_check(point)
            assert got[:2] == pytest.approx(lp[:2], rel=1e-14, abs=0)
            assert got[2] is lp[2]

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0])
    def test_grid_entries_equal_scalar_calls_exactly(self, p):
        # a single point runs the same ufunc loops as a grid, so the CSV of a
        # scan and the scalar public functions agree bit for bit at any p
        base = _rich_params(1e-8, p)
        grid = constants_report(replace(base, beta=self.BETAS[:, None],
                                        gamma=self.GAMMAS[None, :]))
        for i, beta in enumerate(self.BETAS):
            for j, gamma in enumerate(self.GAMMAS):
                point = constants_report(replace(base, beta=float(beta), gamma=float(gamma)))
                for field in fields(ConstantsReport):
                    want = getattr(point, field.name)
                    got = getattr(grid, field.name)[i, j]
                    assert got == want or (math.isnan(got) and math.isnan(want)), field.name
