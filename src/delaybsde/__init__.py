"""Regression Monte Carlo engine for FBSDE with time-delayed generators."""

__version__ = "0.1.0"

from .measures import DelayMeasure
from .constants import (
    StructuralParams,
    ConstantsReport,
    bdg_constant,
    constants_report,
    search_feasible,
)
from .forward import SdeCoefficients, ForwardBundle, make_forward, simulate_forward
from .generators import Driver, Terminal, make_driver, make_terminal
from .regression import BasisSpec
from .solver import (
    DelayFbsdeProblem,
    SolutionBundle,
    VariationalBundle,
    picard_solve,
    variational_solve,
    representation_z,
    fd_directional_check,
)
from .regularity import (
    RateReport,
    PerturbationReport,
    y_increment_rate,
    coarse_control_error,
    l2_regularity,
    best_approx_check,
    apriori_scaling,
    moment_check,
)

__all__ = [
    "DelayMeasure",
    "StructuralParams",
    "ConstantsReport",
    "bdg_constant",
    "constants_report",
    "search_feasible",
    "SdeCoefficients",
    "ForwardBundle",
    "make_forward",
    "simulate_forward",
    "Driver",
    "Terminal",
    "make_driver",
    "make_terminal",
    "BasisSpec",
    "DelayFbsdeProblem",
    "SolutionBundle",
    "VariationalBundle",
    "picard_solve",
    "variational_solve",
    "representation_z",
    "fd_directional_check",
    "RateReport",
    "PerturbationReport",
    "y_increment_rate",
    "coarse_control_error",
    "l2_regularity",
    "best_approx_check",
    "apriori_scaling",
    "moment_check",
]
