import numpy as np
import pytest

from delaybsde.forward import make_forward, simulate_forward
from delaybsde.generators import make_driver, make_terminal
from delaybsde.measures import DelayMeasure
from delaybsde.regression import BasisSpec
from delaybsde.solver import (
    DelayFbsdeProblem,
    picard_solve,
    representation_z,
    variational_solve,
)

HORIZON = 0.5
SEED = 5


def build_problem(driver, terminal, alpha_y=None, alpha_z=None, x0=0.0):
    zero = DelayMeasure(HORIZON)
    return DelayFbsdeProblem(
        horizon=HORIZON,
        dim_x=1,
        dim_y=1,
        x0=[x0],
        forward=make_forward("brownian"),
        driver=driver,
        terminal=terminal,
        alpha_x=zero,
        alpha_y=alpha_y or zero,
        alpha_z=alpha_z or zero,
        p=2.0,
        beta=1.0,
        gamma=0.5,
    )


def solve_with_derivative(prob, n_steps, n_paths, seed=SEED, tol=1e-3, sweeps=8):
    grid = np.linspace(0.0, HORIZON, n_steps + 1)
    fwd = simulate_forward(prob.forward, prob.x0, grid, n_paths, seed)
    sol = picard_solve(prob, fwd, BasisSpec(), sweeps, tol)
    var = variational_solve(prob, fwd, sol, BasisSpec(), sweeps, tol)
    z_rep = representation_z(fwd, var, prob.forward)
    return {"problem": prob, "forward": fwd, "solution": sol, "variational": var,
            "z_rep": z_rep}


def martingale_problem():
    return build_problem(make_driver("zero"), make_terminal("identity"))


def delay_control_problem():
    return build_problem(
        make_driver("linear_zdel", {"coeff": 0.1, "lipschitz": 0.1}),
        make_terminal("identity"),
        alpha_z=DelayMeasure(HORIZON, atoms=((-0.25, 1.0),)),
    )


def delay_value_problem():
    return build_problem(
        make_driver("linear_ydel", {"coeff": 0.1, "lipschitz": 0.1}),
        make_terminal("constant", {"value": 1.0}),
        alpha_y=DelayMeasure(HORIZON, atoms=((-0.25, 1.0),)),
    )


def quadratic_problem():
    return build_problem(make_driver("zero"), make_terminal("quadratic"), x0=1.0)


@pytest.fixture(scope="session")
def martingale_run():
    return solve_with_derivative(martingale_problem(), n_steps=20, n_paths=10_000)


@pytest.fixture(scope="session")
def delay_control_run():
    return solve_with_derivative(delay_control_problem(), n_steps=20, n_paths=20_000)


@pytest.fixture(scope="session")
def delay_value_run():
    return solve_with_derivative(
        delay_value_problem(), n_steps=20, n_paths=4000, tol=1e-10, sweeps=12
    )


@pytest.fixture(scope="session")
def quadratic_reference():
    return solve_with_derivative(quadratic_problem(), n_steps=160, n_paths=10_000,
                                 tol=1e-4, sweeps=4)


@pytest.fixture(scope="session")
def delay_control_reference():
    return solve_with_derivative(delay_control_problem(), n_steps=160, n_paths=10_000)


@pytest.fixture(scope="session")
def delay_value_reference():
    return solve_with_derivative(
        delay_value_problem(), n_steps=160, n_paths=2000, tol=1e-10, sweeps=12
    )
