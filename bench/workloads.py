"""Benchmark workloads: configs, command lines and output checks.

Every workload runs one `delaybsde` CLI command on a config the benchmark
writes itself, so later edits to `configs/` cannot change what is measured.
The seed only reaches the program through `--seed`.  Sizes are chosen so one
command takes 2 to 3 seconds on one 2.1 GHz Xeon core, which fits 8 to 14
repetitions into one 30-second run.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HORIZON = 0.5


@dataclass(frozen=True)
class Workload:
    """One CLI command plus what the benchmark checks in its outputs.

    items: work per command, as path-solves (paths times backward solves) for
    the Monte Carlo commands and as (beta, gamma) points for the scan.
    """

    name: str
    command: str
    config: dict
    extra_args: tuple
    items: int
    item_unit: str
    check: Callable

    def argv(self, config_path, out_dir, seed):
        return [self.command, "--config", str(config_path), "--out", str(out_dir),
                "--seed", str(seed), *self.extra_args]


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _verdict(out_dir):
    lines = (Path(out_dir) / "verdict.txt").read_text().splitlines()
    return dict(line.split(": ", 1) for line in lines)


# --- delay_compare_z ------------------------------------------------------

DCZ_PATHS, DCZ_STEPS, DCZ_COEFF = 12000, 40, 0.1
Z_MEAN_TOL = 0.15
Y0_TOL = 5e-3
Z_REL_TOL = 0.25


def check_compare_z(out_dir, solution, problem):
    """Y0 against the discrete oracle, mean Z against 1, and the Z routes.

    With identity terminal, Brownian X and driver c * zdel, the exact control
    is Z = 1, so the discrete value is mean Y_T + c * sum_j dt_j sum_k W_z[j, k]
    with W_z the solver's own cell weights.
    """
    import numpy as np
    from delaybsde.measures import cell_weights

    grid = solution.grid
    wz = cell_weights(problem.alpha_z, grid)
    oracle = DCZ_COEFF * float(np.sum(np.diff(grid) * wz[:-1].sum(axis=1)))
    y0 = float(np.mean(solution.y[:, 0]))
    y_t = float(np.mean(solution.y[:, -1]))
    z_means = np.mean(solution.z[:, 1:-1], axis=0).ravel()
    rel = [float(r["rel_distance"]) for r in _rows(Path(out_dir) / "compare_z.csv")[1:-1]]
    obs = {
        "y0_err": abs(y0 - y_t - oracle),
        "z_mean_dev": float(np.max(np.abs(z_means - 1.0))),
        "z_rel_dist": max(rel),
        "sweeps": solution.sweeps,
    }
    problems = []
    if not obs["y0_err"] < Y0_TOL:
        problems.append(f"y0_err {obs['y0_err']:.3g} >= {Y0_TOL}")
    if not obs["z_mean_dev"] < Z_MEAN_TOL:
        problems.append(f"interior mean Z off 1 by {obs['z_mean_dev']:.3g}")
    if not obs["z_rel_dist"] < Z_REL_TOL:
        problems.append(f"z_rel_dist {obs['z_rel_dist']:.3g} >= {Z_REL_TOL}")
    return obs, problems


# --- fine_mesh_regularity -------------------------------------------------

FMR_PATHS = 700
FMR_MESHES = [10, 20, 40, 80]

def check_l2reg(out_dir, solution, problem):
    verdict = _verdict(out_dir)
    rows = _rows(Path(out_dir) / "l2reg.csv")
    obs = {"l2reg_slope_err": abs(float(verdict["fitted_slope"]) - 1.0)}
    problems = []
    if verdict.get("pass") != "true":
        problems.append(f"regularity verdict failed: slope {verdict['fitted_slope']}")
    if len(rows) != len(FMR_MESHES) or not all(float(r["functional"]) > 0 for r in rows):
        problems.append("l2reg.csv must hold one positive functional per coarse mesh")
    return obs, problems


# --- fd_shared_noise ------------------------------------------------------

FD_PATHS = 8000
FD_EPSILONS = (0.5, 0.25, 0.125)
FD_REL_TOL = 1e-6
RICHARDSON_TOL = 1e-4


def check_fd(out_dir, solution, problem):
    """Quadratic terminal, zero driver: each quotient error equals its step.

    (x + eps)^2 - x^2 = 2 eps x + eps^2 and the constant lies in the basis, so
    the quotient differs from the derivative solve by exactly eps, and the
    Richardson combination cancels it.
    """
    rows = _rows(Path(out_dir) / "fd_check.csv")
    verdict = _verdict(out_dir)
    rel = [abs(float(r["error"]) - float(r["epsilon"])) / float(r["epsilon"]) for r in rows]
    obs = {
        "fd_rel_dev": max(rel) if rel else float("nan"),
        "richardson_error": float(verdict["richardson_error"]),
    }
    problems = []
    if [float(r["epsilon"]) for r in rows] != list(FD_EPSILONS):
        problems.append("fd_check.csv epsilons differ from the config")
    if not obs["fd_rel_dev"] < FD_REL_TOL:
        problems.append(f"fd error off its epsilon by {obs['fd_rel_dev']:.3g} relative")
    if not obs["richardson_error"] < RICHARDSON_TOL:
        problems.append(f"richardson_error {obs['richardson_error']:.3g} >= {RICHARDSON_TOL}")
    return obs, problems


# --- feasibility_scan -----------------------------------------------------

SCAN_BETA = (0.5, 2.0, 120)
SCAN_GAMMA = (0.1, 1.0, 120)
# cp and the L^p condition are documented as nan where some energy constant
# d1, d2, d3 is not positive; everywhere else every value must be finite.
_LP_COLUMNS = ("cp", "lp_lhs_y", "lp_lhs_z")


def check_constants(out_dir, solution, problem):
    rows = _rows(Path(out_dir) / "constants.csv")
    verdict = _verdict(out_dir)["best_feasible"]
    problems = []
    expected = SCAN_BETA[2] * SCAN_GAMMA[2]
    if len(rows) != expected:
        problems.append(f"constants.csv has {len(rows)} rows, expected {expected}")
    bad = 0
    for row in rows:
        vals = {k: float(v) for k, v in row.items() if k != "feasible"}
        energy = all(vals[k] > 0 for k in ("d1", "d2", "d3"))
        for key, val in vals.items():
            if math.isfinite(val) != (energy or key not in _LP_COLUMNS):
                bad += 1
    if bad:
        problems.append(f"{bad} constants are non-finite where they should apply, or the reverse")
    best = dict(part.split("=") for part in verdict.split()) if verdict != "none" else {}
    hit = [r for r in rows if best
           and float(r["beta"]) == float(best["beta"]) and float(r["gamma"]) == float(best["gamma"])]
    if len(hit) != 1 or hit[0]["feasible"] != "true":
        problems.append(f"verdict {verdict!r} is not a feasible row of constants.csv")
    feasible = sum(r["feasible"] == "true" for r in rows)
    return {"feasible_frac": feasible / max(len(rows), 1)}, problems


def _config(sections):
    cfg = {"horizon": HORIZON, "p": 2, "beta": 1.0, "gamma": 0.5}
    cfg.update(sections)
    return cfg


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="delay_compare_z",
            command="compare-z",
            config=_config({
                "forward": {"preset": "brownian", "x0": [0.0]},
                "generator": {"preset": "linear_zdel", "coeff": DCZ_COEFF, "lipschitz": 0.1},
                "terminal": {"preset": "identity"},
                "delays": {
                    "alpha_y": [{"atom": [-0.25, 1.0]}],
                    "alpha_z": [{"atom": [-0.25, 1.0]}, {"density": [-0.5, -0.25, 2.0]}],
                },
                "solver": {"paths": DCZ_PATHS, "steps": DCZ_STEPS, "picard": 5, "tol": 1e-15,
                           "basis": {"degree": 2, "features": ["x", "xdel", "ydel", "zdel"],
                                     "ridge": 1e-8}},
            }),
            extra_args=(),
            items=DCZ_PATHS * 2,
            item_unit="path-solves",
            check=check_compare_z,
        ),
        Workload(
            name="fine_mesh_regularity",
            command="study-l2reg",
            config=_config({
                "forward": {"preset": "gbm", "x0": [1.0], "mu": 0.05, "nu": 0.3},
                "generator": {"preset": "linear_ydel", "coeff": 0.2, "lipschitz": 0.04},
                "terminal": {"preset": "quadratic"},
                "delays": {"alpha_y": [{"atom": [-0.1, 0.5]}, {"density": [-0.5, -0.2, 1.0]}]},
                "solver": {"paths": FMR_PATHS, "picard": 6, "tol": 1e-15,
                           "basis": {"degree": 2, "features": ["x", "ydel"]}},
                "study": {"meshes": FMR_MESHES, "reference_steps": 320, "slope_tol": 0.3},
            }),
            extra_args=(),
            items=FMR_PATHS * 2,
            item_unit="path-solves",
            check=check_l2reg,
        ),
        Workload(
            name="fd_shared_noise",
            command="fd-check",
            config=_config({
                "forward": {"preset": "brownian", "x0": [1.0]},
                "generator": {"preset": "zero", "lipschitz": 0.0},
                "terminal": {"preset": "quadratic"},
                "solver": {"paths": FD_PATHS, "steps": 40, "picard": 4, "tol": 1e-4},
                "study": {"fd_direction": [1.0], "fd_epsilons": list(FD_EPSILONS)},
            }),
            extra_args=(),
            # base, derivative, three steps and the noise-floor step
            items=FD_PATHS * 6,
            item_unit="path-solves",
            check=check_fd,
        ),
        Workload(
            name="feasibility_scan",
            command="check-constants",
            config=_config({
                "p": 4,
                "forward": {"preset": "brownian", "x0": [0.0]},
                "generator": {"preset": "linear_zdel", "coeff": 1e-4, "lipschitz": 1e-7},
                "terminal": {"preset": "identity"},
                "delays": {"alpha_y": [{"atom": [-0.25, 1.0]}],
                           "alpha_z": [{"atom": [-0.25, 1.0]}]},
            }),
            extra_args=("--beta-grid", "{}:{}:{}".format(*SCAN_BETA),
                        "--gamma-grid", "{}:{}:{}".format(*SCAN_GAMMA)),
            items=SCAN_BETA[2] * SCAN_GAMMA[2],
            item_unit="grid-points",
            check=check_constants,
        ),
    )
}
