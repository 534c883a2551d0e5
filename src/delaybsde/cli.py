"""Command-line entry point: experiment orchestration and CSV emission.

Commands
    check-constants   evaluate the feasibility constants, optionally on a
                      (beta, gamma) grid
    solve             run the Picard solver, emit per-node summary and sweep
                      diagnostics
    variational       state Jacobian solve of (Y, Z) in the initial state
    compare-z         node-wise relative distance between the regression
                      control and the flow-formula control
    fd-check          difference quotients of Y against the Jacobian solve
    study-picard      sweep-diagnostic contraction study
    study-yinc        increment-moment rate study
    study-l2reg       control mean-square regularity rate study
    study-apriori     perturbation scaling study

Commands compute and return their outputs; `main` writes them, then a
manifest (config hash, seed, versions), only when the command succeeds.
Identical config and seed reproduce outputs byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, build_problem, load_config, solver_settings, validate_flag
from .constants import best_feasible, constants_report
from .regularity import (
    ROUNDING_LEVEL,
    STATE_BASIS,
    apriori_scaling,
    l2_regularity,
    separation_steps,
    y_increment_rate,
)
from .solver import (
    fd_directional_check,
    picard_solve,
    regression_basis,
    representation_z,
    variational_solve,
)
from .forward import simulate_forward


def _fmt(value):
    if type(value) is float:
        return repr(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows):
    with open(path, "w") as out:
        out.write(",".join(header) + "\n")
        out.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)


def write_manifest(out_dir, cfg, args, command):
    payload = json.dumps(cfg, sort_keys=True).encode()
    manifest = {
        "command": command,
        "config_sha256": hashlib.sha256(payload).hexdigest(),
        "seed": args.seed if args.seed is not None else cfg.get("seed", 0),
        "overrides": {
            k: getattr(args, k)
            for k in ("paths", "steps", "picard", "tol", "beta_grid", "gamma_grid", "meshes")
            if getattr(args, k, None) is not None
        },
        "versions": {"delaybsde": __version__, "numpy": np.__version__},
    }
    path = Path(out_dir) / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _grid_from(spec_triplet, fallback):
    if spec_triplet is None:
        return np.array([fallback])
    lo, hi, n = spec_triplet
    return np.linspace(float(lo), float(hi), int(n))


def _parse_grid_flag(args, key):
    text = getattr(args, key)
    if text is None:
        return None
    try:
        lo, hi, n = text.split(":")
        spec = [float(lo), float(hi), int(n)]
    except ValueError as exc:
        raise ConfigError(f"grid flag must look like lo:hi:n, got {text!r}") from exc
    validate_flag(key, spec, f"--{key.replace('_', '-')} {text}")
    return spec


def _load(args):
    for key in ("seed", "paths", "steps", "picard", "tol"):
        value = getattr(args, key)
        if value is not None:
            validate_flag(key, value, f"--{key} {value}")
    return load_config(args.config)


def _setup(cfg, args, default_basis=None, state_fit=False):
    """Problem, solver settings and seed of a Monte Carlo command.

    default_basis replaces the solver's default basis when the config selects
    none; state_fit adds the fit on the state alone at the solver's degree
    (study-l2reg's coarse projections).  A basis of k > 1 functions needs at
    least 10 k paths (the regressions' rule), checked here for every basis,
    before any path is simulated.
    """
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    problem, settings = build_problem(cfg), solver_settings(cfg, vars(args))
    if default_basis is not None and "basis" not in cfg.get("solver", {}):
        settings["basis"] = default_basis
    bases = [settings["basis"]]
    if state_fit:
        bases.append(replace(settings["basis"], features=("x",)))
    k = max(regression_basis(problem, basis)[1] for basis in bases)
    if k > max(1, settings["paths"] // 10):
        raise ConfigError(f"basis size {k} needs at least {10 * k} paths, "
                          f"got {settings['paths']}")
    return problem, settings, seed


def _simulate(problem, settings, seed, steps):
    grid = np.linspace(0.0, problem.horizon, steps + 1)
    return simulate_forward(problem.forward, problem.x0, grid, settings["paths"], seed)


def _solve_from_config(cfg, args, steps=None, state_fit=False):
    problem, settings, seed = _setup(cfg, args, state_fit=state_fit)
    forward = _simulate(problem, settings, seed, steps or settings["steps"])
    solution = picard_solve(problem, forward, settings["basis"],
                            settings["picard"], settings["tol"])
    return problem, settings, forward, solution


# Each command computes and returns (tables, verdict, line): its CSV tables as
# {file name: (header, rows)}, its verdict.txt fields as {key: value} and its
# stdout line.  It writes nothing; main writes the outputs once it succeeds.


def cmd_check_constants(args, cfg):
    beta_spec = _parse_grid_flag(args, "beta_grid")
    gamma_spec = _parse_grid_flag(args, "gamma_grid")
    params = build_problem(cfg).structural_params()
    betas = _grid_from(beta_spec or cfg.get("beta_grid"), params.beta)
    gammas = _grid_from(gamma_spec or cfg.get("gamma_grid"), params.gamma)
    header = ["beta", "gamma", "d1", "d2", "d3", "cp",
              "l2_lhs_y", "l2_lhs_z", "lp_lhs_y", "lp_lhs_z", "feasible"]
    rep = constants_report(replace(params, beta=betas[:, None], gamma=gammas[None, :]))
    feasible = rep.feasible_l2 if params.p == 2 else (
        rep.feasible_energy & rep.feasible_contraction
    )
    columns = [rep.beta, rep.gamma, rep.d1, rep.d2, rep.d3, rep.cp,
               rep.l2_lhs_y, rep.l2_lhs_z, rep.lp_lhs_y, rep.lp_lhs_z, feasible]
    rows = zip(*(column.ravel().tolist() for column in columns))
    best = best_feasible(rep)
    verdict = "none" if best is None else f"beta={best[0]} gamma={best[1]} margin={best[2]}"
    return ({"constants.csv": (header, rows)}, {"best_feasible": verdict},
            f"{rep.margin.size} (beta, gamma) points; best_feasible: {verdict}")


def cmd_solve(args, cfg):
    problem, settings, forward, solution = _solve_from_config(cfg, args)
    rows = []
    for i, t in enumerate(forward.grid):
        y_i = solution.y[:, i]
        z_i = solution.z[:, i].reshape(len(y_i), -1)
        rows.append([float(t), float(np.mean(y_i)), float(np.std(y_i)),
                     float(np.mean(z_i)), float(np.std(z_i))])
    diag = [[k + 1, dy, dz] for k, (dy, dz) in
            enumerate(zip(solution.diffs_y, solution.diffs_z))]
    tables = {"solution.csv": (["t", "mean_y", "sd_y", "mean_z", "sd_z"], rows),
              "diagnostics.csv": (["sweep", "diff_y", "diff_z"], diag)}
    status = (f"converged in {solution.sweeps} sweeps" if solution.converged
              else _stopped(solution))
    return tables, {}, (f"{status}; mean Y0 = {float(np.mean(solution.y[:, 0])):.6g}; "
                        f"feasibility: {solution.feasibility or {}}")


def _stopped(bundle):
    """Status of a solve cut off at its sweep limit."""
    return (f"stopped after {bundle.sweeps} sweeps without converging "
            f"(last update {bundle.last_update:.3g} >= tol {bundle.tol:.3g})")


def _unconverged(solves):
    """Stdout suffix naming each solve status cut off at its sweep limit."""
    return "".join(f"; {status.label} {_stopped(status)}" for status in solves
                   if not status.converged)


def _convergence(solves):
    """verdict.txt keys of each solve status: its sweeps, whether it converged, its last update."""
    verdict = {}
    for status in solves:
        key = status.label.replace(" ", "_").replace("-", "_")
        verdict.update({f"{key}_sweeps": status.sweeps, f"{key}_converged": status.converged,
                        f"{key}_last_update": status.last_update})
    return verdict


def _jacobian(problem, settings, forward, solution):
    """The derivative solve of the base solution, and the statuses of both."""
    var = variational_solve(problem, forward, solution,
                            settings["basis"], settings["picard"], settings["tol"])
    return var, [solution.status("base solve"), var.status("derivative solve")]


def cmd_variational(args, cfg):
    problem, settings, forward, solution = _solve_from_config(cfg, args)
    var, solves = _jacobian(problem, settings, forward, solution)
    rows = []
    for axis in range(problem.dim_x):
        for i, t in enumerate(forward.grid):
            p_i = var.p[:, i, :, axis]
            q_i = var.q[:, i, :, axis].reshape(len(p_i), -1)
            rows.append([float(t), axis, float(np.mean(p_i)), float(np.std(p_i)),
                         float(np.mean(q_i)), float(np.std(q_i))])
    header = ["t", "direction", "mean_dy", "sd_dy", "mean_dz", "sd_dz"]
    return ({"variational.csv": (header, rows)}, {},
            f"derivative sweeps: {var.sweeps}{_unconverged(solves)}")


def cmd_compare_z(args, cfg):
    steps = solver_settings(cfg, vars(args))["steps"]
    if steps < 2:
        raise ConfigError(f"compare-z needs at least 2 steps for an interior node, got {steps}")
    problem, settings, forward, solution = _solve_from_config(cfg, args)
    var, solves = _jacobian(problem, settings, forward, solution)
    z_rep = representation_z(forward, var, problem.forward)
    rows = []
    for i, t in enumerate(forward.grid):
        diff = solution.z[:, i] - z_rep[:, i]
        num = float(np.sqrt(np.mean(np.sum(diff**2, axis=(-2, -1)))))
        den = float(np.sqrt(np.mean(np.sum(z_rep[:, i] ** 2, axis=(-2, -1)))))
        rel = num / den if den > 1e-8 else num
        rows.append([float(t), num, den, rel])
    interior = [row[3] for row in rows[1:-1]]
    return ({"compare_z.csv": (["t", "abs_distance", "ref_norm", "rel_distance"], rows)}, {},
            f"max interior relative distance: {max(interior):.4g}{_unconverged(solves)}")


def cmd_fd_check(args, cfg):
    study = cfg.get("study", {})
    dim_x = int(cfg.get("dim_x", 1))
    h = np.asarray(study.get("fd_direction", [1.0] * dim_x), dtype=float)
    if len(h) != dim_x:
        raise ConfigError(f"study/fd_direction: need dim_x={dim_x} entries, got {len(h)}")
    problem, settings, seed = _setup(cfg, args)
    epsilons = study.get("fd_epsilons", [0.5, 0.25, 0.125])
    report = fd_directional_check(
        problem, h, epsilons, settings["paths"], settings["steps"], seed,
        settings["basis"], settings["picard"], settings["tol"],
    )
    rows = zip(report.epsilons, report.errors, report.block_ses)
    verdict = {"noise_floor": report.noise_floor, "noise_floor_se": report.noise_floor_se,
               "richardson_error": report.richardson_error, **_convergence(report.solves)}
    return ({"fd_check.csv": (["epsilon", "error", "block_se"], rows)}, verdict,
            f"fd errors: {report.errors}; noise floor {report.noise_floor:.4g}"
            f"{_unconverged(report.solves)}")


def cmd_study_picard(args, cfg):
    problem, settings, forward, solution = _solve_from_config(cfg, args)
    diffs = [max(dy, dz) for dy, dz in zip(solution.diffs_y, solution.diffs_z)]
    rows = []
    for k, (dy, dz) in enumerate(zip(solution.diffs_y, solution.diffs_z)):
        ratio = diffs[k] / diffs[k - 1] if k and diffs[k - 1] > 0 else float("nan")
        rows.append([k + 1, dy, dz, ratio])
    contracting = all(row[3] < 1 for row in rows[2:] if np.isfinite(row[3]))
    feas = solution.feasibility or {}
    solves = [solution.status("base solve")]
    verdict = {"ratios_below_one_after_sweep_2": contracting,
               "feasible_l2": bool(feas.get("l2", False)), **_convergence(solves)}
    return ({"picard.csv": (["sweep", "diff_y", "diff_z", "ratio"], rows)}, verdict,
            f"sweep diffs: {diffs}; contracting after sweep 2: {contracting}"
            f"{_unconverged(solves)}")


def _separations(cfg, args):
    """Study separations checked against the grid; 1, 2, 4 and 8 steps by default.

    Like the meshes of study-l2reg, a rate fit needs at least three.
    """
    steps = solver_settings(cfg, vars(args))["steps"]
    dt = float(cfg["horizon"]) / steps
    seps = cfg.get("study", {}).get("separations")
    if seps is None:
        seps = [k * dt for k in (1, 2, 4, 8) if k <= steps]
        where = f"default separations at {steps} steps"
    else:
        where = "study/separations"
        try:
            separation_steps(seps, dt, steps)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    if len(seps) < 3:
        raise ConfigError(f"{where}: need at least three separations for a rate fit")
    return seps


def _rate_outputs(name, header, report, what, solves):
    """Table, verdict and line of a rate study: fitted slope against the paper's target.

    The verdict holds the convergence of each solve status, and the line
    names each one that did not converge.  A rate that was not measured
    (functionals at rounding level) says so in both.
    """
    verdict = {"target_slope": report.target_slope, "fitted_slope": report.slope,
               "rate_measured": report.measured, "pass": report.passed,
               **_convergence(solves)}
    slope = f"{report.slope:.3f}" if report.measured else (
        f"not measured, every functional is at most {ROUNDING_LEVEL:g} of the "
        f"reference control's mean square {report.scale:.3g}")
    return ({name: (header, zip(report.sizes, report.values))}, verdict,
            f"{what} slope: {slope} (target {report.target_slope})"
            f"{_unconverged(solves)}")


def cmd_study_yinc(args, cfg):
    seps = _separations(cfg, args)
    problem, settings, forward, solution = _solve_from_config(cfg, args)
    study = cfg.get("study", {})
    p = float(study.get("moment_p", 2.0))
    tol = float(study.get("slope_tol", 0.15 if p == 2 else 0.3))
    report = y_increment_rate(solution, p, seps, tol)
    return _rate_outputs("yinc.csv", ["separation", "moment"], report, "increment moment",
                         [solution.status("base solve")])


def _meshes(cfg, args):
    """Coarse meshes and reference steps of study-l2reg, checked before any solve.

    A rate fit needs at least three meshes, and each must divide the
    reference mesh; 10, 20, 40 and 80 by default.
    """
    study = cfg.get("study", {})
    ref_steps = int(study.get("reference_steps", 160))
    meshes, where = study.get("meshes", [10, 20, 40, 80]), "study/meshes"
    if args.meshes is not None:
        meshes, where = args.meshes, "--meshes " + ",".join(map(str, args.meshes))
        validate_flag("meshes", meshes, where)
    if len(meshes) < 3:
        raise ConfigError(f"{where}: need at least three meshes for a rate fit")
    for nc in meshes:
        if ref_steps % nc:
            raise ConfigError(f"{where}: mesh {nc} does not divide reference_steps {ref_steps}")
    return meshes, ref_steps


def cmd_study_l2reg(args, cfg):
    meshes, ref_steps = _meshes(cfg, args)
    tol_slope = float(cfg.get("study", {}).get("slope_tol", 0.3))
    problem, settings, forward, solution = _solve_from_config(cfg, args, ref_steps,
                                                              state_fit=True)
    var, solves = _jacobian(problem, settings, forward, solution)
    z_ref = representation_z(forward, var, problem.forward)
    report = l2_regularity(forward, z_ref, meshes, settings["basis"], tol_slope)
    return _rate_outputs("l2reg.csv", ["mesh_size", "functional"], report, "regularity",
                         solves)


def cmd_study_apriori(args, cfg):
    study = cfg.get("study", {})
    terminal_shift = float(study.get("terminal_shift", 1.0))
    driver_shift = float(study.get("driver_shift", 1.0))
    if terminal_shift == 0.0 and driver_shift == 0.0:
        raise ConfigError("study/terminal_shift and study/driver_shift are both 0: "
                          "nothing is perturbed")
    problem, settings, seed = _setup(cfg, args, STATE_BASIS)
    forward = _simulate(problem, settings, seed, settings["steps"])
    report = apriori_scaling(
        problem, forward, study.get("epsilons", [0.4, 0.2, 0.1]),
        terminal_shift=terminal_shift, driver_shift=driver_shift,
        basis=settings["basis"], max_sweeps=settings["picard"], tol=settings["tol"],
    )
    rows = zip(report.epsilons, report.s_norms, report.h_norms_y, report.h_norms_z,
               report.rhs_terminal, report.rhs_driver, report.ratios)
    header = ["epsilon", "s_norm", "h_norm_y", "h_norm_z", "rhs_terminal", "rhs_driver", "ratio"]
    spread = (max(report.ratios) - min(report.ratios)) / min(report.ratios)
    return ({"apriori.csv": (header, rows)},
            {"ratio_spread": float(spread), **_convergence(report.solves)},
            f"stability ratios: {report.ratios}; spread {spread:.3g}"
            f"{_unconverged(report.solves)}")


_COMMANDS = {
    "check-constants": cmd_check_constants,
    "solve": cmd_solve,
    "variational": cmd_variational,
    "compare-z": cmd_compare_z,
    "fd-check": cmd_fd_check,
    "study-picard": cmd_study_picard,
    "study-yinc": cmd_study_yinc,
    "study-l2reg": cmd_study_l2reg,
    "study-apriori": cmd_study_apriori,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="delaybsde",
        description="Regression Monte Carlo engine for FBSDE with time-delayed generators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True)
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--paths", type=int, default=None)
        cmd.add_argument("--steps", type=int, default=None)
        cmd.add_argument("--picard", type=int, default=None)
        cmd.add_argument("--tol", type=float, default=None)
        cmd.add_argument("--out", default=None)
        if name == "check-constants":
            cmd.add_argument("--beta-grid", dest="beta_grid", default=None)
            cmd.add_argument("--gamma-grid", dest="gamma_grid", default=None)
        if name == "study-l2reg":
            cmd.add_argument("--meshes", type=lambda s: [int(x) for x in s.split(",")],
                             default=None)
    return parser


def main(argv=None):
    """Run one command; write its outputs into --out, manifest last, only if it succeeds.

    Input errors exit 2 and numerical failures exit 1, both before anything
    is written.
    """
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        tables, verdict, line = _COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FloatingPointError) as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(args.out or cfg.get("output", "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        write_csv(out_dir / name, header, rows)
    if verdict:
        (out_dir / "verdict.txt").write_text(
            "".join(f"{key}: {_fmt(value)}\n" for key, value in verdict.items()))
    write_manifest(out_dir, cfg, args, args.command)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
