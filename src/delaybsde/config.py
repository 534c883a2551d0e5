"""Experiment configuration: JSON schema, validation, object wiring.

Configs are data-only trees; every coefficient is a preset name plus
parameters, so the preset registries remain the sole source of code.  The
schema rejects unknown keys before any computation runs.
"""

from __future__ import annotations

import json
import math

import numpy as np
from jsonschema import Draft7Validator

from .generators import make_driver, make_terminal
from .forward import make_forward
from .measures import DelayMeasure
from .regression import FEATURES, BasisSpec
from .solver import DelayFbsdeProblem

__all__ = ["ConfigError", "CONFIG_SCHEMA", "load_config", "validate_config", "build_problem"]


class ConfigError(ValueError):
    """Invalid experiment configuration."""


_MEASURE_ENTRY = {
    "type": "object",
    "oneOf": [
        {
            "properties": {"atom": {"type": "array", "items": {"type": "number"},
                                    "minItems": 2, "maxItems": 2}},
            "required": ["atom"],
            "additionalProperties": False,
        },
        {
            "properties": {"density": {"type": "array", "items": {"type": "number"},
                                       "minItems": 3, "maxItems": 3}},
            "required": ["density"],
            "additionalProperties": False,
        },
    ],
}

_MEASURE = {"type": "array", "items": _MEASURE_ENTRY}

# perturbation sizes: a zero size divides by zero or gives an infinite ratio
_NONZERO_LIST = {"type": "array", "items": {"type": "number", "not": {"const": 0}},
                 "minItems": 1}


def _grid_range(end):
    """[lo, hi, n] of a linspace scan grid: both ends match end, n is a positive integer."""
    return {"type": "array", "items": [end, end, {"type": "integer", "minimum": 1}],
            "minItems": 3, "maxItems": 3}


CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "horizon": {"type": "number", "exclusiveMinimum": 0},
        "p": {"type": "number", "minimum": 2},
        "beta": {"type": "number", "minimum": 0},
        "gamma": {"type": "number", "exclusiveMinimum": 0},
        "beta_grid": _grid_range({"type": "number", "minimum": 0}),
        "gamma_grid": _grid_range({"type": "number", "exclusiveMinimum": 0}),
        "dim_x": {"type": "integer", "minimum": 1},
        "dim_y": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
        "output": {"type": "string"},
        "forward": {
            "type": "object",
            "properties": {
                "preset": {"type": "string"},
                "x0": {"type": "array", "items": {"type": "number"}},
                "mu": {"type": "number"},
                "nu": {"type": "number"},
                "rate": {"type": "number"},
                "vol": {"type": "number"},
            },
            "required": ["preset", "x0"],
            "additionalProperties": False,
        },
        "generator": {
            "type": "object",
            "properties": {
                "preset": {"type": "string"},
                "coeff": {"type": "number"},
                "const": {"type": "number"},
                "coeff_x": {"type": "number"},
                "coeff_y": {"type": "number"},
                "coeff_z": {"type": "number"},
                "lipschitz": {"type": "number", "minimum": 0},
            },
            "required": ["preset"],
            "additionalProperties": False,
        },
        "terminal": {
            "type": "object",
            "properties": {
                "preset": {"type": "string"},
                "offset": {"type": "number"},
                "slope": {"type": "number"},
                "value": {"type": "number"},
            },
            "required": ["preset"],
            "additionalProperties": False,
        },
        "delays": {
            "type": "object",
            "properties": {
                "alpha_x": _MEASURE,
                "alpha_y": _MEASURE,
                "alpha_z": _MEASURE,
            },
            "additionalProperties": False,
        },
        "solver": {
            "type": "object",
            "properties": {
                "paths": {"type": "integer", "minimum": 1},
                "steps": {"type": "integer", "minimum": 1},
                "picard": {"type": "integer", "minimum": 1},
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "basis": {
                    "type": "object",
                    "properties": {
                        "degree": {"type": "integer", "minimum": 0},
                        "features": {"type": "array", "items": {"enum": list(FEATURES)},
                                     "uniqueItems": True, "minItems": 1},
                        "ridge": {"type": "number", "minimum": 0},
                    },
                    "additionalProperties": False,
                },
            },
            "additionalProperties": False,
        },
        "study": {
            "type": "object",
            "properties": {
                "meshes": {"type": "array", "items": {"type": "integer", "minimum": 2}},
                "reference_steps": {"type": "integer", "minimum": 2},
                "separations": {"type": "array", "items": {"type": "number"}},
                "moment_p": {"type": "number", "minimum": 2},
                "slope_tol": {"type": "number", "exclusiveMinimum": 0},
                "epsilons": _NONZERO_LIST,
                "terminal_shift": {"type": "number"},
                "driver_shift": {"type": "number"},
                "fd_direction": {"type": "array", "items": {"type": "number"}},
                "fd_epsilons": _NONZERO_LIST,
            },
            "additionalProperties": False,
        },
    },
    "required": ["horizon", "forward", "generator", "terminal"],
    "additionalProperties": False,
}

_VALIDATOR = Draft7Validator(CONFIG_SCHEMA)


def _check_finite(node, where):
    """Reject the NaN and infinities that ``json.load`` accepts."""
    if isinstance(node, float) and not math.isfinite(node):
        raise ConfigError(f"config invalid at {where or '<root>'}: {node} is not a finite number")
    if isinstance(node, list):
        node = dict(enumerate(node))
    if isinstance(node, dict):
        for key, value in node.items():
            _check_finite(value, f"{where}/{key}" if where else str(key))


def validate_config(cfg):
    _check_finite(cfg, "")
    errors = sorted(_VALIDATOR.iter_errors(cfg), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        where = "/".join(str(part) for part in err.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {where}: {err.message}")


_SOLVER_RULES = CONFIG_SCHEMA["properties"]["solver"]["properties"]
_FLAG_RULES = {
    "seed": CONFIG_SCHEMA["properties"]["seed"],
    **{key: _SOLVER_RULES[key] for key in ("paths", "steps", "picard", "tol")},
    "beta_grid": CONFIG_SCHEMA["properties"]["beta_grid"],
    "gamma_grid": CONFIG_SCHEMA["properties"]["gamma_grid"],
    "meshes": CONFIG_SCHEMA["properties"]["study"]["properties"]["meshes"],
}


def validate_flag(key, value, source):
    """Apply the config's rule for key to a command-line value given by source."""
    for item in value if isinstance(value, list) else [value]:
        if isinstance(item, float) and not math.isfinite(item):
            raise ConfigError(f"{source}: {item} is not a finite number")
    err = next(Draft7Validator(_FLAG_RULES[key]).iter_errors(value), None)
    if err is not None:
        raise ConfigError(f"{source}: {err.message}")


def load_config(path):
    """Read and validate a JSON config file."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    validate_config(cfg)
    return cfg


def _measure_from(cfg, key, horizon):
    entries = cfg.get("delays", {}).get(key, [])
    return DelayMeasure.from_literal(horizon, entries)


def _preset_params(section):
    """Every key of a coefficient section but preset and x0; the schema limits the keys."""
    return {k: v for k, v in section.items() if k not in ("preset", "x0")}


def build_problem(cfg):
    """Wire a validated config into a problem instance."""
    horizon = float(cfg["horizon"])
    dim_x = int(cfg.get("dim_x", 1))
    dim_y = int(cfg.get("dim_y", 1))
    fwd = cfg["forward"]
    try:
        coeffs = make_forward(fwd["preset"], _preset_params(fwd), dim_x)
        driver = make_driver(cfg["generator"]["preset"], _preset_params(cfg["generator"]),
                             dim_x, dim_y)
        terminal = make_terminal(cfg["terminal"]["preset"], _preset_params(cfg["terminal"]),
                                 dim_x, dim_y)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    x0 = np.asarray(fwd["x0"], dtype=float)
    if x0.shape != (dim_x,):
        raise ConfigError(f"forward.x0 must have length dim_x={dim_x}")
    return DelayFbsdeProblem(
        horizon=horizon,
        dim_x=dim_x,
        dim_y=dim_y,
        x0=x0,
        forward=coeffs,
        driver=driver,
        terminal=terminal,
        alpha_x=_measure_from(cfg, "alpha_x", horizon),
        alpha_y=_measure_from(cfg, "alpha_y", horizon),
        alpha_z=_measure_from(cfg, "alpha_z", horizon),
        p=float(cfg.get("p", 2.0)),
        beta=float(cfg.get("beta", 1.0)),
        gamma=float(cfg.get("gamma", 0.5)),
    )


def _pick(overrides, section, key, default):
    value = overrides.get(key)
    return section.get(key, default) if value is None else value


def solver_settings(cfg, overrides=None):
    """Solver parameters with CLI overrides applied."""
    section = dict(cfg.get("solver", {}))
    overrides = overrides or {}
    out = {
        "paths": int(_pick(overrides, section, "paths", 4000)),
        "steps": int(_pick(overrides, section, "steps", 20)),
        "picard": int(_pick(overrides, section, "picard", 8)),
        "tol": float(_pick(overrides, section, "tol", 1e-3)),
    }
    basis_cfg = section.get("basis", {})
    kwargs = {}
    if "degree" in basis_cfg:
        kwargs["degree"] = int(basis_cfg["degree"])
    if "features" in basis_cfg:
        kwargs["features"] = tuple(basis_cfg["features"])
    if "ridge" in basis_cfg:
        kwargs["ridge"] = float(basis_cfg["ridge"])
    out["basis"] = BasisSpec(**kwargs)
    return out
