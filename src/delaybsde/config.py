"""Experiment configuration: JSON schema, validation, object wiring.

Configs are data-only trees; every coefficient is a preset name plus
parameters, so the preset registries remain the sole source of code.  The
schema rejects unknown keys before any computation runs.  It is checked by
_schema_errors, a Draft-7 subset with jsonschema's error order and wording.
"""

from __future__ import annotations

import json
import math
import numbers

import numpy as np

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

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or isinstance(v, float) and v.is_integer()),
}
_TRUE, _FALSE = object(), object()


def _unbool(v):
    """Keep True apart from 1 and False from 0 under == and sorting."""
    return _TRUE if v is True else _FALSE if v is False else v


def _equal(a, b):
    """JSON equality: 1 == 1.0, but True != 1, recursively in lists and objects."""
    if a is b or isinstance(a, str) or isinstance(b, str):
        return a is b or a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return len(a) == len(b) and all(k in b and _equal(v, b[k]) for k, v in a.items())
    return _unbool(a) == _unbool(b)


def _unique(items):
    """jsonschema's uniqueness rule, quirks included.

    Sort and compare neighbours, or compare every pair when the items do not sort.
    """
    try:
        ordered = sorted(map(_unbool, items))
        return not any(map(_equal, ordered, ordered[1:]))
    except TypeError:
        seen = []
        for item in map(_unbool, items):
            if any(_equal(other, item) for other in seen):
                return False
            seen.append(item)
        return True


def _schema_errors(schema, value, path=()):
    """Yield (path, message) for each rule of schema that value breaks.

    Covers the Draft-7 keywords CONFIG_SCHEMA uses, in schema order and with
    jsonschema's messages, so a first error is the one jsonschema reports.
    """
    is_list, is_dict, is_number = (isinstance(value, list), isinstance(value, dict),
                                   _TYPES["number"](value))
    for key, rule in schema.items():
        if key == "type":
            if not _TYPES[rule](value):
                yield path, f"{value!r} is not of type {rule!r}"
        elif key == "properties":
            for name, sub in rule.items() if is_dict else ():
                if name in value:
                    yield from _schema_errors(sub, value[name], path + (name,))
        elif key == "required":
            for name in rule if is_dict else ():
                if name not in value:
                    yield path, f"{name!r} is a required property"
        elif key == "additionalProperties":
            known = schema.get("properties", {})
            extras = sorted({k for k in value if k not in known} if is_dict else ())
            if extras and rule is False:
                verb = "was" if len(extras) == 1 else "were"
                yield path, (f"Additional properties are not allowed "
                             f"({', '.join(map(repr, extras))} {verb} unexpected)")
        elif key == "items":
            if is_list:
                subs = rule if isinstance(rule, list) else [rule] * len(value)
                for index, (item, sub) in enumerate(zip(value, subs)):
                    yield from _schema_errors(sub, item, path + (index,))
        elif key == "minItems":
            if is_list and len(value) < rule:
                short = "should be non-empty" if rule == 1 else "is too short"
                yield path, f"{value!r} {short}"
        elif key == "maxItems":
            if is_list and len(value) > rule:
                yield path, f"{value!r} is too long"
        elif key == "uniqueItems":
            if rule and is_list and not _unique(value):
                yield path, f"{value!r} has non-unique elements"
        elif key == "minimum":
            if is_number and value < rule:
                yield path, f"{value!r} is less than the minimum of {rule!r}"
        elif key == "maximum":
            if is_number and value > rule:
                yield path, f"{value!r} is greater than the maximum of {rule!r}"
        elif key == "exclusiveMinimum":
            if is_number and value <= rule:
                yield path, f"{value!r} is less than or equal to the minimum of {rule!r}"
        elif key == "enum":
            if not any(_equal(each, value) for each in rule):
                yield path, f"{value!r} is not one of {rule!r}"
        elif key == "const":
            if not _equal(value, rule):
                yield path, f"{rule!r} was expected"
        elif key == "not":
            if not any(_schema_errors(rule, value)):
                yield path, f"{value!r} should not be valid under {rule!r}"
        elif key == "oneOf":
            valid = [sub for sub in rule if not any(_schema_errors(sub, value))]
            if not valid:
                yield path, f"{value!r} is not valid under any of the given schemas"
            elif len(valid) > 1:
                reprs = ", ".join(map(repr, valid[1:] + valid[:1]))
                yield path, f"{value!r} is valid under each of {reprs}"
        else:
            raise KeyError(f"schema keyword {key!r} is not supported")


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
    err = min(_schema_errors(CONFIG_SCHEMA, cfg), key=lambda e: e[0], default=None)
    if err is not None:
        where = "/".join(map(str, err[0])) or "<root>"
        raise ConfigError(f"config invalid at {where}: {err[1]}")


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
    err = next(_schema_errors(_FLAG_RULES[key], value), None)
    if err is not None:
        raise ConfigError(f"{source}: {err[1]}")


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
    try:
        return DelayMeasure.from_literal(horizon, entries)
    except ValueError as exc:
        raise ConfigError(f"delays/{key}: {exc}") from exc


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
