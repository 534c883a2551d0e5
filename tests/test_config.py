"""The config checker against jsonschema's Draft-7 validator, and the CLI without jsonschema.

The package validates configs and command-line values with its own subset of
Draft 7; jsonschema is a test dependency only, kept as the reference for the
first error (path and message) that a config error reports.
"""

import copy
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft7Validator

from delaybsde.config import (
    _FLAG_RULES,
    CONFIG_SCHEMA,
    ConfigError,
    _schema_errors,
    validate_config,
    validate_flag,
)
from test_cli import base_config, l2reg_config, scan_config

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = {path.stem: json.loads(path.read_text())
           for path in sorted((ROOT / "configs").glob("*.json"))}
_REFERENCE = Draft7Validator(CONFIG_SCHEMA)


def reference_errors(cfg, validator=_REFERENCE):
    return [(tuple(err.absolute_path), err.message) for err in validator.iter_errors(cfg)]


def raised(check, *args):
    try:
        check(*args)
    except ConfigError as exc:
        return str(exc)
    return None


def assert_same_errors(cfg):
    """Same errors in the same order, and validate_config reports the first by path."""
    assert list(_schema_errors(CONFIG_SCHEMA, cfg)) == reference_errors(cfg)
    first = sorted(_REFERENCE.iter_errors(cfg), key=lambda e: list(e.absolute_path))
    expected = None
    if first:
        where = "/".join(map(str, first[0].absolute_path)) or "<root>"
        expected = f"config invalid at {where}: {first[0].message}"
    assert raised(validate_config, cfg) == expected


def _with(cfg, section, key, value):
    cfg = copy.deepcopy(cfg)
    if section is None:
        cfg[key] = value
    else:
        cfg.setdefault(section, {})[key] = value
    return cfg


def _without(cfg, key):
    cfg = copy.deepcopy(cfg)
    del cfg[key]
    return cfg


def _basis(features):
    cfg = base_config()
    cfg["solver"]["basis"] = {"features": features}
    return cfg


def _study(**study):
    cfg = base_config()
    cfg["study"] = study
    return cfg


# The bad configs of tests/test_cli.py, each as that test builds it.
SUITE_BAD_CONFIGS = {
    "missing_horizon": _without(base_config(), "horizon"),
    "unknown_section": base_config(unknown_section={"a": 1}),
    "unknown_nested_key": _with(base_config(), "forward", "drift_code", "lambda x: x"),
    "bad_measure_literal": base_config(delays={"alpha_z": [{"mass": [0.1]}]}),
    "unknown_preset": _with(base_config(), "generator", "preset", "quadratic_growth"),
    "long_x0": _with(base_config(), "forward", "x0", [0.0, 1.0]),
    "seed_above_uint64": base_config(seed=2**64),
    "feature_case": _basis(["X", "ydel"]),
    "feature_unknown": _basis(["x", "x_lags"]),
    "feature_repeated": _basis(["x", "x"]),
    "features_empty": _basis([]),
    "fd_epsilon_zero": _study(fd_epsilons=[0.5, 0]),
    "fd_epsilons_empty": _study(fd_epsilons=[]),
    "epsilon_zero_float": _study(epsilons=[0.2, 0.0]),
    "epsilons_empty": _study(epsilons=[]),
    "study_unknown_key": _study(target_slope=7.0),
    "shifts_both_zero": _study(terminal_shift=0, driver_shift=0.0),
    "mesh_below_two": l2reg_config(meshes=[1, 4, 8]),
    "two_meshes": l2reg_config(meshes=[4, 8]),
    "gamma_grid_zero_end": scan_config(gamma_grid=[0.0, 1.0, 5]),
    "gamma_grid_zero_points": scan_config(gamma_grid=[0.1, 1.0, 0]),
    "beta_grid_negative_end": scan_config(beta_grid=[0.5, -1.0, 3]),
    "beta_grid_fractional_points": scan_config(beta_grid=[0.5, 2.0, 2.5]),
}


@pytest.mark.parametrize("cfg", [*SHIPPED.values(), *SUITE_BAD_CONFIGS.values()],
                         ids=[*SHIPPED, *SUITE_BAD_CONFIGS])
def test_same_errors_as_jsonschema(cfg):
    assert_same_errors(cfg)


# Values that sit on the checker's edges: bools against numbers, integral
# floats against integers, signed zeros, empty and repeated arrays, the
# measure entries that match none or both branches of the oneOf.
EDGES = [None, True, False, 0, 1, -1, 2, 2.0, 2.5, 0.0, -0.0, -0.5, 2**64, 2**64 - 1,
         "", "x", "ydel", [], [0], [1, 1], [1, 1.0], [True, 1], [False, 0], ["x", "x"],
         [[1], [True], [1]], [{"a": 1}, {"a": 1}], [1, "a"], {}, {"x": 1},
         {"atom": [-0.1, 1.0]}, {"density": [-0.2, -0.1, 1.0]},
         {"atom": [-0.1, 1.0], "density": [-0.2, -0.1, 1.0]}, [{"atom": [1]}],
         [0.1, 1.0, 5], [0.1, 1.0, 5.0], [0.1, 1.0, 0], [0.0, 1.0, 5], [0.1, 1.0],
         [0.1, 1.0, 5, 6], [0.1, 1.0, True], [2, 4, 8], [2.0, 4, 8], [1, 4, 8]]
KEYS = ["extra", "preset", "atom", "density", "features", "paths", "seed", "gamma_grid"]
json_values = st.recursive(
    st.sampled_from(EDGES).map(copy.deepcopy) | st.integers(-3, 2**64 + 1) | st.booleans()
    | st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(KEYS),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(KEYS), inner,
                                                                max_size=3),
    max_leaves=6,
)


def _nodes(tree, path=()):
    yield path
    children = tree.items() if isinstance(tree, dict) else (
        enumerate(tree) if isinstance(tree, list) else ())
    for key, value in children:
        yield from _nodes(value, path + (key,))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_configs_give_the_same_errors(data):
    cfg = copy.deepcopy(data.draw(st.sampled_from(list(SHIPPED.values()))))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_nodes(cfg))))
        node = cfg
        for key in path:
            node = node[key]
        action = data.draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "add" and isinstance(node, (dict, list)):
            value = data.draw(json_values)
            if isinstance(node, dict):
                node[data.draw(st.sampled_from(KEYS))] = value
            else:
                node.insert(data.draw(st.integers(0, len(node))), value)
        elif path:
            parent = cfg
            for key in path[:-1]:
                parent = parent[key]
            if action == "delete":
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(json_values)
    assert_same_errors(cfg)


def _subschemas(schema, where="<root>"):
    """Every schema nested in schema, with where it sits."""
    yield where, schema
    for key, rule in schema.items():
        if key == "properties":
            for name, sub in rule.items():
                yield from _subschemas(sub, f"{where}/{name}")
        elif key in ("items", "oneOf") and isinstance(rule, list):
            for index, sub in enumerate(rule):
                yield from _subschemas(sub, f"{where}/{key}/{index}")
        elif key in ("items", "not"):
            yield from _subschemas(rule, f"{where}/{key}")


def test_every_subschema_gives_the_same_errors_on_edge_values():
    for where, schema in _subschemas(CONFIG_SCHEMA):
        reference = Draft7Validator(schema)
        for value in EDGES:
            assert list(_schema_errors(schema, value)) == reference_errors(value, reference), (
                where, value)


def test_flag_rules_give_the_same_first_error_on_edge_values():
    for key, rule in _FLAG_RULES.items():
        reference = Draft7Validator(rule)
        for value in EDGES:
            errors = reference_errors(value, reference)
            expected = f"--flag: {errors[0][1]}" if errors else None
            assert raised(validate_flag, key, value, "--flag") == expected, (key, value)


def test_unsupported_keyword_is_refused():
    with pytest.raises(KeyError, match="pattern"):
        list(_schema_errors({"type": "string", "pattern": "^a"}, "b"))


_NO_JSONSCHEMA = textwrap.dedent("""
    import sys
    import delaybsde.cli
    print("jsonschema" in sys.modules)
    sys.modules["jsonschema"] = None  # any later import of it fails
    for config, out in zip(sys.argv[1::2], sys.argv[2::2]):
        print(delaybsde.cli.main(["check-constants", "--config", config, "--out", out]))
""")


def test_check_constants_runs_without_jsonschema(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**SHIPPED["constants_grid"], "gamma_grid": [0.0, 1.0, 5]}))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [str(ROOT / "configs" / "constants_grid.json"), str(tmp_path / "good"),
            str(bad), str(tmp_path / "bad")]
    run = subprocess.run([sys.executable, "-c", _NO_JSONSCHEMA, *argv], env=env,
                         capture_output=True, text=True, check=True)
    lines = run.stdout.splitlines()
    assert lines[0] == "False"
    assert lines[-2:] == ["0", "2"]
    assert run.stderr == ("config error: config invalid at gamma_grid/0: "
                          "0.0 is less than or equal to the minimum of 0\n")
    assert (tmp_path / "good" / "constants.csv").exists()
    assert not (tmp_path / "bad").exists()
