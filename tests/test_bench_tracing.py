"""The benchmark's span tracer must find every name it instruments.

bench/tracing.py rebinds public delaybsde names by module and attribute; a
renamed or moved name would silently drop out of the per-layer metrics.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("home, attr, name", _load_tracing().TARGETS)
def test_target_resolves(home, attr, name):
    assert callable(getattr(importlib.import_module(home), attr, None)), f"{home}.{attr}"


@pytest.mark.parametrize("attr", ["make_driver", "make_terminal"])
def test_factory_resolves(attr):
    assert callable(getattr(importlib.import_module("delaybsde.config"), attr, None))


def test_install_reports_nothing_missing():
    import delaybsde.cli  # noqa: F401  (binds every traced name in the CLI)

    tracer = _load_tracing().Tracer(rep=0)
    try:
        assert tracer.install() == []
    finally:
        tracer.restore()
