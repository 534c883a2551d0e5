"""Span recorder that instruments `delaybsde` from outside its source.

The tracer rebinds the public names the program calls across module
boundaries.  `from .x import y` copies a binding into the importer, so every
`delaybsde` module attribute that is the original object gets its own
wrapper, which also tells the span which module made the call.  Drivers and
terminals are reached through the factories in `delaybsde.config`: the
wrapped factory returns a copy of the frozen preset whose callables record
spans.  Spans stay in memory until the repetition ends; `restore()` puts
every original binding back.

A span is a dict with id, name, parent id, repetition id, caller module,
start and end (perf_counter seconds), optional attributes, and probe_s: the
time spent after the call computing those attributes (hashes, sizes), which
no layer is charged for.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import inspect
import sys
import time

import numpy as np

# (home module, attribute, span name); the layer is the part before the dot.
TARGETS = (
    ("delaybsde.regression", "DesignSolver", "regression.fit"),
    ("delaybsde.regression", "expand_features", "regression.expand"),
    ("delaybsde.forward", "simulate_forward", "forward.simulate"),
    ("delaybsde.forward", "brownian_increments", "forward.increments"),
    ("delaybsde.forward", "euler_paths", "forward.euler"),
    ("delaybsde.measures", "cell_weights", "measures.cell_weights"),
    ("delaybsde.solver", "picard_solve", "solver.picard"),
    ("delaybsde.solver", "variational_solve", "solver.variational"),
    ("delaybsde.solver", "representation_z", "solver.representation"),
    ("delaybsde.solver", "fd_directional_check", "solver.fd_check"),
    ("delaybsde.regularity", "l2_regularity", "regularity.l2_regularity"),
    ("delaybsde.constants", "constants_report", "constants.report"),
    ("delaybsde.constants", "search_feasible", "constants.search"),
    ("delaybsde.cli", "write_csv", "cli.write"),
    ("delaybsde.cli", "write_manifest", "cli.write"),
    ("delaybsde.config", "load_config", "cli.config"),
    ("delaybsde.config", "build_problem", "cli.config"),
)

# Designs at least this ill-conditioned are rank-deficient in double precision
# and solved only through the ridge: node 0, where every path sits at x0, and
# nodes whose delayed convolutions are still identically zero.
DEGENERATE = 1e12

LAYERS = ("regression", "forward", "measures", "solver", "generators",
          "regularity", "constants", "cli")


def _digest(array):
    array = np.ascontiguousarray(array)
    return (array.shape, hashlib.sha1(memoryview(array).cast("B")).digest())


def _solve_attrs(call, result):
    """Sweeps, last update and computed convolution flops of one solve.

    The solver runs one dense node convolution (2 M (N+1) N flops per value
    column) on X, plus, for the derivative solve, on the frozen base pair and
    the flow; then one on each of Y and Z every sweep.
    """
    x = call["forward"].x
    m_paths, nodes, dim_x = x.shape
    base = hasattr(result, "y")
    diffs = (result.diffs_y, result.diffs_z) if base else (result.diffs_p, result.diffs_q)
    dim_y = (result.y if base else result.p).shape[2]
    per_sweep = dim_y + dim_y * dim_x
    setup = dim_x if base else 2 * dim_x + per_sweep
    columns = setup + result.sweeps * per_sweep
    return {"sweeps": result.sweeps,
            "last_update": max((d[-1] for d in diffs if d), default=0.0),
            "conv_flop": 2.0 * m_paths * nodes * (nodes - 1) * columns}


class Tracer:
    """Records nested spans for one repetition of one command."""

    def __init__(self, rep):
        self.rep = rep
        self.spans = []
        self._stack = []
        self._restore = []
        self._seen_designs = set()
        self._seen_noise = set()

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name, via=""):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "rep": self.rep, "via": via, "start": time.perf_counter()}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, via="", probe=None):
        tracer = self
        signature = inspect.signature(fn) if probe is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name, via) as span:
                result = fn(*args, **kwargs)
            if probe is not None:
                t0 = time.perf_counter()
                call = signature.bind(*args, **kwargs).arguments
                span["attrs"] = probe(call, result)
                span["probe_s"] = time.perf_counter() - t0
            return result

        return traced

    def _probe_design(self, call, result):
        # The instance's solves and fitted values are regression work too.
        for method in ("solve", "fitted"):
            setattr(result, method, self.wrap(getattr(result, method), "regression.solve"))
        key = _digest(result.design)
        repeat = key in self._seen_designs
        self._seen_designs.add(key)
        return {"bytes": result.design.nbytes, "repeat": repeat,
                "condition": result.condition}

    def _probe_noise(self, call, result):
        key = (int(call["seed"]), int(call["n_paths"]), int(call["dim"]),
               _digest(np.asarray(call["grid"], dtype=float)))
        repeat = key in self._seen_noise
        self._seen_noise.add(key)
        return {"repeat": repeat}

    @staticmethod
    def _probe_bundle(call, result):
        return {"bytes": sum(getattr(result, k).nbytes
                             for k in ("dw", "x", "grad_x", "grad_x_inv"))}

    @staticmethod
    def _probe_cells(call, result):
        return {"cells": int(result.size)}

    def _probe_for(self, name):
        return {
            "regression.fit": self._probe_design,
            "forward.increments": self._probe_noise,
            "forward.simulate": self._probe_bundle,
            "measures.cell_weights": self._probe_cells,
            "solver.picard": _solve_attrs,
            "solver.variational": _solve_attrs,
        }.get(name)

    # -- installing --------------------------------------------------------

    def _rebind(self, original, name):
        probe = self._probe_for(name)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.partition(".")[0] != "delaybsde":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, self.wrap(original, name, mod_name, probe))
                    self._restore.append((module, attr, original))

    def install(self):
        """Wrap every target in every module that binds it; return misses."""
        missing = []
        for home, attr, name in TARGETS:
            original = getattr(sys.modules.get(home), attr, None)
            if original is None:
                missing.append(f"{home}.{attr}")
                continue
            self._rebind(original, name)
        config = sys.modules["delaybsde.config"]
        for attr, wrap_preset in (("make_driver", self._traced_driver),
                                  ("make_terminal", self._traced_terminal)):
            factory = getattr(config, attr, None)
            if factory is None:
                missing.append(f"delaybsde.config.{attr}")
                continue

            def traced_factory(*args, _factory=factory, _wrap=wrap_preset, **kwargs):
                return _wrap(_factory(*args, **kwargs))

            setattr(config, attr, traced_factory)
            self._restore.append((config, attr, factory))
        return missing

    def _traced_driver(self, driver):
        return dataclasses.replace(driver, **{
            k: self.wrap(getattr(driver, k), "generators.driver")
            for k in ("value", "grad_x", "grad_y", "grad_z")})

    def _traced_terminal(self, terminal):
        return dataclasses.replace(terminal, **{
            k: self.wrap(getattr(terminal, k), "generators.terminal")
            for k in ("value", "grad")})

    def restore(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # -- summarising -------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics of this repetition (see bench/README.md)."""
        spans = self.spans
        charged = {s["id"]: s["end"] - s["start"] + s.get("probe_s", 0.0) for s in spans}
        self_s = {s["id"]: s["end"] - s["start"] for s in spans}
        for s in spans:
            if s["parent"] is not None:
                self_s[s["parent"]] -= charged[s["id"]]

        def pick(name, via=None):
            return [s for s in spans if s["name"] == name and via in (None, s["via"])]

        def total(name, via=None):
            return sum(s["end"] - s["start"] for s in pick(name, via))

        def count(name, via=None):
            return len(pick(name, via))

        def attrs(name):
            return [s["attrs"] for s in pick(name)]

        fits, noise = attrs("regression.fit"), attrs("forward.increments")
        conditions = [a["condition"] for a in fits]
        solves = attrs("solver.picard") + attrs("solver.variational")
        out = {f"{layer}.self_s": sum(self_s[s["id"]] for s in spans
                                      if s["name"].split(".")[0] == layer)
               for layer in LAYERS}
        out.update({
            "regression.fit_s": total("regression.fit"),
            "regression.expand_s": total("regression.expand"),
            "regression.solve_s": total("regression.solve"),
            "regression.fits": len(fits),
            "regression.design_mb": sum(a["bytes"] for a in fits) / 1e6,
            "regression.design_repeat_frac": _frac(a["repeat"] for a in fits),
            "regression.max_condition": max((c for c in conditions if c < DEGENERATE),
                                            default=0.0),
            "regression.degenerate_fits": sum(c >= DEGENERATE for c in conditions),
            "forward.simulate_s": total("forward.simulate"),
            "forward.increments_s": total("forward.increments"),
            "forward.euler_s": total("forward.euler"),
            "forward.calls": count("forward.simulate"),
            "forward.noise_repeat_frac": _frac(a["repeat"] for a in noise),
            "forward.bundle_mb": sum(a["bytes"] for a in attrs("forward.simulate")) / 1e6,
            "measures.cell_weights_s": total("measures.cell_weights"),
            "measures.cell_weights_calls": count("measures.cell_weights"),
            "measures.cells": sum(a["cells"] for a in attrs("measures.cell_weights")),
            "solver.picard_s": total("solver.picard"),
            "solver.variational_s": total("solver.variational"),
            "solver.representation_s": total("solver.representation"),
            "solver.sweeps": sum(a["sweeps"] for a in solves),
            "solver.last_update": max((a["last_update"] for a in solves), default=0.0),
            "solver.conv_gflop": sum(a["conv_flop"] for a in solves) / 1e9,
            "generators.driver_s": total("generators.driver"),
            "generators.driver_calls": count("generators.driver"),
            "generators.terminal_s": total("generators.terminal"),
            "regularity.l2_regularity_s": total("regularity.l2_regularity"),
            "regularity.projections": count("regression.fit", via="delaybsde.regularity"),
            "constants.report_s": total("constants.report"),
            "constants.search_s": total("constants.search"),
            "constants.reports": count("constants.report"),
            "cli.command_s": total("cli.command"),
            "cli.config_s": total("cli.config", via="delaybsde.cli"),
            "cli.write_s": total("cli.write"),
        })
        return out


def _frac(flags):
    flags = list(flags)
    return sum(flags) / len(flags) if flags else 0.0

