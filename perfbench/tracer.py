"""Per-layer tracing for the traced run, installed from outside the package.

Each wrapped function records calls and self time (its span minus the
spans of wrapped functions it called).  A wrapper replaces every module
attribute that names the original function, because several modules
import functions by name (weylops and cli import normalize, signature and
sample_system that way).  numpy.linalg entry points are only counted.
Untraced runs never import this module.
"""

from __future__ import annotations

import sys
import time
from functools import wraps

# module -> wrapped functions; a dotted name is a method on a class
LAYERS = {
    "weylops": ("translate", "dp_orbit", "light_translation_basis",
                "central_reflection", "lift", "relabel_first_two",
                "scalar_shift", "project"),
    "fuchsian": ("sample_system", "random_regular_lam",
                 "FuchsianSystem.verify", "normalize", "signature",
                 "predicted_specs", "char_poly_error"),
    "dynkin": ("enumerate_roots", "root_pairing", "reflect_param"),
    "ratlin": ("poly_from_roots",),
    "quiver": ("project_params", "permute_params"),
    "sakai": ("wall_check", "config_translation", "kronheimer_step"),
    "serialize": ("loads", "dumps", "system_in", "system_out"),
}
CLI_COMMANDS = ("roots", "regular", "sample", "apply", "orbit", "sakai")
LINALG = ("lstsq", "svd", "eig", "inv")


def span_names():
    names = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
    return names + [f"cli.main.{c}" for c in CLI_COMMANDS]


class Tracer:
    """Span stack with per-name call counts and self time."""

    def __init__(self):
        self.calls = dict.fromkeys(span_names(), 0)
        self.self_s = dict.fromkeys(span_names(), 0.0)
        self.linalg = dict.fromkeys(LINALG, 0)
        self.svd_in_translate = 0
        self._stack = []          # [name, start, child seconds]
        self._translate_depth = 0
        self._undo = []

    # -- spans --------------------------------------------------------------

    def enter(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def leave(self):
        name, start, child = self._stack.pop()
        span = time.perf_counter() - start
        self.calls[name] += 1
        self.self_s[name] += span - child
        if self._stack:
            self._stack[-1][2] += span

    def span(self, name, fn):
        is_translate = name == "weylops.translate"

        @wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            if is_translate:
                self._translate_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                if is_translate:
                    self._translate_depth -= 1
                self.leave()
        return wrapper

    def counter(self, name, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            self.linalg[name] += 1
            if name == "svd" and self._translate_depth:
                self.svd_in_translate += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation -------------------------------------------------------

    def _patch_everywhere(self, orig, repl):
        """Replace every module attribute bound to orig, in the package and
        in numpy.linalg."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "starweyl"
                                   or mod_name.startswith("starweyl.")
                                   or mod_name == "numpy.linalg"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, repl)
                    self._undo.append((mod, attr, orig))

    def install(self):
        import importlib

        import numpy.linalg
        for mod_name, fns in LAYERS.items():
            mod = importlib.import_module(f"starweyl.{mod_name}")
            for fn in fns:
                name = f"{mod_name}.{fn}"
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(mod, cls_name)
                    orig = vars(cls)[meth]
                    setattr(cls, meth, self.span(name, orig))
                    self._undo.append((cls, meth, orig))
                else:
                    orig = getattr(mod, fn)
                    self._patch_everywhere(orig, self.span(name, orig))
        for fn in LINALG:
            orig = getattr(numpy.linalg, fn)
            self._patch_everywhere(orig, self.counter(fn, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- report -------------------------------------------------------------

    def metrics(self, ops, lstsq_timed):
        """Traced values by metric name.  Spans and counts cover set-up and
        the timed phase; gn_iters_per_op counts lstsq calls of the timed
        phase only, per operation."""
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_ms"] = self.self_s[name] * 1e3
        for fn in LINALG:
            out[f"linalg.{fn}.calls"] = self.linalg[fn]
        out["linalg.svd_in_translate.calls"] = self.svd_in_translate
        steps = self.calls["weylops.translate"]
        out["weylops.moves_per_step"] = (self.svd_in_translate / 3 / steps
                                         if steps else 0.0)
        out["fuchsian.gn_iters_per_op"] = lstsq_timed / ops if ops else 0.0
        return out


def metric_units():
    """Unit of every per-layer metric, in report order."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    for fn in LINALG:
        units[f"linalg.{fn}.calls"] = "count"
    units["linalg.svd_in_translate.calls"] = "count"
    units["weylops.moves_per_step"] = "moves"
    units["fuchsian.gn_iters_per_op"] = "iters"
    units["import.numpy_ms"] = "ms"
    units["import.starweyl_ms"] = "ms"
    units["trace.overhead_pct"] = "%"
    units["bench.kernel_ms"] = "ms"
    return units
