"""Spans around the public functions of each `cdsurface` layer.

The tracer wraps functions and methods from outside the package: it
changes no file in `src/`.  A wrapped name is rebound in every
`cdsurface` module that holds it, so by-name imports such as
`from .contour import unit_circle_quadrature` are traced too.  Charts
returned by `surface.build_chart` get their callables wrapped, so chart
evaluations show as `surface.chart_eval`.

Spans are kept in memory as lists `[name, start, end, parent, op, extra]`
and written out by the caller when the run ends.  A call made while a span
of the same name is open adds no span, so `unit_circle_quadrature`, which
calls `circle_quadrature`, counts as one quadrature.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from time import perf_counter

PACKAGE = "cdsurface"
SETUP_OP = -1

# (module, attribute, span name) for plain functions.
FUNCTIONS = (
    ("_backend", "double_contract", "backend.double_contract"),
    ("_backend", "scalar_double_contract", "backend.scalar_double_contract"),
    ("tiling", "simplified_kernel_2x1", "tiling.explicit_2x1"),
    ("tiling", "simplified_kernel_2x2", "tiling.explicit_2x2"),
    ("tiling", "point_probability", "tiling.point_probability"),
    ("mops", "compute_moments", "mops.compute_moments"),
    ("mops", "solve_mops", "mops.solve_mops"),
    ("mops", "cd_kernel_table", "mops.cd_kernel_table"),
    ("mops", "assemble_Y", "mops.assemble_Y"),
    ("mops", "cd_kernel_sum", "mops.cd_kernel_sum"),
    ("mops", "cd_kernel_formula", "mops.cd_kernel_formula"),
    ("mops", "pairing", "mops.pairing"),
    ("sops", "solve_scalar_ops", "sops.solve_scalar_ops"),
    ("sops", "scalar_cd_table", "sops.scalar_cd_table"),
    ("surface", "build_chart", "surface.build_chart"),
    ("contour", "circle_quadrature", "contour.quadrature"),
    ("contour", "unit_circle_quadrature", "contour.quadrature"),
    ("cli", "main", "cli.main"),
)

# (module, class, method, span name).
METHODS = (
    ("tiling", "DKEvaluator", "__init__", "tiling.evaluator_build"),
    ("tiling", "DKEvaluator", "block", "tiling.block"),
    ("tiling", "DKEvaluator", "scalar", "tiling.scalar"),
)

# Methods of every `weights.WeightFamily` subclass that defines them.
WEIGHT_METHODS = ("weight", "spectral")


def _nbytes_of_result(args, kwargs, out):
    return float(getattr(out, "nbytes", 0))


def _nbytes_of_table(args, kwargs, out):
    """Bytes of the kernel table `K` read by one double contraction."""
    table = args[2] if len(args) > 2 else kwargs.get("K")
    return float(getattr(table, "nbytes", 0))


def _max_condition(args, kwargs, out):
    conds = [float(c) for c in getattr(out, "conditions", {}).values()]
    finite = [c for c in conds if c == c and c != float("inf")]
    return max(finite, default=0.0)


def _block_size(args, kwargs, out):
    return float(getattr(out, "shape", (0,))[0])


def _general_form_name(args, kwargs):
    form = args[2] if len(args) > 2 else kwargs.get("form", "plane")
    return f"tiling.{form}"


# Extra numbers recorded on a span from its call and result.
EXTRAS = {
    "backend.double_contract": _nbytes_of_table,
    "mops.cd_kernel_table": _nbytes_of_result,
    "sops.scalar_cd_table": _nbytes_of_result,
    "mops.solve_mops": _max_condition,
    "tiling.block": _block_size,
}


class Tracer:
    """Installs span-recording wrappers into an imported `cdsurface`.

    install() and uninstall() may alternate: the worker traces every
    other op this way.  `op` is the id stamped on new spans (SETUP_OP
    outside the measured ops)."""

    def __init__(self):
        self.spans: list = []
        self.op = SETUP_OP
        self.active = False
        self.missing: list = []
        self._stack: list = []
        self._patches = None    # [(owner, attr, original, wrapper)]

    # --- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name, extra=None, post=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            stack = tracer._stack
            if not tracer.active or (
                    stack and tracer.spans[stack[-1]][0] == span_name):
                return fn(*args, **kwargs)
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1,
                    tracer.op, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, out)
            if post is not None:
                post(out)
            return out

        return wrapper

    def _wrap_chart(self, chart):
        """Wrap the callables of a chart (a frozen dataclass) in place."""
        for f in dataclasses.fields(chart):
            value = getattr(chart, f.name)
            if f.name != "family" and callable(value):
                object.__setattr__(chart, f.name,
                                   self._wrap(value, "surface.chart_eval"))

    def _rebind(self, original, wrapper):
        """Replace `original` under every name any package module binds."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE
                                      or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original, wrapper))

    def _patch_method(self, cls, meth, name):
        original = vars(cls)[meth]
        self._patches.append(
            (cls, meth, original, self._wrap(original, name,
                                             EXTRAS.get(name))))

    def _find_patches(self) -> None:
        pkg = sys.modules[PACKAGE]
        for modname, attr, name in FUNCTIONS:
            module = getattr(pkg, modname, None)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            post = self._wrap_chart if name == "surface.build_chart" else None
            self._rebind(original, self._wrap(original, name,
                                              EXTRAS.get(name), post))
        tiling = getattr(pkg, "tiling", None)
        general = getattr(tiling, "simplified_kernel_general", None)
        if general is None:
            self.missing.append("tiling.simplified_kernel_general")
        else:
            self._rebind(general, self._wrap(general, _general_form_name))
        for modname, clsname, meth, name in METHODS:
            cls = getattr(getattr(pkg, modname, None), clsname, None)
            if cls is None or meth not in vars(cls):
                self.missing.append(f"{modname}.{clsname}.{meth}")
                continue
            self._patch_method(cls, meth, name)
        weights = getattr(pkg, "weights", None)
        base = getattr(weights, "WeightFamily", None)
        for cls in list(vars(weights).values()) if base else ():
            if isinstance(cls, type) and issubclass(cls, base) \
                    and cls is not base:
                for meth in WEIGHT_METHODS:
                    if meth in vars(cls):
                        self._patch_method(cls, meth, f"weights.{meth}")

    def install(self) -> "Tracer":
        """Bind the wrappers (found on the first call) and start tracing."""
        if self._patches is None:
            self._patches = []
            self._find_patches()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.active = True
        return self

    def uninstall(self) -> None:
        """Restore the original bindings.  Chart callables stay wrapped
        but pass straight through while the tracer is inactive."""
        self.active = False
        for owner, attr, original, _ in reversed(self._patches or ()):
            setattr(owner, attr, original)

    # --- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON list per line: name, start, end, parent, op, extra."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def aggregate(spans, ops: int) -> dict:
    """Per-name totals over the measured ops (op >= 0), divided by `ops`.

    Returns {"by_name": {name: {calls, busy_s, self_s, extra_sum,
    extra_max}}, "roots_s": summed duration of spans with no parent, which
    equals the sum of every span's self time}; all per op except
    extra_max."""
    ops = max(ops, 1)
    stats: dict = {}
    child = [0.0] * len(spans)
    for name, t0, t1, parent, op, extra in spans:
        if op >= 0 and parent >= 0:
            child[parent] += t1 - t0
    roots = 0.0
    for i, (name, t0, t1, parent, op, extra) in enumerate(spans):
        if op < 0:
            continue
        s = stats.setdefault(name, {"calls": 0.0, "busy_s": 0.0,
                                    "self_s": 0.0, "extra_sum": 0.0,
                                    "extra_max": 0.0})
        s["calls"] += 1
        s["busy_s"] += t1 - t0
        s["self_s"] += t1 - t0 - child[i]
        if extra is not None:
            s["extra_sum"] += extra
            s["extra_max"] = max(s["extra_max"], extra)
        if parent < 0:
            roots += t1 - t0
    for s in stats.values():
        for key in ("calls", "busy_s", "self_s", "extra_sum"):
            s[key] /= ops
    return {"by_name": stats, "roots_s": roots / ops}


def block_entry_use(spans) -> float:
    """Share of computed block entries that callers use.

    `DKEvaluator.scalar` uses one of the r*r entries of its block; a block
    requested directly (dk_kernel) is used whole.  The block size r is the
    extra number of each `tiling.block` span."""
    used = computed = 0.0
    for name, t0, t1, parent, op, extra in spans:
        if op < 0 or name != "tiling.block" or not extra:
            continue
        computed += extra * extra
        via_scalar = parent >= 0 and spans[parent][0] == "tiling.scalar"
        used += 1.0 if via_scalar else extra * extra
    return used / computed if computed else 0.0
