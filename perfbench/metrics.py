"""Metric names, units and how each is computed from the workers' results.

Imports nothing from numpy or `cdsurface`, so the launcher can use it
before any worker has set its BLAS thread count.
"""

from __future__ import annotations

WORKLOAD_NAMES = ("route_check", "prob_cli", "param_scan")

# End-to-end metrics of an untraced run: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

_CALLS = ("calls", "1/op")
_BUSY = ("busy_s", "s/op")
_SELF = ("self_s", "s/op")

# Per-layer metrics from spans: (span name, stats).  Values are per op.
SPAN_METRICS = (
    ("backend.double_contract", (_CALLS, _BUSY)),
    ("backend.scalar_double_contract", (_CALLS, _BUSY)),
    ("tiling.block", (_CALLS, _BUSY, _SELF)),
    ("tiling.explicit_2x1", (_CALLS, _BUSY, _SELF)),
    ("tiling.explicit_2x2", (_CALLS, _BUSY, _SELF)),
    ("tiling.plane", (_CALLS, _BUSY, _SELF)),
    ("tiling.sheets", (_CALLS, _BUSY, _SELF)),
    ("tiling.point_probability", (_CALLS, _BUSY, _SELF)),
    ("tiling.evaluator_build", (_CALLS, _BUSY, _SELF)),
    ("mops.compute_moments", (_CALLS, _BUSY, _SELF)),
    ("mops.solve_mops", (_CALLS, _BUSY, _SELF)),
    ("mops.cd_kernel_table", (_CALLS, _BUSY, _SELF)),
    ("mops.assemble_Y", (_CALLS, _BUSY, _SELF)),
    ("mops.cd_kernel_sum", (_CALLS, _BUSY, _SELF)),
    ("mops.cd_kernel_formula", (_CALLS, _BUSY, _SELF)),
    ("mops.pairing", (_CALLS, _BUSY, _SELF)),
    ("sops.solve_scalar_ops", (_CALLS, _BUSY, _SELF)),
    ("sops.scalar_cd_table", (_CALLS, _BUSY)),
    ("surface.build_chart", (_CALLS, _BUSY)),
    ("surface.chart_eval", (_CALLS, _BUSY)),
    ("weights.weight", (_CALLS, _BUSY)),
    ("weights.spectral", (_CALLS, _BUSY)),
    ("contour.quadrature", (_CALLS, _BUSY)),
    ("cli.main", (_CALLS, _BUSY, _SELF)),
)

# Numbers recorded on spans ("computed" from array shapes, not measured
# traffic): (metric name, unit, span name, "sum" per op or "max").
EXTRA_METRICS = (
    ("backend.double_contract.bytes_computed", "B/op",
     "backend.double_contract", "sum"),
    ("mops.cd_kernel_table.bytes_computed", "B/op",
     "mops.cd_kernel_table", "sum"),
    ("sops.scalar_cd_table.bytes_computed", "B/op",
     "sops.scalar_cd_table", "sum"),
    ("mops.solve_mops.cond_max", "1", "mops.solve_mops", "max"),
)

# Derived numbers: (metric name, unit).
DERIVED_METRICS = (
    ("tiling.block.entry_use_ratio", "ratio"),
    ("tiling.evaluator_cache.hit_ratio", "ratio"),
    ("sops.solves_per_query", "1/op"),
    ("ops.fail_rate", "ratio"),
    ("screen.known_defects", "count"),
    ("trace.untraced_op_ms", "ms"),
    ("trace.traced_op_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.layer_self_ms", "ms"),
    ("trace.unaccounted_ms", "ms"),
    ("threads1.op_mean_ms", "ms"),
    ("threads1.op_p50_ms", "ms"),
    ("threads1.op_p90_ms", "ms"),
    ("threads1.tiling.block.busy_s", "s/op"),
)


def per_layer_units() -> dict:
    """{metric name: unit} for every per-layer metric, in output order."""
    units = {}
    for span, stats in SPAN_METRICS:
        for stat, unit in stats:
            units[f"{span}.{stat}"] = unit
    for name, unit, _, _ in EXTRA_METRICS:
        units[name] = unit
    for name, unit in DERIVED_METRICS:
        units[name] = unit
    return units


def layer_values(traced: dict) -> dict:
    """Span and extra metrics of one traced worker result."""
    by_name = traced["layers"]["by_name"]
    values = {}
    for span, stats in SPAN_METRICS:
        for stat, _ in stats:
            values[f"{span}.{stat}"] = by_name.get(span, {}).get(stat, 0.0)
    for name, _, span, how in EXTRA_METRICS:
        values[name] = by_name.get(span, {}).get(f"extra_{how}", 0.0)
    return values


def per_layer(traced: dict, single: dict) -> dict:
    """Every per-layer metric from the two workers of a traced run: one at
    the default BLAS thread count and one with one BLAS thread.  Each
    worker traces every other op; `untraced` and `traced` hold the
    latency statistics of the two halves."""
    values = layer_values(traced)
    values["tiling.block.entry_use_ratio"] = traced["entry_use_ratio"]
    values["tiling.evaluator_cache.hit_ratio"] = traced["cache_hit_ratio"]
    values["sops.solves_per_query"] = \
        values["sops.solve_scalar_ops.calls"]
    values["ops.fail_rate"] = traced["failed"] / max(traced["ops"], 1)
    values["screen.known_defects"] = traced["screen"]["known_defects"]
    untraced_ms = traced["untraced"]["op_mean_ms"]
    traced_ms = traced["traced"]["op_mean_ms"]
    layer_self_ms = 1e3 * traced["layers"]["roots_s"]
    values["trace.untraced_op_ms"] = untraced_ms
    values["trace.traced_op_ms"] = traced_ms
    values["trace.overhead_ms"] = traced_ms - untraced_ms
    values["trace.layer_self_ms"] = layer_self_ms
    values["trace.unaccounted_ms"] = untraced_ms - layer_self_ms
    values["threads1.op_mean_ms"] = single["untraced"]["op_mean_ms"]
    values["threads1.op_p50_ms"] = single["untraced"]["op_p50_ms"]
    values["threads1.op_p90_ms"] = single["untraced"]["op_p90_ms"]
    values["threads1.tiling.block.busy_s"] = \
        layer_values(single)["tiling.block.busy_s"]
    units = per_layer_units()
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()}


# Per-layer metrics each workload's ops are expected to move: a zero here
# means a by-name binding was missed or the workload lost its purpose.
PREDICTED_NONZERO = {
    "route_check": (
        "backend.double_contract.calls", "backend.double_contract.busy_s",
        "backend.double_contract.bytes_computed",
        "tiling.block.calls", "tiling.block.busy_s", "tiling.block.self_s",
        "tiling.block.entry_use_ratio",
        "tiling.explicit_2x1.calls", "tiling.explicit_2x2.calls",
        "tiling.plane.calls", "tiling.sheets.calls",
        "tiling.evaluator_cache.hit_ratio",
        "sops.solve_scalar_ops.calls", "sops.solve_scalar_ops.busy_s",
        "sops.scalar_cd_table.calls", "sops.scalar_cd_table.bytes_computed",
        "sops.solves_per_query",
        "surface.chart_eval.calls", "surface.chart_eval.busy_s",
        "weights.spectral.calls", "contour.quadrature.calls",
    ),
    "prob_cli": (
        "backend.double_contract.calls", "backend.double_contract.busy_s",
        "backend.double_contract.bytes_computed",
        "tiling.block.calls", "tiling.block.busy_s", "tiling.block.self_s",
        "tiling.block.entry_use_ratio",
        "tiling.point_probability.calls", "tiling.point_probability.busy_s",
        "tiling.evaluator_cache.hit_ratio",
        "cli.main.calls", "cli.main.busy_s", "cli.main.self_s",
    ),
    "param_scan": (
        "backend.double_contract.calls",
        "tiling.block.calls", "tiling.point_probability.calls",
        "tiling.evaluator_build.calls", "tiling.evaluator_build.busy_s",
        "tiling.evaluator_build.self_s",
        "mops.compute_moments.calls", "mops.solve_mops.calls",
        "mops.solve_mops.busy_s", "mops.solve_mops.cond_max",
        "mops.cd_kernel_table.calls", "mops.cd_kernel_table.bytes_computed",
        "mops.assemble_Y.calls", "mops.cd_kernel_sum.calls",
        "mops.cd_kernel_formula.calls", "mops.pairing.calls",
        "weights.weight.calls", "weights.weight.busy_s",
        "contour.quadrature.calls", "cli.main.calls", "cli.main.busy_s",
    ),
}
