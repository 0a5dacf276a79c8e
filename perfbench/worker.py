"""One workload run in its own process; started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --result PATH
        --screen
    python3 perfbench/worker.py --workload NAME --seed N --result PATH
        --screened SCREEN_PATH [--seconds S] [--trace 0|1] [--setup-only]
        [--spans PATH]

With --screen the worker runs the workload's screen (see workloads.py)
and writes its report, which says which draw of each input slot to use.
Every other run reads that report from --screened.

Set-up is the import of `cdsurface`, input generation and warm-up.  The
worker then runs ops back to back for S seconds and writes one JSON
result, which holds a sha256 digest of every op's output.  With
--trace 1 the tracer is installed right after the import, so charts
built in warm-up get wrapped callables, and then every odd-numbered op
is traced and every even one is not.  Only spans of traced ops enter
the per-layer numbers; the two interleaved halves give the tracing
overhead free of drift in machine speed.
"""

from __future__ import annotations

import argparse
import collections
import ctypes
import hashlib
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REFS = 5      # reference runs timed after set-up; the median is kept


def _blas_threads():
    """Runtime OpenBLAS thread count, read from the loaded library."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    backend = sys.modules.get("cdsurface._backend")
    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "cdsurface_backend": getattr(backend, "BACKEND", None),
        "numba_imports": numba_imports,
        "CDSURFACE_QUAD_N": os.environ.get("CDSURFACE_QUAD_N"),
    }


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--screen", action="store_true",
                   help="run the screen and write its report")
    p.add_argument("--screened", help="screen report to take inputs from")
    p.add_argument("--result", required=True)
    p.add_argument("--spans", help="write traced spans here (JSON lines)")
    args = p.parse_args(argv)
    if not args.screen and not args.screened:
        p.error("--screened is required unless --screen is given")
    return args


def _cache_counts(tiling):
    """(hits, misses) of the evaluator cache, or None if it has none."""
    info = getattr(getattr(tiling, "_dk_evaluator", None), "cache_info",
                   None)
    return (info().hits, info().misses) if info else None


def main(argv=None) -> int:
    t_start = perf_counter()
    args = _parse(argv)
    sys.path[:0] = [str(SRC), str(ROOT)]
    import numpy as np
    import cdsurface
    import cdsurface.cli  # noqa: F401  (imported so the tracer sees it)
    if not Path(cdsurface.__file__).resolve().is_relative_to(SRC):
        print(f"cdsurface imported from {cdsurface.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    t_import = perf_counter()

    from perfbench.reference import REF_S, Reference
    from perfbench.tracer import Tracer, aggregate, block_entry_use
    from perfbench.workloads import WORKLOADS
    tracer = Tracer().install() if args.trace else None

    scratch = Path(args.result).parent
    if args.screen:
        workload = WORKLOADS[args.workload](args.seed, str(scratch))
        report = workload.screen()
        _write(args.result, dict(report, screen_s=perf_counter() - t_start))
        return 0
    screen = json.loads(Path(args.screened).read_text())
    workload = WORKLOADS[args.workload](args.seed, str(scratch),
                                        screen["draws"])
    t_generated = perf_counter()
    workload.warm_up()
    t_ready = perf_counter()
    reference = Reference(np)
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup": {"import_s": t_import - t_start,
                  "generate_s": t_generated - t_import,
                  "warm_up_s": t_ready - t_generated,
                  "total_s": t_ready - t_start,
                  "reference_s": float(np.median(
                      [reference.measure() for _ in range(SETUP_REFS)]))},
        "env": environment(np),
        "screen": {"known_defects": len(screen["known_defects"]),
                   "redrawn": screen["redrawn"],
                   "errors": screen["errors"]},
    }
    if args.setup_only:
        _write(args.result, result)
        return 0

    ops = _run_ops(args, workload, tracer, reference)
    refs = np.array(ops["refs"])
    ref = (refs[:-1] + refs[1:]) / 2.0    # around each op
    raw, loop = np.array(ops["raw"]), np.array(ops["loop"])
    traced = np.array(ops["traced"], dtype=bool)
    result.update({
        "ops": len(raw),
        "elapsed_s": ops["elapsed_s"],
        "at_reference": {
            "ops_per_s": len(raw) / float(np.sum(loop * REF_S / ref)),
            **_latency_stats(np, raw * REF_S / ref)},
        "raw": {"ops_per_s": len(raw) / float(np.sum(loop)),
                **_latency_stats(np, raw)},
        "reference_ms": {"median": 1e3 * float(np.median(refs)),
                         "max": 1e3 * float(np.max(refs))},
        **{k: ops[k] for k in ("failed", "failure_reasons", "first_error")},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "samples_ms": [[round(1e3 * v, 4) for v in row] for row in
                       zip(ops["starts"], raw, ref)],
        "digests": ops["digests"],
    })
    if tracer:
        result["untraced"] = _latency_stats(np, raw[~traced])
        result["traced"] = _latency_stats(np, raw[traced])
        result["layers"] = aggregate(tracer.spans, int(traced.sum()))
        result["entry_use_ratio"] = block_entry_use(tracer.spans)
        result["cache_hit_ratio"] = _hit_ratio(*ops["cache_counts"])
        result["untraced_names"] = tracer.missing
        if args.spans:
            tracer.write_spans(args.spans)
    _write(args.result, result)
    return 0


def _run_ops(args, workload, tracer, reference) -> dict:
    """The closed loop: ops back to back for args.seconds.  With a
    tracer, every odd-numbered op is traced.

    Per op it keeps the start offset, the raw latency of the op call, the
    loop time without the reference runs, and whether it was traced
    (times in seconds); refs[i] and refs[i + 1] are the reference times
    taken right before and after op i."""
    from perfbench.tracer import SETUP_OP
    from perfbench.workloads import Outcome
    tiling = sys.modules["cdsurface.tiling"]
    log = {"starts": [], "raw": [], "loop": [], "traced": [], "digests": [],
           "failed": 0, "first_error": None}
    reasons = collections.Counter()
    if tracer:
        tracer.uninstall()
    cache_before = _cache_counts(tiling)
    refs = [reference.measure()]
    t_loop = perf_counter()
    deadline = t_loop + args.seconds
    i = 0
    while perf_counter() < deadline:
        t_seg = perf_counter()
        call_args = workload.inputs(i)
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.op = i
            tracer.install()
        t0 = perf_counter()
        error = None
        try:
            out = workload.op(*call_args)
        except Exception as exc:  # an op that raises is a failed op
            error = f"raised {type(exc).__name__}"
            log["first_error"] = log["first_error"] or traceback.format_exc()
        t1 = perf_counter()
        if traced:
            tracer.uninstall()
            tracer.op = SETUP_OP
        outcome = Outcome([error]) if error \
            else workload.check(call_args, out)
        if outcome.failures:
            log["failed"] += 1
            reasons.update(outcome.failures)
        log["digests"].append(hashlib.sha256(outcome.output).hexdigest())
        log["starts"].append(t0 - t_loop)
        log["raw"].append(t1 - t0)
        log["loop"].append(perf_counter() - t_seg)
        log["traced"].append(traced)
        refs.append(reference.measure())
        i += 1
    log["elapsed_s"] = perf_counter() - t_loop
    log["refs"] = refs
    log["failure_reasons"] = dict(reasons)
    log["cache_counts"] = (cache_before, _cache_counts(tiling))
    return log


def _latency_stats(np, seconds) -> dict:
    """Mean, p50 and p90 in ms, with the sample count and how many
    samples lie beyond p90."""
    if len(seconds) == 0:
        return {"op_samples": 0}
    ms = np.asarray(seconds) * 1e3
    p50, p90 = (float(v) for v in np.percentile(ms, [50, 90]))
    return {"op_samples": len(ms), "op_mean_ms": float(ms.mean()),
            "op_p50_ms": p50, "op_p90_ms": p90,
            "samples_beyond_p90": int(np.sum(ms > p90))}


def _hit_ratio(before, after) -> float:
    if before is None or after is None:
        return 0.0
    hits, misses = after[0] - before[0], after[1] - before[1]
    return hits / (hits + misses) if hits + misses else 0.0


def _write(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
