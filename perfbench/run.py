"""Layered benchmark of `cdsurface`: one workload, one seed, one run.

    python3 perfbench/run.py --workload {route_check,prob_cli,param_scan}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; `cdsurface` is imported from its
`src/`.  Each workload runs in a fresh worker process (perfbench/worker.py)
so that `peak_rss_mb` is that process's own `ru_maxrss`.

Before the workers, one untimed process screens the workload's inputs
(see workloads.py): inputs that show a documented defect of the program
are counted and redrawn, so that no op of the timed loop fails.  Every
worker then takes its inputs from the screen's report.

--trace 0: the end-to-end metrics.  Set-up-only workers, half started
before the measuring worker and half after it, and the measuring worker
each time their set-up and then the reference computation; `setup_s` is
the median over them all (SETUP_REPEATS) of set-up time at reference
speed, so that a burst of load on the host while a few of them run does
not move it.  The measuring worker runs ops for S seconds after its
set-up.  Op times too are reported at reference speed (see
reference.py); raw times are printed on the comment lines and kept in
the report.

--trace 1: the per-layer metrics.  Two workers share the S seconds, one
at the default BLAS thread count and one with OPENBLAS_NUM_THREADS=1, set
before numpy is imported (an ungated single-thread reference).  Each
traces every other op; the difference between its traced and untraced
halves is the tracing overhead.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  A full report, with the environment block, is
written to .perfbench_out/ in the checkout.  Exit code 0 whenever that
line is printed; 2 if the checkout has no `src/cdsurface`; 3 if a worker
fails or times out.  The line says correct: false if an op failed or the
screen saw anything but the documented defects.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"
WORKER = ROOT / "perfbench" / "worker.py"
# Set-ups timed per --trace 0 run.  param_scan's set-up is only imports
# (about 0.15 s, with the most relative noise), so it gets more of them
# for about the same wall time.
SETUP_REPEATS = {"route_check": 11, "prob_cli": 11, "param_scan": 25}
SETUP_TIMEOUT_S = 60.0
SCREEN_TIMEOUT_S = 120.0
RUN_GRACE_S = 60.0           # allowed beyond --seconds per measuring worker

sys.path.insert(0, str(ROOT))
from perfbench.metrics import (END_TO_END, WORKLOAD_NAMES,  # noqa: E402
                               per_layer)
from perfbench.reference import REF_S  # noqa: E402


class WorkerError(RuntimeError):
    pass


def _screen_path(args) -> Path:
    return OUT / f"{args.workload}-s{args.seed}-screen.json"


def _worker(args, label: str, *, seconds=None, trace=0, setup_only=False,
            screen=False, env_extra=None) -> dict:
    """Run one worker to completion and return its JSON result."""
    stem = f"{args.workload}-s{args.seed}-{label}"
    result = _screen_path(args) if screen else OUT / f"{stem}.json"
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace),
           "--result", str(result)]
    if screen:
        cmd.append("--screen")
        timeout = SCREEN_TIMEOUT_S
    elif setup_only:
        cmd.append("--setup-only")
        timeout = SETUP_TIMEOUT_S
    else:
        cmd += ["--seconds", repr(seconds)]
        timeout = SETUP_TIMEOUT_S + seconds + RUN_GRACE_S
    if not screen:
        cmd += ["--screened", str(_screen_path(args))]
    if trace:
        cmd += ["--spans", str(OUT / f"{stem}.spans.jsonl")]
    env = dict(os.environ, **(env_extra or {}))
    if result.exists():
        result.unlink()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {label} timed out after {timeout}s") \
            from exc
    if proc.returncode != 0 or not result.exists():
        raise WorkerError(f"worker {label} exited {proc.returncode}:\n"
                          f"{proc.stderr[-4000:]}")
    return json.loads(result.read_text())


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _correct(*results) -> bool:
    """No op failed, and the screen found only the known defects."""
    return all(r["failed"] == 0 and not r["screen"]["errors"]
               for r in results)


def run_untraced(args) -> tuple:
    repeats = SETUP_REPEATS[args.workload]
    before = (repeats - 1) // 2
    setups = [_worker(args, f"setup{k}", setup_only=True)
              for k in range(before)]
    main = _worker(args, "run", seconds=args.seconds)
    setups += [_worker(args, f"setup{k}", setup_only=True)
               for k in range(before, repeats - 1)]
    scaled = main["at_reference"]
    setups.append(main)
    values = {"setup_s": statistics.median(
                  r["setup"]["total_s"] * REF_S / r["setup"]["reference_s"]
                  for r in setups),
              "ops_per_s": scaled["ops_per_s"],
              "op_p50_ms": scaled["op_p50_ms"],
              "op_p90_ms": scaled["op_p90_ms"],
              "peak_rss_mb": main["peak_rss_mb"]}
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in END_TO_END}
    main["setup_raw_s"] = statistics.median(r["setup"]["total_s"]
                                            for r in setups)
    report = {"setups": [r["setup"] for r in setups], "run": main}
    return main, [main], metrics, report


def run_traced(args) -> tuple:
    half = args.seconds / 2.0
    traced = _worker(args, "traced", seconds=half, trace=1)
    single = _worker(args, "traced-threads1", seconds=half, trace=1,
                     env_extra={"OPENBLAS_NUM_THREADS": "1"})
    metrics = per_layer(traced, single)
    report = {"traced": traced, "traced_threads1": single}
    return traced, [traced, single], metrics, report


def _summary(args, main, metrics) -> list:
    raw, scaled = main["raw"], main["at_reference"]
    lines = [f"# {args.workload} seed={args.seed} trace={args.trace} "
             f"ops={main['ops']} (beyond p90: {raw['samples_beyond_p90']}) "
             f"failed={main['failed']} "
             f"fail_rate={main['failed'] / max(main['ops'], 1):.4f}",
             "# env " + json.dumps(main["env"], sort_keys=True),
             f"# raw: ops_per_s {raw['ops_per_s']:.4g} 1/s, "
             f"op_p50_ms {raw['op_p50_ms']:.4g} ms, "
             f"op_p90_ms {raw['op_p90_ms']:.4g} ms; reference "
             f"{main['reference_ms']['median']:.4g} ms (median); "
             f"at reference speed: op_p50_ms {scaled['op_p50_ms']:.4g}"]
    if "setup_raw_s" in main:
        lines.append(f"# raw: setup_s {main['setup_raw_s']:.4g} s (median)")
    for reason, count in sorted(main["failure_reasons"].items()):
        lines.append(f"# failure: {reason}: {count}")
    screen = main["screen"]
    lines.append(f"# screen: {screen['known_defects']} inputs with a known "
                 f"defect redrawn, {screen['redrawn']} models without "
                 f"chart routes redrawn")
    for error in screen["errors"]:
        lines.append(f"# incorrect run: screen: {error}")
    for name, m in metrics.items():
        lines.append(f"{name:<44} {m['value']:.6g} {m['unit']}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "cdsurface" / "__init__.py").is_file():
        print(f"no cdsurface sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        screen = _worker(args, "screen", screen=True)
        main_run, runs, metrics, report = (
            run_traced if args.trace else run_untraced)(args)
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 3

    env = dict(main_run["env"], seed=args.seed, git_commit=_git_commit())
    attempted = main_run["ops"]
    failed = main_run["failed"]
    report.update({"screen": screen, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "env": env, "metrics": metrics,
                   "fail_rate": failed / max(attempted, 1)})
    report_path = OUT / f"BENCH_{args.workload}-s{args.seed}-t{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")
    main_run["env"] = env
    print("\n".join(_summary(args, main_run, metrics)))
    print(f"# report {report_path.relative_to(ROOT)}")
    print(json.dumps({"correct": _correct(*runs), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
