"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py -q

The run tests start workers as separate processes, as the launcher does,
and run a few seconds of ops of a small seed; the workload tests run in
process.  The whole file takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.metrics import (END_TO_END, PREDICTED_NONZERO,  # noqa: E402
                               WORKLOAD_NAMES, per_layer_units)

SEED = 7
SINGULAR_SEED = 5   # its (2, 4, 6) model has no chart routes
SECONDS = 3.0
MIN_OPS = 4     # fewest ops compared; prob_cli runs about 15 in SECONDS


def _worker(tmp_path, workload, trace):
    worker = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
              "--workload", workload, "--seed", str(SEED)]
    screen = tmp_path / f"{workload}-screen.json"
    if not screen.exists():
        subprocess.run(worker + ["--screen", "--result", str(screen)],
                       cwd=ROOT, check=True, timeout=300)
    result = tmp_path / f"{workload}-t{trace}.json"
    cmd = worker + ["--trace", str(trace), "--seconds", str(SECONDS),
                    "--screened", str(screen), "--result", str(result)]
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=300)
    return json.loads(result.read_text())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_outputs_bit_identical(tmp_path, workload):
    untraced = _worker(tmp_path, workload, 0)
    traced = _worker(tmp_path, workload, 1)
    assert untraced["failed"] == traced["failed"] == 0
    common = min(untraced["ops"], traced["ops"])
    assert common >= MIN_OPS
    assert traced["digests"][:common] == untraced["digests"][:common]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_predicted_layer_metrics_nonzero(tmp_path, workload):
    from perfbench.metrics import per_layer
    result = _worker(tmp_path, workload, 1)
    assert result["untraced_names"] == []
    metrics = per_layer(result, result)
    zero = [name for name in PREDICTED_NONZERO[workload]
            if metrics[name]["value"] == 0]
    assert zero == []


def test_emitted_names_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == dict(END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == per_layer_units()
    for names in PREDICTED_NONZERO.values():
        assert set(names) <= set(per_layer_units())

    for trace, table in ((0, "end_to_end"), (1, "per_layer")):
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", "prob_cli", "--seed", str(SEED),
               "--seconds", "1", "--trace", str(trace)]
        out = subprocess.run(cmd, cwd=ROOT, check=True, timeout=300,
                             capture_output=True, text=True).stdout
        last = json.loads(out.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["attempted"] >= 1
        emitted = {k: v["unit"] for k, v in last["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in spec[table]}


def test_route_check_screen_redraws(tmp_path):
    # Seed SINGULAR_SEED draws a q=2 model whose degree-4 scalar moment
    # system is singular, so its chart routes raise SingularSystemError;
    # seed 3 draws a (2, 2, 6) model with the known chart-route defect.
    from perfbench.workloads import RouteCheck
    singular = RouteCheck(SINGULAR_SEED, str(tmp_path)).screen()
    assert singular["redrawn"] >= 1 and singular["errors"] == []
    workload = RouteCheck(3, str(tmp_path))
    report = workload.screen()
    assert report["errors"] == [] and report["draws"] == [0, 1, 0, 0, 0, 0]
    assert [d["model"]["L"] for d in report["known_defects"]] == [6]
    for i in range(2 * len(workload.models) * 9):
        args = workload.inputs(i)
        assert workload.check(args, workload.op(*args)).failures == []


def test_chart_defect_needs_column_sum_law(monkeypatch):
    from cdsurface import tiling
    from perfbench.workloads import chart_defect
    model = tiling.HexagonModel(r=2, q=2, L=8, M=4, N=4,
                                a=((0.811, 1.445), (0.947, 1.613)),
                                b=((1.583, 0.828), (1.745, 1.486)))
    failed = {"explicit differs from dk_kernel": 1}
    assert chart_defect(model, failed) is not None
    assert chart_defect(model, {"sheets differs from dk_kernel": 1}) is None
    dk_kernel = tiling.dk_kernel
    monkeypatch.setattr(tiling, "dk_kernel",
                        lambda *args: 2 * dk_kernel(*args))
    assert chart_defect(model, failed) is None


def test_worker_module_list_matches_launcher():
    from perfbench.workloads import WORKLOADS
    assert tuple(WORKLOADS) == WORKLOAD_NAMES
