import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from cdsurface.cli import main

RUN = [sys.executable, "-m", "cdsurface.cli"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(RUN + list(args), capture_output=True,
                          text=True, env=env)


# --- kernel -------------------------------------------------------------

def test_kernel_scalar_monomial_closed_form(tmp_path):
    out = tmp_path / "k.csv"
    rc = main(["kernel", "--family", "scalar-monomial", "--N", "2",
               "--at", "2,0", "3,0", "--output", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 1
    val = complex(float(rows[0]["K00_re"]), float(rows[0]["K00_im"]))
    expect = (9 - 4) / (2j * np.pi * (3 - 2))
    assert abs(val - expect) < 1e-12


def test_kernel_grid_row_count(tmp_path):
    out = tmp_path / "g.csv"
    rc = main(["kernel", "--family", "cyclic", "--r", "2", "--L", "2",
               "--R", "2", "--N", "2", "--grid", "5",
               "--output", str(out)])
    assert rc == 0
    rows = list(csv.reader(open(out)))
    assert len(rows) == 26  # header + 25 grid points
    # 17 significant digits, lowercase exponent
    assert all("e" in cell and "E" not in cell
               for cell in rows[1][:4])


def test_kernel_malformed_json_exits_2_without_output(tmp_path):
    out = tmp_path / "never.csv"
    res = run_cli("kernel", "--family-json", "{not json", "--N", "2",
                  "--grid", "2", "--output", str(out))
    assert res.returncode == 2
    assert not out.exists()


def test_kernel_singular_system_exits_3():
    res = run_cli("kernel", "--family", "cyclic", "--r", "2", "--L", "1",
                  "--R", "1", "--N", "2", "--grid", "2")
    assert res.returncode == 3
    assert "numerical failure" in res.stderr


def test_kernel_deterministic_output(tmp_path):
    args = ["kernel", "--family", "cyclic", "--r", "2", "--L", "2",
            "--R", "2", "--N", "2", "--grid", "3"]
    a, b = run_cli(*args), run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_kernel_quad_env_override():
    args = ["kernel", "--family", "cyclic", "--r", "2", "--L", "2",
            "--R", "2", "--N", "2", "--at", "1.5,0", "0.5,0",
            "--format", "json"]
    coarse = run_cli(*args, env_extra={"CDSURFACE_QUAD_N": "64"})
    fine = run_cli(*args, env_extra={"CDSURFACE_QUAD_N": "256"})
    ka = json.loads(coarse.stdout)[0]["K"]
    kb = json.loads(fine.stdout)[0]["K"]
    assert np.allclose(ka, kb, atol=1e-8)


def test_kernel_tiling_kind():
    res = run_cli("kernel", "--kind", "tiling", "--hexagon", "2,1,1",
                  "--at", "1,0", "1,0", "--format", "json")
    assert res.returncode == 0
    entry = json.loads(res.stdout)[0]
    assert abs(entry["K"][0] - 0.5) < 1e-8


# --- verify -------------------------------------------------------------

def test_verify_contour_suite():
    res = run_cli("verify", "--suite", "contour")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["pass"] and all(c["pass"] for c in report["checks"])


def test_verify_surface_cyclic():
    res = run_cli("verify", "--suite", "surface", "--family", "cyclic",
                  "--r", "2", "--L", "2", "--R", "2", "--N", "2")
    assert res.returncode == 0
    assert json.loads(res.stdout)["pass"]


def test_verify_surface_root_k_not_cd():
    res = run_cli("verify", "--suite", "surface", "--family", "root-k",
                  "--k", "3", "--expect-not-cd")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    names = {c["check"]: c["pass"] for c in report["checks"]}
    assert names["v-member-reproducing"]
    assert names["non-cd-witness"]


def test_verify_tiling_oracle():
    res = run_cli("verify", "--suite", "tiling-oracle",
                  "--hexagon", "2,1,1")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert all(c["pass"] for c in report["checks"])
    singles = [c for c in report["checks"]
               if c["check"] == "determinant-vs-enumeration-singles"]
    assert singles and singles[0]["residual"] < 1e-8


def test_verify_unknown_suite_exits_2():
    res = run_cli("verify", "--suite", "nope")
    assert res.returncode == 2


# --- prob ---------------------------------------------------------------

def test_prob_uniform_box():
    res = run_cli("prob", "--hexagon", "2,1,1", "--points", "1,0")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert abs(report["probability_determinant"] - 0.5) < 1e-8
    assert abs(report["probability_enumeration"] - 0.5) < 1e-12
    for total in report["column_sums"].values():
        assert abs(total - 1) < 1e-7


def test_prob_periodic_r2_q2_hexagon():
    # r = 2: heights Y enter the kernel as blocks Y // r, entries Y % r
    res = run_cli("prob", "--hexagon", "4,2,2", "--r", "2", "--q", "2",
                  "--a", "[[1.0, 2.0], [1.0, 1.0]]",
                  "--b", "[[1.0, 2.0], [1.5, 0.7]]",
                  "--points", "1,1", "3,2")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert list(report["column_sums"]) == ["0", "1", "2", "3", "4"]
    for total in report["column_sums"].values():
        assert abs(total - 2) < 1e-7
    p_det = report["probability_determinant"]
    assert 1e-3 < p_det < 1 - 1e-3
    assert abs(p_det - report["probability_enumeration"]) < 1e-8


def test_prob_empty_points():
    res = run_cli("prob", "--hexagon", "2,1,1")
    assert res.returncode == 0
    assert json.loads(res.stdout)["probability_determinant"] == 1.0


def test_prob_guard_notice():
    res = run_cli("prob", "--hexagon", "40,10,20", "--points", "5,5",
                  "--n", "64")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["probability_enumeration"] is None
    assert "enumeration skipped" in report.get("notice", "")
