import csv
import json
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from cdsurface import (HexagonModel, MatrixPolynomial, Periodic2x1,
                       Periodic2x2, WeightFamily, point_probability)
from cdsurface import mops
from cdsurface.cli import EXIT_CONFIG, main

RUN = [sys.executable, "-m", "cdsurface.cli"]


def run_cli(*args):
    return subprocess.run(RUN + list(args), capture_output=True, text=True)


def family(tag, **params):
    """The --family-json arguments of family `tag` with `params`."""
    return ["--family-json", json.dumps({"family": tag, "params": params})]


CYCLIC = family("cyclic", r=2, L=2, R=2)
ROOT_K3 = family("root-k", k=3, L=2, M=2)


# --- kernel -------------------------------------------------------------

def test_kernel_scalar_monomial_closed_form(tmp_path):
    out = tmp_path / "k.csv"
    rc = main(["kernel", *family("scalar-monomial", r=1, N=2), "--N", "2",
               "--at", "2,0", "3,0", "--output", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 1
    val = complex(float(rows[0]["K00_re"]), float(rows[0]["K00_im"]))
    expect = (9 - 4) / (2j * np.pi * (3 - 2))
    assert abs(val - expect) < 1e-12


def test_kernel_grid_row_count(tmp_path):
    out = tmp_path / "g.csv"
    rc = main(["kernel", *CYCLIC, "--N", "2", "--grid", "5",
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
    res = run_cli("kernel", *family("cyclic", r=2, L=1, R=1), "--N", "2",
                  "--grid", "2")
    assert res.returncode == 3
    assert "numerical failure" in res.stderr


def test_kernel_deterministic_output(tmp_path):
    args = ["kernel", *CYCLIC, "--N", "2", "--grid", "3"]
    a, b = run_cli(*args), run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_kernel_n_64_matches_the_default():
    args = ["kernel", *CYCLIC, "--N", "2", "--at", "1.5,0", "0.5,0",
            "--format", "json"]
    coarse = run_cli(*args, "--n", "64")
    fine = run_cli(*args)
    ka = json.loads(coarse.stdout)[0]["K"]
    kb = json.loads(fine.stdout)[0]["K"]
    assert np.allclose(ka, kb, atol=1e-8)


def test_kernel_tiling_kind():
    res = run_cli("kernel", "--kind", "tiling", "--hexagon", "2,1,1",
                  "--at", "1,0", "1,0", "--format", "json")
    assert res.returncode == 0
    entry = json.loads(res.stdout)[0]
    assert abs(entry["K"][0] - 0.5) < 1e-8


def test_kernel_tiling_column_outside_hexagon_exits_2(tmp_path):
    for at in (["5,0", "1,0"], ["1,0", "-1,0"]):
        rc = main(["kernel", "--kind", "tiling", "--hexagon", "4,2,2",
                   "--r", "2", "--n", "64", "--at", *at,
                   "--output", str(tmp_path / "k.csv")])
        assert rc == 2


# --- verify -------------------------------------------------------------

def test_verify_contour_suite():
    res = run_cli("verify", "--suite", "contour")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["pass"] and all(c["pass"] for c in report["checks"])


def test_verify_surface_cyclic():
    res = run_cli("verify", "--suite", "surface", *CYCLIC, "--N", "2")
    assert res.returncode == 0
    assert json.loads(res.stdout)["pass"]


def test_verify_surface_root_k_not_cd():
    res = run_cli("verify", "--suite", "surface", *ROOT_K3,
                  "--expect-not-cd")
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
    assert [c["check"] for c in report["checks"]] == [
        "exact-vs-macmahon", "lgv-vs-exact", "determinant-vs-exact-singles",
        "determinant-vs-exact-pairs", "column-sums"]
    assert report["checks"][0]["residual"] == 0.0    # det G == 2 tilings
    singles = [c for c in report["checks"]
               if c["check"] == "determinant-vs-exact-singles"]
    assert singles and singles[0]["residual"] < 1e-8


def test_verify_tiling_oracle_reads_n(capsys):
    # the determinant routes run at the given node count: one node is
    # below the hexagon's least node count, 2, and is refused; eight are
    # within every tolerance
    argv = ["verify", "--suite", "tiling-oracle", "--hexagon", "4,2,2",
            "--r", "2", "--q", "1", "--a", "[[1,0.7]]", "--b", "[[1.2,0.5]]"]
    assert main(argv + ["--n", "1"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "n >= 2" in captured.err and captured.out == ""
    assert main(argv + ["--n", "8"]) == 0


def test_prob_refuses_a_node_count_below_the_least(capsys):
    # the uniform (4, 2, 2) hexagon needs n >= 4: at n = 3 the trapezoid
    # rule gave P = 0.5454... for the exact 3/5
    argv = ["prob", "--hexagon", "4,2,2", "--points", "1,1"]
    assert main(argv + ["--n", "3"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "n >= 4" in captured.err and captured.out == ""
    assert main(argv + ["--n", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["probability_determinant"] == pytest.approx(0.6, abs=1e-14)


MOPS_CHECKS = ["reproducing", "biorthogonality", "sum-vs-formula",
               "formula-vs-Y", "det-Y-unimodular"]


@pytest.mark.parametrize("family_args, skipped", [
    (["--family-json", json.dumps(Periodic2x1(
        a0=1.0, a1=0.7, b0=1.2, b1=0.5, L=4, M=2, N=2).to_json()),
      "--N", "2"], []),
    (["--family-json", json.dumps(Periodic2x2(
        a=((1.0, 2.0), (1.0, 1.0)), b=((1.0, 2.0), (1.0, 1.0)),
        L=4, M=2, N=2).to_json()), "--N", "2"], []),
    (family("root-k", k=1, L=2, M=2), []),
    (ROOT_K3, ["biorthogonality", "sum-vs-formula"])],
    ids=["periodic-2x1", "periodic-2x2", "root-k1", "root-k3"])
def test_verify_mops_suite_one_weight_evaluation(family_args, skipped,
                                                 monkeypatch, tmp_path):
    # every check of the suite reads the weight evaluated once at the
    # nodes, also when a missing lower-degree MOP (root-k, k = 3) skips
    # the checks that read every degree
    calls = []
    weight = WeightFamily.weight

    def counted(self, z):
        calls.append(np.shape(z))
        return weight(self, z)

    monkeypatch.setattr(WeightFamily, "weight", counted)
    out = tmp_path / "mops.json"
    code = main(["verify", "--suite", "mops", *family_args,
                 "--n", "256", "--output", str(out)])
    assert calls == [(256,)]
    report = json.loads(out.read_text())
    assert code == 0 and report["pass"]
    assert report.get("skipped", []) == skipped
    assert {c["check"]: c["pass"] for c in report["checks"]} == dict.fromkeys(
        [c for c in MOPS_CHECKS if c not in skipped], True)


@pytest.mark.parametrize("family_args, mops_read", [
    (["--family-json", json.dumps(Periodic2x1(
        a0=1.0, a1=0.7, b0=1.2, b1=0.5, L=4, M=2, N=2).to_json())], 4 + 3),
    (["--family-json", json.dumps(Periodic2x2(
        a=((1.0, 2.0), (1.0, 1.0)), b=((1.0, 2.0), (1.0, 1.0)),
        L=4, M=2, N=2).to_json())], 4 + 3),
    (ROOT_K3, 2 + 2)],
    ids=["periodic-2x1", "periodic-2x2", "root-k3"])
def test_verify_mops_suite_evaluates_each_mop_once_at_nodes(family_args,
                                                            mops_read,
                                                            monkeypatch,
                                                            tmp_path):
    # every polynomial the suite reads at the 256 nodes is evaluated there
    # once, and the Riemann-Hilbert assemblies evaluate none there
    at_nodes = []
    call = MatrixPolynomial.__call__

    def counted(self, z):
        if np.shape(z) == (256,):
            at_nodes.append(id(self))
        return call(self, z)

    in_Y = []
    assemble_Y = mops.assemble_Y

    def assemble_counted(*args, **kwargs):
        before = len(at_nodes)
        Y = assemble_Y(*args, **kwargs)
        in_Y.append(len(at_nodes) - before)
        return Y

    monkeypatch.setattr(MatrixPolynomial, "__call__", counted)
    monkeypatch.setattr(mops, "assemble_Y", assemble_counted)
    code = main(["verify", "--suite", "mops", *family_args,
                 "--N", "2", "--n", "256",
                 "--output", str(tmp_path / "mops.json")])
    assert code == 0
    # five reproducing polynomials, then P^L_0..2 and Q^L_1, Q^R_0..1 and
    # P^R_2; with P_1 and Q_0 missing, P^L_2 and Q^L_1, Q^R_1 and P^R_2
    assert len(at_nodes) == len(set(at_nodes)) == 5 + mops_read
    assert in_Y == [0, 0]    # formula-vs-Y, then det-Y


@pytest.mark.parametrize("family_args", [
    ROOT_K3, family("scalar-monomial", r=1, N=2)],
    ids=["root-k", "scalar-monomial"])
def test_verify_mops_suite_with_missing_lower_degree(family_args, tmp_path):
    # P_1 and Q_0 do not exist, the degree-2 kernel does: the report names
    # them and skips the checks that read them
    out = tmp_path / "mops.json"
    code = main(["verify", "--suite", "mops", *family_args,
                 "--output", str(out)])
    report = json.loads(out.read_text())
    assert code == 0 and report["pass"]
    assert report["missing"] == ["P_1", "Q_0"]
    assert report["skipped"] == ["biorthogonality", "sum-vs-formula"]
    assert [c["check"] for c in report["checks"]] == [
        "reproducing", "formula-vs-Y", "det-Y-unimodular"]


def test_verify_unknown_suite_exits_2():
    res = run_cli("verify", "--suite", "nope")
    assert res.returncode == 2


@pytest.mark.parametrize("family_args", [CYCLIC, ROOT_K3],
                         ids=["cyclic", "root-k"])
def test_verify_spectral_names_a_json_family_by_its_tag(family_args,
                                                        capsys):
    assert main(["verify", "--suite", "spectral", *family_args]) == 0
    report = json.loads(capsys.readouterr().out)
    tag = json.loads(family_args[1])["family"]
    assert [c["check"] for c in report["checks"]] == [f"spectral-{tag}"]


# --- prob ---------------------------------------------------------------

def test_prob_uniform_box():
    res = run_cli("prob", "--hexagon", "2,1,1", "--points", "1,0")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert abs(report["probability_determinant"] - 0.5) < 1e-8
    assert point_probability(HexagonModel.uniform(2, 1, 1), [(1, 0)],
                             "exact") == Fraction(1, 2)
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
    m = HexagonModel(r=2, q=2, L=4, M=2, N=2, a=((1.0, 2.0), (1.0, 1.0)),
                     b=((1.0, 2.0), (1.5, 0.7)))
    assert abs(p_det - point_probability(m, [(1, 1), (3, 2)], "exact")) \
        < 1e-8


def test_prob_point_outside_column_reports_zero(tmp_path):
    out = tmp_path / "p.json"
    assert main(["prob", "--hexagon", "4,2,2", "--r", "2", "--points", "1,9",
                 "--n", "64", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["probability_determinant"] == 0.0
    assert point_probability(HexagonModel.uniform(4, 2, 2, r=2), [(1, 9)],
                             "exact") == 0
    assert '"probability_determinant": 0.0,' in out.read_text()
    for total in report["column_sums"].values():
        assert abs(total - 2) < 1e-7


def test_prob_repeated_call_reuses_column_densities(tmp_path, monkeypatch):
    # the second call finds every column's density on the cached
    # evaluator and every moment of its k points kept on the route: it
    # forms only the k^2 cells of its point matrix and projects nothing.
    # The first projects each cold column once per side, and the point
    # matrix, which runs first, one moment per side of each point
    from cdsurface import mops, tiling
    calls = Counter()

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(owner, name, counted)
    count(tiling, "_query_block")
    count(tiling, "_grid_block")
    count(mops, "moments")
    tiling._dk_evaluator.cache_clear()
    argv = ["prob", "--hexagon", "4,2,2", "--r", "2", "--q", "2",
            "--a", "[[1.0, 2.0], [1.0, 1.0]]",
            "--b", "[[1.0, 2.0], [1.5, 0.7]]", "--n", "128",
            "--points", "1,1", "3,2"]
    runs = []
    for name in ("first", "second"):
        out = tmp_path / f"{name}.json"
        calls.clear()
        assert main(argv + ["--output", str(out)]) == 0
        runs.append((out.read_bytes(), dict(calls)))
    (first, cold), (second, warm) = runs
    assert first == second
    assert cold["moments"] == 2 * 2 + 2 * 5 and "_grid_block" not in cold
    assert warm == {"_query_block": 2 * 2}


def test_prob_repeated_call_reuses_model_and_evaluator(tmp_path,
                                                       monkeypatch):
    # identical flags give one model object, so the evaluator cache finds
    # its entry by identity; refused flags raise on every call
    from cdsurface import tiling
    seen = []
    evaluator = tiling.dk_evaluator

    def recorded(model, n):
        seen.append((model, evaluator(model, n)))
        return seen[-1][1]

    monkeypatch.setattr(tiling, "dk_evaluator", recorded)
    argv = ["prob", "--hexagon", "4,2,2", "--r", "2", "--q", "2",
            "--a", "[[1.0, 2.0], [1.0, 1.0]]",
            "--b", "[[1.0, 2.0], [1.5, 0.7]]", "--n", "64",
            "--output", str(tmp_path / "p.json")]
    for points in (["1,1", "3,2"], ["2,1"], ["1,1", "3,2"]):
        assert main(argv + ["--points", *points]) == 0
    assert len(seen) == 6
    assert all(m is seen[0][0] and ev is seen[0][1] for m, ev in seen)
    bad = argv[:-2] + ["--a", "[[1.0, 2.0], [1.0, 0.0]]", "--points", "1,1"]
    for _ in range(3):
        assert main(bad) == EXIT_CONFIG
    assert len(seen) == 6


def test_prob_repeated_call_reuses_chi_integrals(tmp_path, monkeypatch):
    # the pair with x_i > x_j takes one chi integral on the first call;
    # the second call finds it on the cached evaluator's route
    from cdsurface import tiling
    chis = []
    chi_integral = tiling._chi_integral

    def counted(*args):
        chis.append(args)
        return chi_integral(*args)

    monkeypatch.setattr(tiling, "_chi_integral", counted)
    tiling._dk_evaluator.cache_clear()
    argv = ["prob", "--hexagon", "4,2,2", "--r", "2", "--q", "2",
            "--a", "[[1.0, 2.0], [1.0, 1.0]]",
            "--b", "[[1.0, 2.0], [1.5, 0.7]]", "--n", "128",
            "--points", "3,2", "1,1"]
    runs = []
    for name in ("first", "second"):
        out = tmp_path / f"{name}.json"
        chis.clear()
        assert main(argv + ["--output", str(out)]) == 0
        runs.append((out.read_bytes(), len(chis)))
    (first, cold), (second, warm) = runs
    assert first == second
    assert (cold, warm) == (1, 0)


def test_prob_empty_points():
    res = run_cli("prob", "--hexagon", "2,1,1")
    assert res.returncode == 0
    assert json.loads(res.stdout)["probability_determinant"] == 1.0


def test_prob_reports_the_determinant_route_only():
    # no reference probability rides along, at any size
    res = run_cli("prob", "--hexagon", "40,10,20", "--points", "5,5",
                  "--n", "64")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert list(report) == ["hexagon", "points", "probability_determinant",
                            "column_sums"]


# --- option values -----------------------------------------------------

HEXAGON = ["--hexagon", "4,2,2"]
PERIODIC_2X1 = dict(a1=1, b0=1, b1=1, L=2, M=2, N=2)    # and a0
PERIODIC_2X2 = dict(b=[[1, 1], [1, 1]], L=2, M=2, N=2)  # and a


@pytest.mark.parametrize("argv", [
    ["prob", *HEXAGON, "--r", "0", "--points", "0,0"],
    ["prob", *HEXAGON, "--q", "0", "--points", "0,0"],
    ["prob", *HEXAGON, "--n", "0", "--points", "0,0"],
    ["prob", *HEXAGON, "--n", "-1"],
    ["kernel", "--kind", "tiling", *HEXAGON, "--n", "0", "--at", "1,0",
     "1,0"],
    ["kernel", *CYCLIC, "--N", "0", "--grid", "2"],
    ["kernel", *CYCLIC, "--N", "-2", "--grid", "2"],
    ["kernel", *CYCLIC, "--N", "2", "--n", "0", "--grid", "2"],
    ["verify", "--suite", "mops", *CYCLIC, "--N", "0"],
    ["verify", "--suite", "mops", *CYCLIC, "--n", "0"],
    ["verify", "--suite", "surface", *CYCLIC, "--N", "0"],
    ["verify", "--suite", "surface", *CYCLIC, "--n", "-4"],
    ["verify", "--suite", "spectral", *family("root-k", k=3, L=0, M=2)],
    ["verify", "--suite", "spectral", *family("root-k", k=3, L=2, M=0)],
    ["verify", "--suite", "spectral", *family("scalar-monomial", r=0, N=2)],
    ["verify", "--suite", "spectral", *family("scalar-monomial", r=1, N=0)],
    ["kernel", *CYCLIC, "--N", "2", "--at", "nan", "1", "--format", "json"],
    ["kernel", *CYCLIC, "--N", "2", "--at", "1", "0,inf"],
    ["prob", *HEXAGON, "--a", "[[NaN]]", "--b", "[[1]]", "--points", "0,0"],
    ["prob", *HEXAGON, "--a", "[[1]]", "--b", "[[Infinity]]"],
    ["verify", "--suite", "spectral",
     *family("periodic-2x1", a0=float("nan"), **PERIODIC_2X1)],
    ["kernel", *family("periodic-2x1", a0=float("inf"), **PERIODIC_2X1),
     "--N", "2", "--grid", "2"],
    ["verify", "--suite", "mops",
     *family("periodic-2x2", a=[[float("nan"), 1], [1, 1]], **PERIODIC_2X2)],
    ["verify", "--suite", "spectral", *family("cyclic", r=2, L=2, R=2, x=1)],
    ["verify", "--suite", "mops", *family("cyclic", r=2, L=2.5, R=2)],
    ["verify", "--suite", "mops", *family("cyclic", r=2, L=float("nan"), R=2)],
    ["verify", "--suite", "mops", *family("cyclic", r=2, L=2, R=float("inf"))],
    ["verify", "--suite", "spectral", *family("cyclic", r=2, L=True, R=2)],
    ["verify", "--suite", "spectral", *family("cyclic", r=2, R=2)],
    ["verify", "--suite", "spectral",
     *family("periodic-2x2", a=[[1, 1, 1], [1, 1]], **PERIODIC_2X2)],
    ["verify", "--suite", "spectral",
     *family("periodic-2x2", a=[1, 1], **PERIODIC_2X2)],
    ["prob", *HEXAGON, "--a", "[[1,0]]", "--b", "[[1]]", "--points", "0,0"],
    ["prob", "--hexagon", "2,1,1", "--a", "", "--b", "", "--points", "1,0"],
    ["prob", "--hexagon", "2,1,1", "--a", "", "--points", "1,0"],
], ids=" ".join)
def test_zero_or_negative_option_exits_2(argv, capsys):
    # a value given on the command line is used as given, never replaced
    # by the default, so a zero or negative one is rejected; so is NaN or
    # infinity, before any numerical work, and so are family JSON params
    # that are not the family's fields or whose int ones are not integers,
    # and a weight table of the wrong shape
    for _ in range(2):     # a refused value is refused again, not kept
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration error" in captured.err


@pytest.mark.parametrize("argv", [
    ["prob", "--hexagon", "2,1,1", "--points", "1,0"],
    ["kernel", *CYCLIC, "--N", "2", "--grid", "2"],
    ["verify", "--suite", "contour"],
], ids=lambda argv: argv[0])
def test_every_command_rejects_flags_it_does_not_read(argv, capsys):
    # the per-parameter family flags are gone from every command, and no
    # flag is read by a prefix of its name (--family is not --family-json)
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--family", "cyclic", "--L", "9", "--k", "4",
                        "--a0", "7"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --family cyclic --L 9 --k 4 --a0 7" \
        in captured.err


def test_top_level_options_take_no_abbreviation(capsys):
    # --hel is not --help: no parser reads a flag by a prefix of its name
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["--hel"]) == EXIT_CONFIG
    assert capsys.readouterr().out == ""


# --- parser reuse -------------------------------------------------------

def test_main_calls_in_sequence_match_calls_alone(tmp_path, capsys):
    # main() builds its parser once per process; a reused parser must
    # leave no state behind from an earlier call, a failed one included
    from cdsurface import cli
    prob = ["prob", "--hexagon", "4,2,2", "--r", "2", "--q", "2",
            "--a", "[[1.0, 2.0], [1.0, 1.0]]",
            "--b", "[[1.0, 2.0], [1.5, 0.7]]", "--points", "1,1", "3,2"]
    calls = [["verify", "--suite", "mops", *CYCLIC, "--N", "2"],
             prob, ["prob", "--hexagon", "4,2,2", "--no-such-option"], prob]

    def run(argv):
        out = tmp_path / "out.json"
        if out.exists():
            out.unlink()
        code = cli.main(argv + ["--output", str(out)])
        captured = capsys.readouterr()
        written = out.read_bytes() if out.exists() else b""
        return code, written, captured.out, captured.err

    alone = []
    for argv in calls:
        cli._build_parser.cache_clear()
        alone.append(run(argv))
    cli._build_parser.cache_clear()
    in_sequence = [run(argv) for argv in calls]
    assert [c[0] for c in alone] == [cli.EXIT_OK, cli.EXIT_OK,
                                     cli.EXIT_CONFIG, cli.EXIT_OK]
    assert alone[1][1] and alone[1] == alone[3]
    assert in_sequence == alone


# --- one report path ----------------------------------------------------

@pytest.mark.parametrize("kind_args, header", [
    (["--kind", "matrix", *CYCLIC, "--N", "2", "--grid", "2"],
     ["w_re", "w_im", "z_re", "z_im", "K00_re", "K00_im", "K01_re",
      "K01_im", "K10_re", "K10_im", "K11_re", "K11_im"]),
    (["--kind", "surface", *CYCLIC, "--N", "2", "--grid", "2"],
     ["w_re", "w_im", "z_re", "z_im", "S_re", "S_im"]),
    (["--kind", "tiling", *HEXAGON, "--r", "2", "--n", "64",
      "--at", "1,0", "1,0", "1,1", "2,1", "0,0", "3,2"],
     ["x1", "y1", "x2", "y2", "K_re", "K_im"]),
], ids=["matrix", "surface", "tiling"])
def test_kernel_csv_cells_are_the_json_leaves(kind_args, header, tmp_path):
    # the CSV is the JSON records flattened: one column per leaf, in order
    csv_out, json_out = tmp_path / "k.csv", tmp_path / "k.json"
    assert main(["kernel", *kind_args, "--output", str(csv_out)]) == 0
    assert main(["kernel", *kind_args, "--format", "json",
                 "--output", str(json_out)]) == 0
    rows = list(csv.reader(open(csv_out)))
    records = json.loads(json_out.read_text())
    assert rows[0] == header
    assert len(rows) == len(records) + 1 > 2
    for row, rec in zip(rows[1:], records):
        leaves = [v for value in rec.values() for v in np.ravel(value)]
        assert row == [f"{v:.16e}" for v in leaves]


@pytest.mark.parametrize("family_args, code, residual, ok", [
    (CYCLIC, 1, 0.0, False),
    (ROOT_K3, 0, float("inf"), True),
], ids=["cyclic", "root-k"])
def test_verify_surface_scalar_cd_nonexistence(family_args, code, residual,
                                               ok, tmp_path):
    # the scalar orthogonal polynomials exist for cyclic, so the
    # nonexistence check fails; for root-k their moment system is singular
    out = tmp_path / "v.json"
    assert main(["verify", "--suite", "surface", *family_args,
                 "--expect-not-cd", "--output", str(out)]) == code
    report = json.loads(out.read_text())
    check, = [c for c in report["checks"]
              if c["check"] == "scalar-cd-nonexistence"]
    assert check == {"check": "scalar-cd-nonexistence", "residual": residual,
                     "tolerance": 0.0, "pass": ok}
    assert report["pass"] is ok
    if ok:
        assert '"residual": Infinity' in out.read_text()


def test_kernel_malformed_at_exits_2_before_numerical_work(tmp_path,
                                                           capsys,
                                                           monkeypatch):
    # every pair is read before the evaluator or moment system is built,
    # so a bad pair on a model whose kernel is singular is a configuration
    # error, not a numerical failure
    from cdsurface import tiling
    built = []
    dk_evaluator = tiling.dk_evaluator
    monkeypatch.setattr(tiling, "dk_evaluator",
                        lambda *a: built.append(a) or dk_evaluator(*a))
    out = tmp_path / "k.csv"
    singular = [*family("cyclic", r=2, L=1, R=1), "--N", "2"]
    for argv in (["--kind", "tiling", "--hexagon", "40,20,20",
                  "--at", "1,0", "x"],
                 ["--kind", "tiling", "--hexagon", "40,20,20",
                  "--at", "41,0", "1,0"],
                 [*singular, "--at", "1,0"],
                 [*singular, "--at", "1,0", "1,2,3"]):
        assert main(["kernel", *argv, "--output", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "configuration error" in captured.err
        assert captured.out == ""
    assert not out.exists()
    assert built == []


@pytest.mark.parametrize("argv", [
    ["kernel", *CYCLIC, "--N", "2", "--grid", "2"],
    ["verify", "--suite", "contour"],
    ["prob", "--hexagon", "2,1,1", "--points", "1,0"],
], ids=lambda argv: argv[0])
def test_unwritable_output_exits_2(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "out"
    assert main(argv + ["--output", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: ")
    assert str(out) in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["kernel", "--N", "2", "--grid", "2"],
    ["verify", "--suite", "mops"],
], ids=lambda argv: argv[0])
def test_unreadable_family_json_file_exits_2(argv, tmp_path, capsys):
    missing = tmp_path / "missing" / "fam.json"
    for spec in (missing, tmp_path):    # no such file; a directory
        assert main(argv + ["--family-json", f"@{spec}"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("configuration error: ")
        assert str(spec) in captured.err
