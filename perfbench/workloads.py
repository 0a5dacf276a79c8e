"""The benchmark's workloads: seeded inputs, one op each, output checks.

A workload has `inputs(i)`, which returns the argument tuple of op i,
`op(*args)`, the timed call into `cdsurface`, and `check(args, result)`.

Every workload is a closed loop driven by one client: op i+1 starts only
after op i has finished.  Inputs come from the seed alone: `inputs(i)` is
a pure function of (seed, draws, i), so a traced and an untraced run
with the same seed run the same ops.

The program has documented baseline defects that make some seeded
inputs fail their checks (see README.md).  Before a run, `screen()` runs
the op once on every distinct input the run will use.  An input that
fails in the documented way is counted in `known_defects` and redrawn
from its own generator (`draws` records how often); any other failure
is a screen error, which makes the run incorrect, as does a defect count
above the workload's DEFECTS_MAX.  The timed loop then only cycles
through inputs that passed, and every op that fails there counts as
failed and makes the run incorrect.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from cdsurface import cli, tiling
from cdsurface.errors import SingularSystemError

ROUTE_TOL = 1e-7        # route_check: |K_route - K_dk| <= ROUTE_TOL max(1, |K_dk|)
COLUMN_SUM_TOL = 1e-7   # |column sum - N|
PROB_TOL = 1e-9         # 0 <= p <= 1 within this
MAX_DRAWS = 8           # draws per input slot before the screen gives up

# (q, M = N, L) of the route_check models: both column periods, both
# particle counts and every L in {4, 6, 8} with L > M.
ROUTE_SHAPES = ((1, 2, 4), (2, 2, 6), (1, 4, 6), (2, 4, 8), (1, 2, 8),
                (2, 4, 6))
ROUTE_N = 256
# Distinct queries per route_check model.  Odd, so that every query is
# run by traced (odd-numbered) and untraced ops alike.
ROUTE_POOL = 9
PROB_HEXAGON = (12, 6, 6)   # (L, N, M)
PROB_N = 128
SCAN_SHAPES = tuple((q, m, el) for q in (1, 2) for m in (2, 4)
                    for el in (4, 6, 8) if el > m)
SCAN_N, SCAN_N_LARGE = 256, 512
SCAN_CYCLE = 8 * len(SCAN_SHAPES)   # distinct param_scan cases


@dataclass
class Outcome:
    failures: list
    output: bytes = b""


def random_model(rng, q: int, m: int, el: int) -> "tiling.HexagonModel":
    """r = 2 model with M = N = m and edge weights U(0.5, 2)."""
    a = tuple(tuple(float(v) for v in rng.uniform(0.5, 2.0, 2))
              for _ in range(q))
    b = tuple(tuple(float(v) for v in rng.uniform(0.5, 2.0, 2))
              for _ in range(q))
    return tiling.HexagonModel(r=2, q=q, L=el, M=m, N=m, a=a, b=b)


def model_json(model) -> dict:
    return {"q": model.q, "L": model.L, "M": model.M, "N": model.N,
            "a": model.a, "b": model.b}


def run_cli(argv: list, path: str):
    """cli.main(argv) with `--output path`; returns (exit code, file bytes).
    The file is removed first, so a run that writes nothing reads b""."""
    if os.path.exists(path):
        os.remove(path)
    code = cli.main(argv + ["--output", path])
    if not os.path.exists(path):
        return code, b""
    with open(path, "rb") as fh:
        return code, fh.read()


def lattice_points(model) -> list:
    return [(x, y) for x in range(model.L + 1)
            for y in model.column_range(x)]


def column_sum_error(model, block) -> float:
    """max over columns x of |sum_y K(x, y; x, y) - N| for a block route
    `block(query)` that returns the 2x2 block of a KernelQuery."""
    worst = 0.0
    for x in range(model.L + 1):
        total = sum(block(tiling.KernelQuery(x, y // 2, x, y // 2))
                    [y % 2, y % 2].real for y in model.column_range(x))
        worst = max(worst, abs(total - model.N))
    return worst


def _screen_slots(slots: int, defects_max: int, try_slot) -> dict:
    """The screen loop shared by the workloads.  `try_slot(k, draw)`
    returns None if every input of that draw passes, ("redraw", None) if
    the draw has no inputs (a documented error), ("defect", info) for a
    documented defect, or ("error", message)."""
    report = {"draws": [], "known_defects": [], "redrawn": 0, "errors": []}
    for k in range(slots):
        for draw in range(MAX_DRAWS):
            verdict = try_slot(k, draw)
            if verdict is None:
                break
            kind, info = verdict
            if kind == "redraw":
                report["redrawn"] += 1
            elif kind == "defect":
                report["known_defects"].append(info)
            else:
                report["errors"].append(f"slot {k}, draw {draw}: {info}")
                break
        else:
            report["errors"].append(f"slot {k}: no passing input in "
                                    f"{MAX_DRAWS} draws")
        report["draws"].append(draw)
    if len(report["known_defects"]) > defects_max:
        report["errors"].append(
            f"{len(report['known_defects'])} inputs show a known defect, "
            f"more than the {defects_max} the defect explains")
    return report


class RouteCheck:
    """One in-hexagon block query against dk_kernel and the three
    scalarized routes (explicit 2x1/2x2, plane form, sheet form).

    Each of the six models has a pool of ROUTE_POOL queries drawn with
    it; ops 2k and 2k+1 query the same model, so that a traced run, which
    traces every other op, sees the same model mix traced and untraced.

    The screen redraws a model whose chart routes do not exist (the
    scalar moment system is singular: the documented SingularSystemError,
    exit code 3 in the CLI) and a model that shows the known chart-route
    defect (see `chart_defect`)."""

    name = "route_check"
    # Over seeds 1-70, 28 of 210 q=2 models showed the defect, and 7 of
    # 37 q=2 draws over seeds 401-410.  Even at 1 in 5 per draw, nine or
    # more defective draws among the three q=2 slots of one run has a
    # chance of about 2e-5.
    DEFECTS_MAX = 8

    def __init__(self, seed: int, scratch: str, draws=None):
        self.seed = seed
        self._use(draws or [0] * len(ROUTE_SHAPES))

    def _use(self, draws) -> None:
        self.draws = list(draws)
        slots = [self._slot(k, d) for k, d in enumerate(self.draws)]
        self.models = [model for model, _ in slots]
        self.pools = [pool for _, pool in slots]

    def _slot(self, k: int, draw: int):
        rng = np.random.default_rng((self.seed, k, draw))
        model = random_model(rng, *ROUTE_SHAPES[k])
        pool = []
        for _ in range(ROUTE_POOL):
            x1, x2 = (int(v) for v in rng.integers(0, model.L + 1, 2))
            y1 = int(rng.choice(model.column_range(x1)))
            y2 = int(rng.choice(model.column_range(x2)))
            pool.append(tiling.KernelQuery(x1, y1 // 2, x2, y2 // 2))
        return model, pool

    def screen(self) -> dict:
        report = _screen_slots(len(ROUTE_SHAPES), self.DEFECTS_MAX,
                               self._try_slot)
        self._use(report["draws"])
        return report

    def _try_slot(self, k: int, draw: int):
        model, pool = self._slot(k, draw)
        failed = {}
        try:
            for query in pool:
                for reason in self.check((query, model),
                                         self.op(query, model)).failures:
                    failed[reason] = failed.get(reason, 0) + 1
        except SingularSystemError:
            return "redraw", None
        if not failed:
            return None
        defect = chart_defect(model, failed)
        if defect is None:
            return "error", f"{model_json(model)}: {failed}"
        return "defect", defect

    def warm_up(self) -> None:
        for model, pool in zip(self.models, self.pools):
            tiling.dk_evaluator(model, ROUTE_N)
            self.op(pool[0], model)

    def inputs(self, i: int):
        model = (i // 2) % len(self.models)
        query = (i // (2 * len(self.models)) * 2 + i % 2) % ROUTE_POOL
        return self.pools[model][query], self.models[model]

    def op(self, query, model):
        explicit = (tiling.simplified_kernel_2x1 if model.q == 1
                    else tiling.simplified_kernel_2x2)
        base = tiling.dk_kernel(model, query, ROUTE_N)
        routes = {
            "explicit": explicit(model, query, ROUTE_N),
            "plane": tiling.simplified_kernel_general(model, query, "plane",
                                                      ROUTE_N),
            "sheets": tiling.simplified_kernel_general(model, query,
                                                       "sheets", ROUTE_N),
        }
        return base, routes

    def check(self, args, result) -> Outcome:
        base, routes = result
        tol = ROUTE_TOL * max(1.0, float(np.max(np.abs(base))))
        failures = [f"{name} differs from dk_kernel"
                    for name, val in routes.items()
                    if not float(np.max(np.abs(val - base))) <= tol]
        output = b"".join(np.ascontiguousarray(v).tobytes()
                          for v in (base, *routes.values()))
        return Outcome(failures, output)


def chart_defect(model, failed: dict):
    """A description of the known chart-route defect if `failed` (reason:
    count over a model's query pool) is that defect, else None.

    The defect: on some r=2, q=2 models the chart-based routes (explicit
    2x2 and often the plane form) disagree with dk_kernel, while the
    sheet form agrees with it, and dk_kernel and the sheet form both meet
    the column-sum law."""
    if model.q != 2 or "sheets differs from dk_kernel" in failed:
        return None
    errors = {
        "dk_kernel": column_sum_error(
            model, lambda q: tiling.dk_kernel(model, q, ROUTE_N)),
        "sheets": column_sum_error(
            model, lambda q: tiling.simplified_kernel_general(
                model, q, "sheets", ROUTE_N)),
    }
    if not all(err <= COLUMN_SUM_TOL for err in errors.values()):
        return None
    return {"defect": "chart routes", "model": model_json(model),
            "failed": failed, "column_sum_error": errors}


class ProbCli:
    """`cdsurface prob` on one (12, 6, 6) r=2, q=2 hexagon, in process."""

    name = "prob_cli"

    def __init__(self, seed: int, scratch: str, draws=None):
        rng = np.random.default_rng(seed)
        self.seed = seed
        el, n, m = PROB_HEXAGON
        self.model = random_model(rng, 2, m, el)
        self.points = lattice_points(self.model)
        self.out = os.path.join(scratch, f"prob-{os.getpid()}.json")
        self.argv = ["prob", "--hexagon", f"{el},{n},{m}", "--r", "2",
                     "--q", "2", "--a", json.dumps(self.model.a),
                     "--b", json.dumps(self.model.b), "--n", str(PROB_N)]

    def screen(self) -> dict:
        """No known defect touches this workload: nothing to screen."""
        return _screen_slots(0, 0, None)

    def warm_up(self) -> None:
        tiling.dk_evaluator(self.model, PROB_N)
        self.op(*self.inputs(0))

    def inputs(self, i: int):
        rng = np.random.default_rng((self.seed, i))
        k = int(rng.integers(1, 5))
        picks = rng.choice(len(self.points), k, replace=False)
        return ([f"{x},{y}" for x, y in (self.points[j] for j in picks)],)

    def op(self, points):
        return run_cli(self.argv + ["--points", *points], self.out)

    def check(self, args, result) -> Outcome:
        code, text = result
        if code != 0:
            return Outcome([f"exit code {code}"], text)
        report = json.loads(text)
        failures = []
        n = self.model.N
        if not all(abs(v - n) <= COLUMN_SUM_TOL
                   for v in report["column_sums"].values()):
            failures.append("column sum differs from N")
        p = report["probability_determinant"]
        if not -PROB_TOL <= p <= 1 + PROB_TOL:
            failures.append("probability outside [0, 1]")
        return Outcome(failures, text)


class ParamScan:
    """A different model per op: evaluator build, one point probability,
    then `cdsurface verify --suite mops` on the matching weight family.

    The ops cycle through SCAN_CYCLE distinct cases, so a model comes
    back only after 80 others and the 16-entry lru_caches have always
    evicted it.  The screen redraws a case that shows the known
    biorthogonality defect (see `check_defect`)."""

    name = "param_scan"
    # About 1.5% of models show the defect, 1.2 of the 80 cases on
    # average; nine or more has a chance below 1e-5.
    DEFECTS_MAX = 8

    def __init__(self, seed: int, scratch: str, draws=None):
        self.seed = seed
        self.draws = list(draws or [0] * SCAN_CYCLE)
        self.out = os.path.join(scratch, f"verify-{os.getpid()}.json")

    def screen(self) -> dict:
        report = _screen_slots(SCAN_CYCLE, self.DEFECTS_MAX, self._try_slot)
        self.draws = report["draws"]
        return report

    def _try_slot(self, c: int, draw: int):
        args = self._case(c, draw)
        result = self.op(*args)
        if not self.check(args, result).failures:
            return None
        defect = check_defect(args, result)
        if defect is None:
            return "error", f"{model_json(args[0])}, n={args[1]}: " \
                            f"exit {result[1]}, p={result[0]}"
        return "defect", defect

    def warm_up(self) -> None:
        """Building is this workload's work, so nothing is built ahead."""

    def inputs(self, i: int):
        c = i % SCAN_CYCLE
        return self._case(c, self.draws[c])

    def _case(self, c: int, draw: int):
        # A fixed order of cases: in every 8 ops the shape is the same
        # and n is 256 six times, then 512 twice.  Any 16 consecutive ops,
        # as many as the lru_caches hold, then hold four n=512 tables, so
        # peak memory and the mix of op costs are the same in every run;
        # p50 falls among the n=256 ops and p90 among the n=512 ones, not
        # in the gap between them; traced (odd) and untraced ops see
        # every case.
        q, m, el = SCAN_SHAPES[c // 8]
        n = SCAN_N_LARGE if c % 8 >= 6 else SCAN_N
        rng = np.random.default_rng((self.seed, c, draw))
        model = random_model(rng, q, m, el)
        points = lattice_points(model)
        point = points[int(rng.integers(len(points)))]
        family = json.dumps(model.family().to_json())
        argv = ["verify", "--suite", "mops", "--family-json", family,
                "--N", str(m // 2), "--n", str(n)]
        return model, n, point, argv

    def op(self, model, n, point, argv):
        tiling.dk_evaluator(model, n)
        p = tiling.point_probability(model, [point], "determinant", n)
        return (p, *run_cli(argv, self.out))

    def check(self, args, result) -> Outcome:
        p, code, text = result
        failures = []
        if not -PROB_TOL <= p <= 1 + PROB_TOL:
            failures.append("probability outside [0, 1]")
        if code != 0:
            failures.append(f"verify exit code {code}")
        output = np.float64(p).tobytes() + text
        return Outcome(failures, output)


def check_defect(args, result):
    """A description of the known biorthogonality defect if a param_scan
    op's result is that defect, else None.

    The defect: `verify --suite mops` exits 1 because its biorthogonality
    check, with an absolute 1e-10 tolerance, is missed on models whose
    moments are large; every other check passes, and so does the
    probability check."""
    p, code, text = result
    if code != 1 or not -PROB_TOL <= p <= 1 + PROB_TOL:
        return None
    checks = json.loads(text)["checks"]
    if [c["check"] for c in checks if not c["pass"]] != ["biorthogonality"]:
        return None
    model, n = args[:2]
    return {"defect": "biorthogonality", "model": model_json(model), "n": n}


WORKLOADS = {cls.name: cls for cls in (RouteCheck, ProbCli, ParamScan)}
