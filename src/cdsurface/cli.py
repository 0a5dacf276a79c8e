"""Command-line front end.

Subcommands:
  kernel  -- evaluate a kernel (matrix CD, surface scalar, or tiling
             correlation kernel) on a grid or at explicit point pairs.
  verify  -- run a named verification suite: a report of
             {check, residual, tolerance, pass} entries (and for the
             mops suite, the MOPs that do not exist and the checks
             skipped for them).
  prob    -- point (inclusion) probabilities for a hexagon tiling model
             by the determinant route, and its column sums.

Each command returns (payload, exit code) and writes nothing.  `main`
writes the payload once, to stdout or --output: as indented JSON, or for
`kernel --format csv` as the same records flattened by `_columns`.

Exit codes: 0 success (all checks pass for `verify`), 1 failed check,
2 configuration/schema error (an unwritable --output included),
3 numerical existence failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from . import mops, sops, surface, tiling, weights
from .contour import DEFAULT_N, unit_circle_quadrature
from .errors import (CDSurfaceError, InconsistentParametersError,
                     InvalidArgumentError, SingularSystemError,
                     SizeGuardError, UnsupportedFamilyError)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_CONFIG_ERRORS = (InvalidArgumentError, UnsupportedFamilyError,
                  InconsistentParametersError, KeyError, TypeError,
                  ValueError)
_NUMERICAL_ERRORS = (SingularSystemError, SizeGuardError,
                     np.linalg.LinAlgError)


# --- formatting ----------------------------------------------------------

def _fmt(x: float) -> str:
    """17 significant digits, lowercase e exponent (round-trip exact)."""
    return f"{float(x):.16e}"


def _columns(name: str, value) -> list:
    """(column, value) pairs of one JSON field: an [re, im] leaf gives
    name_re and name_im, a nested list one column group per index (K00,
    K01, ...), anything else one column."""
    if not isinstance(value, list):
        return [(name, value)]
    if not isinstance(value[0], list):
        return [(f"{name}_re", value[0]), (f"{name}_im", value[1])]
    return [col for i, item in enumerate(value)
            for col in _columns(f"{name}{i}", item)]


def _csv(records: list) -> str:
    """Header from the first record's columns, then one row per record."""
    rows = [[col for name, value in rec.items()
             for col in _columns(name, value)] for rec in records]
    lines = [[name for name, _ in rows[0]]]
    lines += [[_fmt(value) for _, value in row] for row in rows]
    return "".join(",".join(line) + "\n" for line in lines)


# --- config parsing ------------------------------------------------------

def _parse_complex(token: str) -> complex:
    """'re,im' or a plain real number, finite."""
    parts = token.split(",")
    if len(parts) > 2:
        raise InvalidArgumentError(f"cannot parse complex value {token!r}")
    value = complex(*map(float, parts))
    if not np.isfinite(value):
        raise InvalidArgumentError(f"complex value {token!r} is not finite")
    return value


def _parse_ints(token: str, form: str) -> tuple:
    """Integers of a token shaped like `form` ('x,y' or 'L,N,M')."""
    parts = token.split(",")
    if len(parts) != form.count(",") + 1:
        raise InvalidArgumentError(f"expected {form!r}, got {token!r}")
    return tuple(int(p) for p in parts)


def _family_from_args(args) -> weights.WeightFamily:
    """The family of --family-json: inline JSON, or @file."""
    spec = args.family_json
    if spec is None:
        raise InvalidArgumentError("--family-json is required")
    if spec.startswith("@"):
        try:
            with open(spec[1:]) as fh:
                spec = fh.read()
        except OSError as exc:
            raise InvalidArgumentError(
                f"cannot read --family-json file: {exc}") from exc
    return weights.family_from_json(json.loads(spec))


def _kernel_degree(args, default=None) -> int:
    """--N, or `default` when it is not given; at least 1."""
    N = default if args.N is None else args.N
    if N is None:
        raise InvalidArgumentError("--N (kernel degree) is required")
    if N < 1:
        raise InvalidArgumentError(f"--N must be >= 1, got {N}")
    return N


def _hexagon_model(args) -> tiling.HexagonModel:
    """The model of the hexagon flags, built once per process for each
    set of flag values (the model is frozen; a refused set raises on
    every call)."""
    return _model_from_flags(args.hexagon, args.r, args.q, args.a, args.b)


@lru_cache(maxsize=16)
def _model_from_flags(hexagon, r, q, a, b) -> tiling.HexagonModel:
    if hexagon is None:
        raise InvalidArgumentError("--hexagon L,N,M is required")
    L, N, M = _parse_ints(hexagon, "L,N,M")
    r = 1 if r is None else r
    q = 1 if q is None else q
    if a is not None or b is not None:
        if a is None or b is None:
            raise InvalidArgumentError("--a and --b must be given together")
        return tiling.HexagonModel(r=r, q=q, L=L, M=M, N=N,
                                   a=json.loads(a), b=json.loads(b))
    return tiling.HexagonModel.uniform(L, M, N, r=r, q=q)


# --- kernel command ------------------------------------------------------

def _at_pairs(tokens: list, parse) -> list:
    """--at tokens read by `parse`, taken two at a time."""
    if len(tokens) % 2:
        raise InvalidArgumentError("--at needs pairs of points (even count)")
    return list(zip(map(parse, tokens[::2]), map(parse, tokens[1::2])))


def _probe_pairs(args) -> list:
    if args.at:
        return _at_pairs(args.at, _parse_complex)
    g = args.grid
    if g is None:
        raise InvalidArgumentError("provide --grid or --at")
    if g < 1:
        raise InvalidArgumentError("--grid must be >= 1")
    ws = 1.5 * np.exp(2j * np.pi * np.arange(g) / g)
    zs = 2.0 * np.exp(2j * np.pi * np.arange(g) / g)
    return [(w, z) for w in ws for z in zs]


def _re_im(z) -> list:
    """A complex scalar or array as nested lists of [re, im] leaves."""
    z = np.asarray(z)
    return np.stack([z.real, z.imag], axis=-1).tolist()


def cmd_kernel(args) -> tuple:
    """Every pair is read and checked before any numerical work."""
    if args.kind == "tiling":
        model = _hexagon_model(args)
        if not args.at:
            raise InvalidArgumentError("--kind tiling requires --at "
                                       "x1,y1 x2,y2 pairs")
        pairs = _at_pairs(args.at, lambda tok: _parse_ints(tok, "x,y"))
        tiling.check_columns(model, *(x for pt in pairs for x, _ in pt))
        ev = tiling.dk_evaluator(model, args.n)
        return [{"x1": x1, "y1": y1, "x2": x2, "y2": y2,
                 "K": _re_im(ev.scalar(x1, y1, x2, y2))}
                for (x1, y1), (x2, y2) in pairs], EXIT_OK

    family = _family_from_args(args)
    N = _kernel_degree(args)
    pairs = _probe_pairs(args)
    system = mops.mop_system(family, unit_circle_quadrature(args.n), N)
    name, kern = "K", partial(mops.cd_kernel, system)
    if args.kind == "surface":
        chart = surface.build_chart(family, N)
        name, kern = "S", partial(surface.frak_R, chart, system)
    return [{"w": _re_im(w), "z": _re_im(z), name: _re_im(kern(w, z))}
            for w, z in pairs], EXIT_OK


# --- verify command ------------------------------------------------------

def _check(name: str, residual: float, tol: float,
           invert: bool = False) -> dict:
    """invert=True: the check passes when the residual EXCEEDS tol
    (used for failure witnesses)."""
    ok = residual > tol if invert else residual <= tol
    return {"check": name, "residual": float(residual),
            "tolerance": float(tol), "pass": bool(ok)}


def _suite_contour(args) -> dict:
    checks = []
    for nq in (8, 64):
        quad = unit_circle_quadrature(nq)
        res = 0.0
        for k in range(-6, 7):
            val = quad.integrate(lambda z, k=k: z ** k)
            expect = 2j * np.pi if (k + 1) % nq == 0 else 0.0
            res = max(res, abs(val - expect))
        checks.append(_check(f"exactness-n{nq}", res, 1e-13))
    quad = unit_circle_quadrature(32)
    res = abs(quad.reversed().integrate(lambda z: 1 / z) + 2j * np.pi)
    checks.append(_check("orientation-reversal", res, 1e-13))
    truth = 2j * np.pi / (1.5 - 0.2)

    def f(z):
        return 1 / ((z - 0.2) * (z - 1.5))
    e64 = abs(unit_circle_quadrature(64).integrate(f) + truth)
    e128 = abs(unit_circle_quadrature(128).integrate(f) + truth)
    checks.append(_check("geometric-convergence-ratio",
                         e128 / e64 if e64 else 0.0, 0.1))
    return {"checks": checks}


_DEFAULT_FAMILIES = (
    ("cyclic-r2", lambda: weights.CyclicUniform(r=2, L=2, R=2)),
    ("cyclic-r3", lambda: weights.CyclicUniform(r=3, L=1, R=1)),
    ("root-k3", lambda: weights.TwoByTwoRootK(k=3, L=1, M=1)),
    ("periodic-2x1", lambda: weights.Periodic2x1(a0=1.0, a1=0.7, b0=1.2,
                                                 b1=0.5, L=4, M=2, N=2)),
    ("periodic-2x2", lambda: weights.Periodic2x2(
        a=((1.0, 2.0), (1.0, 1.0)), b=((1.0, 2.0), (1.0, 1.0)),
        L=4, M=2, N=2)),
    ("scalar-monomial", lambda: weights.ScalarMonomial(r=1, N=2)),
)


def _suite_spectral(args) -> dict:
    rng = np.random.default_rng(args.seed)
    if args.family_json:
        family = _family_from_args(args)
        fams = [(family.tag, family)]
    else:
        fams = [(name, make()) for name, make in _DEFAULT_FAMILIES]
    checks = []
    for name, fam in fams:
        res = 0.0
        for _ in range(100):
            z = ((0.5 + 1.5 * rng.random())
                 * np.exp(2j * np.pi * rng.random()))
            res = max(res, weights.check_spectral(fam, z))
        checks.append(_check(f"spectral-{name}", res, 1e-12))
    return {"checks": checks}


def _suite_mops(args) -> dict:
    family = _family_from_args(args)
    N = _kernel_degree(args, 2)
    quad = unit_circle_quadrature(args.n)
    W = family.weight(quad.nodes)
    system = mops.solve_mops(mops.compute_moments(quad, N, W), N)
    rng = np.random.default_rng(args.seed)
    r = family.r
    checks = []

    Ps, zs = [], []
    for _ in range(5):
        Ps.append(mops.MatrixPolynomial(rng.standard_normal((N, r, r))
                                        + 1j * rng.standard_normal((N, r, r))))
        zs.append(0.9 * np.exp(2j * np.pi * rng.random()))
    checks.append(_check("reproducing", mops.reproducing_residual(
        system, family, quad, Ps, zs, W=W), 1e-8))

    # A MOP of degree < N may not exist while the kernel does (P_N and
    # Q_{N-1} always do): the two checks that read every degree are then
    # skipped, and the others read only P_N, Q_{N-1} and their mirrors.
    complete = not system.missing
    values = mops.node_values(system, family, quad, W)
    if complete:
        checks.append(_check("biorthogonality", mops.biorthogonality_residual(
            system, family, quad, values), 1e-10))

    t = rng.random((10, 2))     # per pair: the w draw, then the z draw
    w = 1.3 * np.exp(2j * np.pi * t[:, 0])
    z = 0.8 * np.exp(2j * np.pi * t[:, 1])
    Kf = mops.cd_kernel_formula(system, w, z)
    if complete:
        res_sf = float(np.max(np.abs(mops.cd_kernel_sum(system, w, z) - Kf)))
        checks.append(_check("sum-vs-formula", res_sf, 1e-10))
    res_fy = float(np.max(np.abs(
        mops.kernel_from_Y(system, family, quad, w, z, values) - Kf)))
    checks.append(_check("formula-vs-Y", res_fy, 1e-7))

    z0 = 1.7 + 0.3j
    Y = mops.assemble_Y(system, family, quad, z0, values=values)
    checks.append(_check("det-Y-unimodular",
                         abs(np.linalg.det(Y) - 1.0), 1e-8))
    if complete:
        return {"checks": checks}
    return {"checks": checks,
            "missing": [f"{kind}_{j}" for kind, j in system.missing],
            "skipped": ["biorthogonality", "sum-vs-formula"]}


def _suite_surface(args) -> dict:
    family = _family_from_args(args)
    N = _kernel_degree(args, 2)
    quad = unit_circle_quadrature(args.n)
    n = quad.size
    system = mops.mop_system(family, quad, N)
    chart = surface.build_chart(family, N)
    rng = np.random.default_rng(args.seed)
    checks = []
    kern = partial(surface.frak_R, chart, system)
    zetas = [complex(chart.phi_inv(0, 0.9 * np.exp(2j * np.pi * t)))
             for t in rng.random(5)]
    res = 0.0
    for _ in range(10):
        coeffs = (rng.standard_normal((N, family.r))
                  + 1j * rng.standard_normal((N, family.r)))
        p = chart.v_element(coeffs)
        for zt in zetas:
            res = max(res, surface.check_reproducing_plane(
                chart, kern, p, zt, n))
    checks.append(_check("v-member-reproducing", res, 1e-8))

    if args.expect_not_cd:
        pz = partial(np.asarray, dtype=complex)
        res_bad = max(surface.check_reproducing_plane(chart, kern, pz, zt, n)
                      for zt in zetas)
        checks.append(_check("non-cd-witness", res_bad, 1e-2, invert=True))
        try:
            sops.solve_scalar_ops(chart.scalar_weight, chart.gamma_C(n),
                                  family.r * N)
            res = 0.0
        except SingularSystemError:
            res = float("inf")
        checks.append(_check("scalar-cd-nonexistence", res, 0.0,
                             invert=True))
    return {"checks": checks}


def _suite_tiling_oracle(args) -> dict:
    model = _hexagon_model(args)
    rng = np.random.default_rng(args.seed)
    oracle = tiling.ExactOracle(model)
    Z = oracle.partition_function
    checks = []
    if model.is_uniform:
        mm = tiling.macmahon_count(model.L, model.M, model.N)
        checks.append(_check("exact-vs-macmahon", abs(Z - mm), 0))
    checks.append(_check("lgv-vs-exact", abs(
        Fraction(tiling.lgv_partition_function(model)) - Z) / Z, 1e-10))

    def gap(pts):
        return abs(tiling.point_probability(model, pts, "determinant",
                                            args.n)
                   - oracle.probability(pts))

    singles = [(x, y) for x in range(model.L + 1)
               for y in model.column_range(x)]
    checks.append(_check("determinant-vs-exact-singles",
                         max(gap([pt]) for pt in singles), 1e-8))
    pairs = [[singles[i] for i in rng.choice(len(singles), 2, replace=False)]
             for _ in range(10)]
    checks.append(_check("determinant-vs-exact-pairs",
                         max(gap(pts) for pts in pairs), 1e-8))

    res = max(abs(sum(tiling.column_probabilities(
        model, x, args.n).values()) - model.N) for x in range(model.L + 1))
    checks.append(_check("column-sums", res, 1e-7))
    return {"checks": checks}


_SUITES = {
    "contour": _suite_contour,
    "spectral": _suite_spectral,
    "mops": _suite_mops,
    "surface": _suite_surface,
    "tiling-oracle": _suite_tiling_oracle,
}


def cmd_verify(args) -> tuple:
    if args.suite not in _SUITES:
        raise InvalidArgumentError(
            f"unknown suite {args.suite!r}; known: {sorted(_SUITES)}")
    report = {"suite": args.suite, **_SUITES[args.suite](args)}
    report["pass"] = all(c["pass"] for c in report["checks"])
    return report, EXIT_OK if report["pass"] else EXIT_FAIL


# --- prob command --------------------------------------------------------

def cmd_prob(args) -> tuple:
    model = _hexagon_model(args)
    points = [_parse_ints(tok, "x,y") for tok in (args.points or [])]
    report = {
        "hexagon": {"L": model.L, "N": model.N, "M": model.M,
                    "r": model.r, "q": model.q},
        "points": [list(pt) for pt in points],
        "probability_determinant": tiling.point_probability(
            model, points, "determinant", args.n),
    }
    ev = tiling.dk_evaluator(model, args.n)
    report["column_sums"] = {str(x): float(sum(ev.density(x).values()))
                             for x in range(model.L + 1)}
    return report, EXIT_OK


# --- argument parsing ----------------------------------------------------

def _family_flag(p):
    """The one flag that names a weight family."""
    p.add_argument("--family-json",
                   help="inline JSON or @file with {family, params}")


def _hexagon_flags(p):
    """Flags that describe a hexagon tiling model."""
    p.add_argument("--r", type=int,
                   help="vertical period of the hexagon's weights (tiling)")
    p.add_argument("--q", type=int, help="column period (tiling)")
    p.add_argument("--a", help="JSON nested list of a-weights (tiling)")
    p.add_argument("--b", help="JSON nested list of b-weights (tiling)")
    p.add_argument("--hexagon", help="L,N,M")


def _add_command(sub, command: str, summary: str, func, *groups):
    """A subparser with the shared options and the given flag groups."""
    p = sub.add_parser(command, help=summary, allow_abbrev=False)
    p.set_defaults(func=func)
    for group in groups:
        group(p)
    p.add_argument("--n", type=int, default=DEFAULT_N,
                   help="quadrature nodes")
    p.add_argument("--output")
    return p


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdsurface", allow_abbrev=False,
        description="CD kernels for matrix weights, their scalar "
                    "counterparts on genus-0 surfaces, and tiling "
                    "correlation kernels.")
    sub = parser.add_subparsers(dest="command", required=True)

    pk = _add_command(sub, "kernel", "evaluate a kernel table", cmd_kernel,
                      _family_flag, _hexagon_flags)
    pk.add_argument("--N", type=int, help="kernel degree")
    pk.add_argument("--kind", choices=("matrix", "surface", "tiling"),
                    default="matrix")
    pk.add_argument("--grid", type=int, help="g x g probe grid")
    pk.add_argument("--at", nargs="+",
                    help="explicit w z (or x1,y1 x2,y2) pairs")
    pk.add_argument("--format", choices=("csv", "json"), default="csv")

    pv = _add_command(sub, "verify", "run a verification suite", cmd_verify,
                      _family_flag, _hexagon_flags)
    pv.add_argument("--suite", required=True)
    pv.add_argument("--N", type=int)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--expect-not-cd", action="store_true",
                    help="assert the reproducing-failure witness instead "
                         "of full CD behaviour")

    pp = _add_command(sub, "prob", "tiling point probabilities", cmd_prob,
                      _hexagon_flags)
    pp.add_argument("--points", nargs="*", help="x,y points")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        payload, code = args.func(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CDSurfaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if getattr(args, "format", "json") == "csv":
        text = _csv(payload)
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if args.output is None:
        sys.stdout.write(text)
        return code
    try:
        with open(args.output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
