import copy
import pickle
import re
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdsurface import (ExactOracle, HexagonModel, InvalidArgumentError,
                       KernelQuery, SingularSystemError, SizeGuardError,
                       WeightFamily, edge_weight,
                       lgv_partition_function, macmahon_count,
                       point_probability,
                       simplified_kernel_2x1, simplified_kernel_2x2,
                       simplified_kernel_general, uniform_scalar_kernel,
                       unit_circle_quadrature)
from cdsurface import mops, tiling
from conftest import enumerated_probability, path_systems

QN = 256


def model_2x1(**kw):
    base = dict(r=2, q=1, L=4, M=2, N=2,
                a=((1.0, 0.7),), b=((1.2, 0.5),))
    base.update(kw)
    return HexagonModel(**base)


def model_2x2(a, b):
    return HexagonModel(r=2, q=2, L=4, M=2, N=2, a=a, b=b)


def random_r2_model(rng, q, m, el):
    """r = 2 model with M = N = m and edge weights U(0.5, 2), a before b."""
    a = tuple(tuple(rng.uniform(0.5, 2.0, 2)) for _ in range(q))
    b = tuple(tuple(rng.uniform(0.5, 2.0, 2)) for _ in range(q))
    return HexagonModel(r=2, q=q, L=el, M=m, N=m, a=a, b=b)


def model_system(m, n):
    """`mops.mop_system` of the model's weight W(z) = z^(-(M+N)/r) A(z)^(L/q)
    on the unit circle, with W formed here from the period matrix A."""
    quad = unit_circle_quadrature(n)
    z = quad.nodes
    W = np.linalg.matrix_power(m.period_matrix(z), m.L // m.q)
    W = W * (z ** (-(m.M + m.N) // m.r))[:, None, None]
    N = m.N // m.r
    return mops.solve_mops(mops.compute_moments(quad, N, W), N)


# --- model validation and geometry --------------------------------------

def test_model_validation():
    with pytest.raises(InvalidArgumentError):
        HexagonModel(r=2, q=2, L=3, M=2, N=2,
                     a=((1, 1), (1, 1)), b=((1, 1), (1, 1)))  # L % q != 0
    with pytest.raises(InvalidArgumentError):
        HexagonModel.uniform(4, 1, 2, r=2)  # M % r != 0
    with pytest.raises(InvalidArgumentError):
        HexagonModel(r=1, q=1, L=2, M=1, N=1, a=((0.0,),), b=((1.0,),))
    with pytest.raises(InvalidArgumentError):
        HexagonModel(r=1, q=1, L=2, M=1, N=1, a=((np.nan,),), b=((1.0,),))
    with pytest.raises(InvalidArgumentError, match="hexagon a: "):
        HexagonModel(r=1, q=1, L=2, M=1, N=1, a=((1.0, 0.0),), b=((1.0,),))
    # an int field given a float or a bool is named when the model is built
    with pytest.raises(InvalidArgumentError, match="hexagon: parameter 'L'"):
        HexagonModel.uniform(4.0, 2, 2, r=2)
    with pytest.raises(InvalidArgumentError, match="hexagon: parameter 'q'"):
        HexagonModel.uniform(4, 2, 2, r=2, q=True)


def test_hexagon_geometry():
    m = HexagonModel.uniform(4, 2, 2)
    assert list(m.column_range(0)) == [0, 1]
    assert list(m.column_range(2)) == [0, 1, 2, 3]
    assert list(m.column_range(4)) == [2, 3]


def test_edge_weights_table():
    m = model_2x1()
    assert edge_weight(m, ((0, 0), (1, 0))) == 1.2   # b, row 0
    assert edge_weight(m, ((0, 1), (1, 1))) == 0.5   # b, row 1
    assert edge_weight(m, ((0, 0), (1, 1))) == 1.0   # a, row 0
    assert edge_weight(m, ((2, 1), (3, 2))) == 0.7   # a, row 1 (periodic)
    with pytest.raises(InvalidArgumentError):
        edge_weight(m, ((0, 0), (2, 0)))
    with pytest.raises(InvalidArgumentError):
        edge_weight(m, "nonsense")


def test_edge_weights_match_contour_formula(rng):
    # (2 pi i)^{-1} oint (A_ell(z))_{j k} z^{y1 - y2} dz / z recovers the
    # edge-weight table
    for m in (model_2x1(), model_2x2(((1.0, 2.0), (1.0, 1.0)),
                                     ((1.0, 2.0), (1.0, 1.0)))):
        quad = unit_circle_quadrature(64)
        for _ in range(20):
            x = int(rng.integers(0, 2 * m.q))
            y1 = int(rng.integers(0, 2 * m.r))
            delta = int(rng.integers(0, 2))
            y2 = y1 + delta
            expect = edge_weight(m, ((x, y1), (x + 1, y2)))
            j, k = y1 % m.r, y2 % m.r   # row = source, column = target
            m1, m2 = y1 // m.r, y2 // m.r
            val = quad.integrate(
                lambda z: m.transition(x, z)[..., j, k] * z ** (m1 - m2) / z) \
                / (2j * np.pi)
            assert abs(val - expect) < 1e-12


# --- exact oracle and brute-force enumeration ---------------------------

def q3_model():
    """q = 3 has column pairs x2 < x1 inside one period (x2 = 3k + 1,
    x1 = 3k + 2), whose chi product is the single factor A_x2."""
    rng = np.random.default_rng(3)
    return HexagonModel(r=1, q=3, L=6, M=2, N=2,
                        a=tuple((v,) for v in rng.uniform(0.5, 2, 3)),
                        b=tuple((v,) for v in rng.uniform(0.5, 2, 3)))


# every model the tests enumerate, with a q = 2 one of dyadic weights
ENUMERATED_MODELS = (
    HexagonModel.uniform(2, 1, 1), HexagonModel.uniform(4, 2, 2),
    HexagonModel.uniform(4, 2, 2, r=2), model_2x1(),
    model_2x1(L=2, a=((1.0, 0.7),), b=((1.2, 0.5),)),
    model_2x2(((1.0, 1.0), (1.0, 1.0)), ((1.0, 2.0), (1.5, 0.7))),
    model_2x2(((1.0, 2.0), (1.0, 1.0)), ((1.0, 2.0), (1.5, 0.7))),
    model_2x2(((1.0, 0.5), (2.0, 1.0)), ((0.25, 1.0), (1.5, 0.75))),
    q3_model())


def test_macmahon_counts():
    assert macmahon_count(2, 1, 1) == 2
    assert macmahon_count(4, 2, 2) == 20
    assert len(path_systems(HexagonModel.uniform(2, 1, 1))) == 2
    assert len(path_systems(HexagonModel.uniform(4, 2, 2))) == 20
    # det G of the exact oracle is the count itself, as an integer
    for L, M, N in ((2, 1, 1), (4, 2, 2), (6, 3, 3), (5, 2, 3), (8, 4, 4)):
        Z = ExactOracle(HexagonModel.uniform(L, M, N)).partition_function
        assert Z.denominator == 1 and Z == macmahon_count(L, M, N)
    # sizes no hexagon has are refused, as HexagonModel refuses them
    for L, M, N in ((1, 2, 2), (-1, 0, 0), (4.0, 2, 2), (4, 2, 0)):
        with pytest.raises(InvalidArgumentError, match="hexagon"):
            macmahon_count(L, M, N)


def test_path_system_invariants():
    systems = path_systems(model_2x1())
    m = model_2x1()
    for paths, weight in systems:
        for i, p in enumerate(paths):     # from start i to end i
            assert (p[0], p[-1]) == (i, m.M + i)
            assert all(p[x + 1] - p[x] in (0, 1) for x in range(m.L))
        for a, b in zip(paths, paths[1:]):
            assert all(ya < yb for ya, yb in zip(a, b))
        assert weight > 0


def test_partition_function_vs_lgv():
    for m in (model_2x1(),
              model_2x2(((1.0, 1.0), (1.0, 1.0)), ((1.0, 2.0), (1.5, 0.7)))):
        Z = sum(w for _, w in path_systems(m))
        assert abs(Fraction(lgv_partition_function(m)) - Z) <= 1e-10 * Z


@pytest.mark.parametrize("m", ENUMERATED_MODELS,
                         ids=lambda m: f"{m.L}-{m.M}-{m.N}-r{m.r}-q{m.q}")
def test_exact_oracle_equals_enumeration(m):
    # every single point and every pair, x1 < x2 and x1 > x2 included,
    # and the partition function: equal as Fractions
    systems = path_systems(m)
    oracle = ExactOracle(m)
    assert oracle.partition_function == sum(w for _, w in systems)
    for pts in [[pt] for pt in lattice(m)] + list(combinations(lattice(m), 2)):
        assert oracle.probability(pts) == enumerated_probability(
            systems, pts), pts
    # the exact route is a fresh oracle's probability
    assert point_probability(m, pts, "exact") == oracle.probability(pts)


def test_lgv_matches_exact_transfer_product():
    # det(t_0 ... t_{L-1}) in floats against the exact oracle's det G on
    # the floats' values
    for m in (model_2x1(), *ROUTE_MODELS,
              model_2x2(((1.0, 1.0), (1.0, 1.0)), ((1.0, 2.0), (1.5, 0.7))),
              random_r2_model(np.random.default_rng(1), 2, 4, 8),
              random_r2_model(np.random.default_rng(505), 2, 6, 12)):
        exact = ExactOracle(m).partition_function
        assert abs(Fraction(lgv_partition_function(m)) - exact) \
            <= Fraction(1e-12) * abs(exact)


def periodic_model(n):
    """The periodic r = 2, q = 1 model on the (2n, n, n) hexagon."""
    return HexagonModel(r=2, q=1, L=2 * n, M=n, N=n,
                        a=((1.0, 0.7),), b=((1.2, 0.5),))


def test_exact_oracle_guard(monkeypatch):
    # the guard admits the periodic model at N = 12 and refuses it at
    # N = 20 from the estimate alone, before any transfer matrix is built
    assert tiling.exact_cost(periodic_model(12)) <= tiling.EXACT_GUARD
    calls = Counter()
    monkeypatch.setattr(tiling, "transfer",
                        counting(calls, "transfer", tiling.transfer))
    for m in (periodic_model(20), HexagonModel.uniform(400, 200, 200)):
        with pytest.raises(SizeGuardError, match="exact oracle guard"):
            ExactOracle(m)
        with pytest.raises(SizeGuardError):
            point_probability(m, [(0, 0)], "exact")
    assert calls["transfer"] == 0


def test_exact_oracle_refuses_columns_outside_the_hexagon():
    # unchecked, a negative column reads the path products from the other
    # end by negative indexing (K(-1, 0, 0, 0) = 6, P((-1, 0)) = 1)
    oracle = ExactOracle(HexagonModel.uniform(4, 2, 2))
    for call in (partial(oracle.kernel, -1, 0, 0, 0),
                 partial(oracle.kernel, 0, 0, -1, 0),
                 partial(oracle.kernel, 5, 0, 0, 0),
                 partial(oracle.probability, [(-1, 0)])):
        with pytest.raises(InvalidArgumentError, match="outside"):
            call()
    # its points are checked as `point_probability` checks them: a
    # malformed point once raised a bare ValueError or TypeError, and a
    # repeated one gave probability 0
    model = oracle.model
    for points, match in (([(1, 2, 3)], "pair"), ([5], "pair"),
                          ([(1.5, 0)], "point coordinate"),
                          ([(1, 0), (1, 0)], "distinct")):
        for call in (oracle.probability,
                     partial(point_probability, model, route="exact")):
            with pytest.raises(InvalidArgumentError, match=match):
                call(points)


def entry_by_entry(oracle, x1, y1, x2, y2):
    """K(x1, y1, x2, y2) of the oracle's docstring, forming its row
    B[x2](y2, .) G^-1 for this entry alone."""
    r1, r2 = oracle.model.column_range(x1), oracle.model.column_range(x2)
    if y1 not in r1 or y2 not in r2:
        return Fraction(0)
    row = [sum((b * g for b, g in zip(oracle.B[x2][y2 - r2.start], col)),
               Fraction(0)) for col in zip(*oracle.Ginv)]
    out = sum(u * f[y1 - r1.start] for u, f in zip(row, oracle.F[x1]))
    if x1 > x2:
        chi = [Fraction(int(y == y2)) for y in r2]
        for t in oracle.ts[x2:x1]:
            chi = [sum((c * v for c, v in zip(chi, col)), Fraction(0))
                   for col in zip(*t)]
        out -= chi[y1 - r1.start]
    return out


def test_exact_rows_formed_once_per_point(monkeypatch):
    # entries (every pair, on the enumerated models) and k-point
    # probabilities are the entry-by-entry Fractions, with heights outside
    # their columns and x1 <, =, > x2, and a probability forms each of
    # its k points' rows once
    rows = Counter()
    monkeypatch.setattr(ExactOracle, "_row",
                        counting(rows, "row", ExactOracle._row))
    rng = np.random.default_rng(7)
    for m in ENUMERATED_MODELS + (periodic_model(4),):
        oracle = ExactOracle(m)
        cells = lattice(m) + [(0, -1), (m.L, m.M + m.N)]
        pairs = product(cells, repeat=2) if m in ENUMERATED_MODELS else ()
        for a, b in pairs:
            assert oracle.kernel(*a, *b) == entry_by_entry(oracle, *a, *b)
        for k in (1, 2, 3, 4):
            idx = rng.choice(len(cells), min(k, len(cells)), replace=False)
            pts = [cells[i] for i in idx]
            rows.clear()
            p = oracle.probability(pts)
            assert rows["row"] == len(pts)
            assert p == tiling._fraction_gauss_jordan([[
                entry_by_entry(oracle, *a, *b) for b in pts]
                for a in pts])[0], pts


def test_exact_pins_on_seed_505():
    # the strict xfail's model: the entry K(12, 9, 0, 2) from the start
    # (0, 2) to the end (12, 9) is exactly 0, and a path passes through
    # both with probability exactly 1.  The float route's kernel is the
    # oracle's up to rounding (see test_dk_entries_match_exact_kernel);
    # on this model the zero reads 1.4e-8 at n = 128, the strict xfail's
    # defect
    m = random_r2_model(np.random.default_rng(505), 2, 6, 12)
    oracle = ExactOracle(m)
    pts = [(0, 2), (12, 9)]
    assert oracle.kernel(12, 9, 0, 2) == 0
    assert oracle.probability(pts) == Fraction(1)
    ev = tiling.dk_evaluator(m, 128)
    assert abs(ev.scalar(12, 9, 0, 2)) < 1e-7
    assert abs(point_probability(m, pts, n=128) - 1) < 1e-8


# --- DK kernel vs oracle ------------------------------------------------

def test_uniform_kernel_matches_scalar_form():
    L, M, N = 4, 2, 2
    m = HexagonModel.uniform(L, M, N)
    ev = tiling.dk_evaluator(m, QN)
    for x1, y1, x2, y2 in [(1, 0, 1, 0), (1, 1, 2, 1), (2, 0, 3, 2),
                           (3, 2, 1, 0)]:
        a = ev.scalar(x1, y1, x2, y2)
        b = uniform_scalar_kernel(L, M, N, x1, y1, x2, y2, QN)
        assert abs(a - b) < 1e-8


def test_uniform_scalar_kernel_rejects_bad_arguments():
    # unchecked, a column outside [0, L] gives 4.8e123; a hexagon size
    # HexagonModel refuses or a non-integer coordinate is refused too
    for args, match in (((4, 2, 2, -3, 0, 9, 0), "column -3"),
                        ((4, 2, 2, 1, 0, 5, 0), "column 5"),
                        ((1, 2, 2, 0, 0, 1, 0), "L >= M"),
                        ((4, 2.0, 2, 1, 0, 1, 0), "parameter 'M'"),
                        ((4, 2, 2, 1, 0.5, 1, 0), "point coordinate")):
        with pytest.raises(InvalidArgumentError, match=match):
            uniform_scalar_kernel(*args, n=64)


@pytest.mark.parametrize("hexagon, point, least", [
    ((4, 2, 2), (1, 1, 1, 1), 4), ((8, 4, 4), (3, 4, 2, 3), 8)])
def test_uniform_scalar_kernel_refuses_too_few_nodes(hexagon, point, least):
    # one node below the trapezoid bound gave 0.5454... for 0.6 and
    # -0.00421 for -0.021645, silently; at the bound it is the oracle's
    assert least == least_node_count(HexagonModel.uniform(*hexagon))
    with pytest.raises(InvalidArgumentError, match=f"n >= {least}$"):
        uniform_scalar_kernel(*hexagon, *point, n=least - 1)
    exact = ExactOracle(HexagonModel.uniform(*hexagon)).kernel(*point)
    assert abs(uniform_scalar_kernel(*hexagon, *point, n=least)
               - float(exact)) < 1e-12


def test_dk_entries_match_exact_kernel():
    # no gauge separates the contour kernel from the Eynard-Mehta one:
    # every entry, over all pairs of lattice points (x1 <, =, > x2),
    # is the oracle's to 1e-12 max(1, |K|) (measured worst 1.4e-14)
    same = ((1.0, 2.0), (1.0, 1.0))
    for m in (HexagonModel.uniform(4, 2, 2),
              HexagonModel.uniform(4, 2, 2, r=2), model_2x1(),
              model_2x1(L=6), model_2x2(same, same)):
        oracle, points = ExactOracle(m), lattice(m)
        exact = np.array([[float(oracle.kernel(*a, *b)) for b in points]
                          for a in points])
        got = tiling.DKEvaluator(m, QN).point_matrix(points)
        assert np.all(np.abs(got - exact) <= 1e-12 * np.maximum(
            1, np.abs(exact))), m


def test_probabilities_match_exact(rng):
    for m in (HexagonModel.uniform(2, 1, 1), HexagonModel.uniform(4, 2, 2),
              model_2x1(L=2, a=((1.0, 0.7),), b=((1.2, 0.5),))):
        oracle = ExactOracle(m)
        singles = lattice(m)
        for pt in singles:
            d = point_probability(m, [pt], "determinant", QN)
            assert abs(d - oracle.probability([pt])) < 1e-8
            assert -1e-9 <= d <= 1 + 1e-9
        for _ in range(10):
            idx = rng.choice(len(singles), 2, replace=False)
            pts = [singles[i] for i in idx]
            d = point_probability(m, pts, "determinant", QN)
            assert abs(d - oracle.probability(pts)) < 1e-8


def test_column_sums_equal_N():
    for m in (HexagonModel.uniform(4, 2, 2), model_2x1()):
        for x in range(m.L + 1):
            total = sum(tiling.column_probabilities(m, x, n=QN).values())
            assert abs(total - m.N) < 1e-7


def test_column_probabilities_match_point_probability():
    for m in (model_2x1(),
              model_2x2(((1.0, 2.0), (1.0, 1.0)), ((1.0, 2.0), (1.0, 1.0)))):
        for x in range(m.L + 1):
            col = tiling.column_probabilities(m, x, n=QN)
            assert list(col) == list(m.column_range(x))
            for y, p in col.items():
                assert abs(p - point_probability(m, [(x, y)], n=QN)) < 1e-12


def test_column_probabilities_column_outside_hexagon():
    for m, xs in ((HexagonModel.uniform(2, 1, 1), (-1, 3, 5)),
                  (HexagonModel.uniform(4, 2, 2), (-1, 5, 7))):
        ev = tiling.DKEvaluator(m, QN)
        for x in xs + (-m.N, m.L + m.N):    # the last two: no heights
            with pytest.raises(InvalidArgumentError):
                tiling.column_probabilities(m, x, n=QN)
            with pytest.raises(InvalidArgumentError):
                ev.density(x)
        assert not ev.densities


def test_point_outside_column_range_has_probability_zero(monkeypatch):
    # a height outside the column's range carries no path: the
    # determinant route returns 0.0 exactly, as the exact route does, and
    # evaluates no block, whose rounding could make it negative
    m = HexagonModel.uniform(4, 2, 2, r=2)
    calls = Counter()
    monkeypatch.setattr(tiling, "_query_block",
                        counting(calls, "block", tiling._query_block))
    monkeypatch.setattr(tiling.mops, "moments",
                        counting(calls, "moments", tiling.mops.moments))
    for pt in ((4, 5), (1, 9), (1, -1)):
        for pts in ([pt], [(2, 1), pt]):
            p = point_probability(m, pts, "determinant", 64)
            assert p == 0.0 and not np.signbit(p), pts
            assert point_probability(m, pts, "exact") == 0
    assert not calls


def test_column_densities_kept_on_evaluator(monkeypatch):
    # a cold column projects its moments once per side and forms only the
    # diagonal cells of its block heights; a warm one projects nothing
    m = random_r2_model(np.random.default_rng(11), 2, 6, 12)
    calls = Counter()
    monkeypatch.setattr(tiling, "_query_block",
                        counting(calls, "cell", tiling._query_block))
    monkeypatch.setattr(tiling.mops, "moments",
                        counting(calls, "moments", tiling.mops.moments))
    tiling._dk_evaluator.cache_clear()
    cold = []
    for x in range(m.L + 1):
        calls.clear()
        cold.append(tiling.column_probabilities(m, x, n=128))
        assert calls == {"moments": 2, "cell": len(block_heights(m, x))}, x
    calls.clear()
    warm = [tiling.column_probabilities(m, x, n=128) for x in range(m.L + 1)]
    assert not calls
    for x, col in enumerate(warm):
        tiling._dk_evaluator.cache_clear()
        fresh = tiling.column_probabilities(m, x, n=128)
        assert col == cold[x] == fresh, x
        assert np.array_equal(list(col.values()), list(fresh.values())), x


def test_column_probabilities_returns_a_copy():
    m = model_2x1()
    col = tiling.column_probabilities(m, 2, n=QN)
    kept = dict(col)
    col[0] = -1.0
    del col[1]
    col[99] = 5.0
    assert tiling.column_probabilities(m, 2, n=QN) == kept


@pytest.mark.xfail(strict=True, reason="known defect: K(12,9,0,2) reads "
                   "1.4e-8 where it is 0, so p = 1 + 1.41e-9")
def test_point_probability_within_unit_interval_r2_q2_hexagon():
    m = random_r2_model(np.random.default_rng(505), 2, 6, 12)
    p = point_probability(m, [(0, 2), (12, 9)], n=128)
    assert 0 <= p <= 1 + 1e-9


def test_pair_probabilities_q3_within_one_period():
    # the chi product of x2 < x1 inside one period is the single factor
    # A_x2 (see q3_model); the reference is the enumerated measure
    m = q3_model()
    systems = path_systems(m)
    for pts in combinations(lattice(m), 2):
        exact = enumerated_probability(systems, pts)
        assert abs(point_probability(m, pts, n=128) - exact) < 1e-12, pts


def test_point_probability_edge_cases():
    m = HexagonModel.uniform(2, 1, 1)
    assert point_probability(m, []) == 1.0
    with pytest.raises(InvalidArgumentError):
        point_probability(m, [(1, 0), (1, 0)])
    with pytest.raises(InvalidArgumentError):
        point_probability(m, [(5, 0)])
    # a coordinate must be an integer, on either route; a numpy integer is
    m = HexagonModel.uniform(4, 2, 2)
    for pts in ([(2, 0.7)], [(2, 1.0)], [(2.5, 1)], [(True, 1)], [(2, None)]):
        for route in ("determinant", "exact"):
            with pytest.raises(InvalidArgumentError, match="point coordinate"):
                point_probability(m, pts, route)
    # and a point must be a pair
    for pts in ([(1, 2, 3)], [(1,)], [5]):
        for route in ("determinant", "exact"):
            with pytest.raises(InvalidArgumentError, match="point .* pair"):
                point_probability(m, pts, route)
    pts = [(np.int64(2), np.int32(1)), [1, np.int64(0)]]
    assert point_probability(m, pts, n=QN) == point_probability(
        m, [(2, 1), (1, 0)], n=QN)
    assert point_probability(m, pts, "exact") == point_probability(
        m, [(2, 1), (1, 0)], "exact")
    # so must the node count, also when an evaluator of the equal int
    # (QN for None) is cached; True's equal int, 1, is below every
    # model's least node count, so no evaluator of it is ever cached
    for n in (QN + 0.0, True, None):
        if n is not True:
            point_probability(model_2x1(), [(2, 1)], n=int(n or QN))
        with pytest.raises(InvalidArgumentError,
                           match="node count n must be an integer"):
            point_probability(model_2x1(), [(2, 1)], n=n)


def test_numpy_integer_n_shares_the_evaluator():
    # an int and a numpy integer n are one cache key, also through
    # point_probability; a float or a bool n raises before the cache.
    # The model keeps a weak reference per int n, which answers the int
    # calls after the first, so only the three numpy-integer calls reach
    # the LRU and hit it
    m = model_2x1()
    tiling._dk_evaluator.cache_clear()
    ev = tiling.dk_evaluator(m, 128)
    assert tiling.dk_evaluator(m, np.int64(128)) is ev
    assert tiling.dk_evaluator(m, np.int32(128)) is ev
    assert point_probability(m, [(2, 1)], n=np.int64(128)) \
        == point_probability(m, [(2, 1)], n=128)
    info = tiling._dk_evaluator.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 3, 1)
    assert [(type(k), k) for k in m._evaluators] == [(int, 128)]
    assert m._evaluators[128]() is ev
    for n in (128.0, True):
        message = re.escape(f"node count n must be an integer, got {n!r}")
        with pytest.raises(InvalidArgumentError, match=message):
            tiling.dk_evaluator(m, n)
        with pytest.raises(InvalidArgumentError, match=message):
            point_probability(m, [(2, 1)], n=n)
    assert tiling._dk_evaluator.cache_info().misses == 1


# --- point matrix -------------------------------------------------------

def lattice(m):
    return [(x, y) for x in range(m.L + 1) for y in m.column_range(x)]


def assert_point_matrix_matches_scalar(ev, points):
    """Every entry of the point matrix is K(x_i, y_i, x_j, y_j) of its own
    single-height block, bit for bit."""
    mat = ev.point_matrix(points)
    ref = np.array([[ev.scalar(xi, yi, xj, yj) for xj, yj in points]
                    for xi, yi in points])
    assert mat.shape == ref.shape
    assert np.array_equal(mat, ref)
    return ref


@st.composite
def models_and_points(draw):
    """A random r = 2 model with M = N = 2 and 1..4 distinct points."""
    q = draw(st.sampled_from((1, 2)))
    el = draw(st.sampled_from((4, 6)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    m = random_r2_model(np.random.default_rng(seed), q, 2, el)
    points = draw(st.lists(st.sampled_from(lattice(m)), min_size=1,
                           max_size=4, unique=True))
    return m, points


# a same-column pair, and x_i > x_j both ways round
@example((random_r2_model(np.random.default_rng(1), 2, 2, 4),
          [(2, 1), (2, 2), (0, 0), (4, 3)]))
@settings(deadline=None, max_examples=40)
@given(models_and_points())
def test_point_matrix_matches_per_entry_kernel(case):
    m, points = case
    assert_point_matrix_matches_scalar(tiling.DKEvaluator(m, 128), points)


SEED_505 = random_r2_model(np.random.default_rng(505), 2, 6, 12)


@example([(0, 2), (12, 9)])     # the pair of the strict xfail
@example([(12, 9), (0, 2), (5, 4), (5, 6)])
@settings(deadline=None, max_examples=40)
@given(st.lists(st.sampled_from(lattice(SEED_505)), min_size=1,
                max_size=4, unique=True))
def test_point_probability_is_det_of_per_entry_matrix(points):
    ev = tiling.dk_evaluator(SEED_505, 128)
    ref = assert_point_matrix_matches_scalar(ev, points)
    assert point_probability(SEED_505, points, n=128) == \
        float(np.linalg.det(ref).real)


# --- kernel-route equality ----------------------------------------------

def window_queries():
    return [KernelQuery(x1, y1, x2, y2)
            for x1 in (1, 2, 3) for x2 in (1, 2, 3)
            for y1 in (-1, 0, 1) for y2 in (-1, 0, 2)]


def max_route_diff(model, routes, queries=None):
    diffs = {name: 0.0 for name in routes}
    for q in queries or window_queries():
        base = tiling.dk_kernel(model, q, QN)
        for name, fn in routes.items():
            diffs[name] = max(diffs[name],
                              float(np.max(np.abs(fn(q) - base))))
    return diffs


def test_routes_uniform_r2():
    m = HexagonModel.uniform(4, 2, 2, r=2)
    routes = {
        "sheets": lambda q: simplified_kernel_general(m, q, "sheets", QN),
        "plane": lambda q: simplified_kernel_general(m, q, "plane", QN),
    }
    diffs = max_route_diff(m, routes)
    assert all(d < 1e-7 for d in diffs.values()), diffs


def test_routes_2x1_generic():
    m = model_2x1(L=2)
    routes = {
        "sheets": lambda q: simplified_kernel_general(m, q, "sheets", QN),
        "plane": lambda q: simplified_kernel_general(m, q, "plane", QN),
        "explicit": lambda q: simplified_kernel_2x1(m, q, QN),
    }
    qs = [KernelQuery(x1, y1, x2, y2)
          for x1 in (1, 2) for x2 in (1, 2)
          for y1 in (-1, 0, 1) for y2 in (0, 1, 2)]
    diffs = max_route_diff(m, routes, qs)
    assert all(d < 1e-7 for d in diffs.values()), diffs


def test_routes_2x1_degenerate_b():
    m = model_2x1(L=2, a=((1.0, 1.0),), b=((1.0, 1.0),))
    q = KernelQuery(1, 0, 1, 1)
    base = tiling.dk_kernel(m, q, QN)
    assert np.max(np.abs(simplified_kernel_2x1(m, q, QN) - base)) < 1e-7


def test_routes_2x2_both_cases():
    cases = [
        # a_- = 0 (all a equal)
        model_2x2(((1.0, 1.0), (1.0, 1.0)), ((1.0, 2.0), (1.5, 0.7))),
        # a_- != 0
        model_2x2(((1.0, 2.0), (1.0, 1.0)), ((1.0, 2.0), (1.0, 1.0))),
    ]
    qs = [KernelQuery(1, 0, 1, 0), KernelQuery(1, 1, 2, 0),
          KernelQuery(2, 0, 3, 1), KernelQuery(3, 1, 1, -1)]
    for m in cases:
        routes = {
            "sheets": lambda q, m=m: simplified_kernel_general(
                m, q, "sheets", QN),
            "plane": lambda q, m=m: simplified_kernel_general(
                m, q, "plane", QN),
            "explicit": lambda q, m=m: simplified_kernel_2x2(m, q, QN),
        }
        diffs = max_route_diff(m, routes, qs)
        assert all(d < 1e-7 for d in diffs.values()), diffs


def test_batched_heights_match_single_queries():
    # heights reach below 0 and past the column range (block heights 0, 1)
    y1s, y2s = np.array([-2, -1, 0, 1, 2, 3]), np.array([-1, 0, 1, 2, 4])
    cases = [(model_2x1(), simplified_kernel_2x1),
             (model_2x2(((1.0, 2.0), (1.0, 1.0)), ((1.0, 2.0), (1.0, 1.0))),
              simplified_kernel_2x2)]
    for m, explicit in cases:
        routes = {
            "dk": lambda q, m=m: tiling.dk_kernel(m, q, QN),
            "sheets": lambda q, m=m: simplified_kernel_general(
                m, q, "sheets", QN),
            "plane": lambda q, m=m: simplified_kernel_general(
                m, q, "plane", QN),
            "explicit": lambda q, m=m, f=explicit: f(m, q, QN),
        }
        for name, fn in routes.items():
            for x1, x2 in ((1, 3), (2, 2), (3, 1)):
                batch = fn(KernelQuery(x1, y1s, x2, y2s))
                assert batch.shape == (len(y2s), len(y1s), 2, 2)
                for i, y2 in enumerate(y2s):
                    for j, y1 in enumerate(y1s):
                        one = fn(KernelQuery(x1, int(y1), x2, int(y2)))
                        assert np.array_equal(batch[i, j], one), \
                            (name, x1, x2, y1, y2)
                row = fn(KernelQuery(x1, y1s, x2, int(y2s[0])))
                assert row.shape == (len(y1s), 2, 2)
                assert np.array_equal(row, batch[0]), (name, x1, x2)


# --- route data kept on the evaluator -----------------------------------

ROUTES = {
    "dk": lambda m, q, n=QN: tiling.dk_kernel(m, q, n),
    "sheets": lambda m, q, n=QN: simplified_kernel_general(m, q, "sheets", n),
    "plane": lambda m, q, n=QN: simplified_kernel_general(m, q, "plane", n),
    "explicit": lambda m, q, n=QN: (simplified_kernel_2x1 if m.q == 1
                                    else simplified_kernel_2x2)(m, q, n),
}
ROUTE_MODELS = (model_2x1(),
                model_2x2(((1.0, 2.0), (1.0, 1.0)), ((1.0, 2.0), (1.0, 1.0))))


def test_warm_route_matches_fresh_route():
    heights = ((0, 1), (2, -1), (np.array([-1, 0, 2]), np.array([0, 1])))
    queries = [KernelQuery(x1, y1, x2, y2)
               for x1, x2 in ((0, 4), (1, 3), (2, 2), (3, 1), (4, 0), (3, 2))
               for y1, y2 in heights]
    for m in ROUTE_MODELS:
        for name, fn in ROUTES.items():
            tiling._dk_evaluator.cache_clear()
            for q in queries:
                fn(m, q)
            warm = [fn(m, q) for q in queries]
            for q, blk in zip(queries, warm):
                tiling._dk_evaluator.cache_clear()
                assert np.array_equal(fn(m, q), blk), (name, q)


def counting(calls, name, fn):
    """fn, counting its calls in calls[name]."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_route_data_built_once_per_evaluator(monkeypatch):
    calls = Counter()
    counted = partial(counting, calls)
    monkeypatch.setattr(tiling.sops, "scalar_moments",
                        counted("solve", tiling.sops.scalar_moments))
    monkeypatch.setattr(tiling, "build_chart",
                        counted("chart", tiling.build_chart))
    monkeypatch.setattr(WeightFamily, "point",
                        counted("point", WeightFamily.point))
    tiling._dk_evaluator.cache_clear()
    queries = [KernelQuery(x1, 0, x2, 1) for x1 in range(5) for x2 in (1, 3)]
    for n in (QN, 128):
        for m in ROUTE_MODELS:
            for fn in ROUTES.values():
                for q in queries:
                    fn(m, q, n)
    # the sheet route reads the family at one curve point per sheet
    pairs = 2 * len(ROUTE_MODELS)
    assert calls == {"solve": pairs, "chart": pairs, "point": 2 * pairs}


def test_route_memo_holds_no_identity():
    m = random_r2_model(np.random.default_rng(11), 2, 6, 12)
    half = (m.M + m.N) // m.r
    # the exponents queried on each side: y2 - h on the left, -y1 - 1 and
    # the chi integrand's y2 - y1 - 1 on the right, for the queries below
    lefts, rights = {2 - half}, {-2, 0}
    for x in range(m.L + 1):
        tiling.column_probabilities(m, x, n=128)
        heights = block_heights(m, x)
        lefts |= {y - half for y in heights}
        rights |= {-y - 1 for y in heights}
    for x1 in range(m.L + 1):
        for x2 in range(m.L + 1):
            tiling.dk_kernel(m, KernelQuery(x1, 1, x2, 2), 128)
    route = tiling.dk_evaluator(m, 128).route("dk")
    assert len(route.memo) <= m.L // m.q + 1
    # one weighted node power per exponent queried on its side
    assert route.weighted[0].keys() == lefts
    assert route.weighted[1].keys() == rights


def test_warm_blocks_match_fresh_evaluator(rng):
    # every column pair (x1 <, =, > x2), int heights and height arrays;
    # one evaluator answers every query twice, in two orders, and each
    # block equals the first block of a fresh evaluator, bit for bit
    n = 128
    heights = ((0, 1), (np.array([-1, 0, 2]), np.array([1, 0])),
               (np.array([2, 0, -1]), np.array([0, 1])))
    for m in ROUTE_MODELS:
        queries = [KernelQuery(x1, y1, x2, y2) for x1 in range(m.L + 1)
                   for x2 in range(m.L + 1) for y1, y2 in heights]
        fresh = []
        for q in queries:
            ev = tiling.DKEvaluator(m, n)
            fresh.append({form: tiling._query_block(ev.route(form), q)
                          for form in ROUTES})
        ev = tiling.DKEvaluator(m, n)
        order = list(range(len(queries)))
        for i in order + order[::-1]:
            for form, blk in fresh[i].items():
                assert np.array_equal(
                    tiling._query_block(ev.route(form), queries[i]), blk
                ), (form, queries[i])
        # the kernel points: the nodes, phi on gamma_C, and zeta itself
        _, quad, phi = ev.chart_nodes[:3]
        at = {"dk": ev.quad.nodes, "sheets": ev.quad.nodes, "plane": phi,
              "explicit": quad.nodes}
        for form in ROUTES:
            route = ev.route(form)
            s = len(route.flat) // len(route.rows)
            left, right = (rng.standard_normal(shape + (2,)) @ [1, 1j]
                           for shape in ((n, 3, m.r, s), (n, s, 2, m.r)))
            # the pairing of the moments on the route's own rows
            pairing = (mops.moments(route.rows, left[None], 0)[0]
                       @ (route.flat
                          @ mops.moments(route.rows, right[None], 1)[0]))
            assert np.array_equal(
                mops.kernel_integral(route.flat, at[form], left, at[form],
                                     right),
                pairing.reshape(left.shape[1:-1] + right.shape[2:])), form
        dk, sheets = ev.route("dk"), ev.route("sheets")
        assert sheets.rows is dk.rows and sheets.flat is dk.flat


def test_query_height_types_give_the_same_blocks():
    # an int, a numpy integer and a 0-d array are one height; a list and a
    # 1-D array are a height axis, of length one too.  On every route the
    # same heights give the same blocks, bit for bit, whatever carries them
    singles = (int, np.int64, np.array)
    axes = (list, np.array)
    for m in ROUTE_MODELS:
        for form, fn in ROUTES.items():
            for x1, x2 in ((3, 1), (1, 3), (2, 2)):
                one = fn(m, KernelQuery(x1, 0, x2, 1), 128)
                assert one.shape == (m.r, m.r)
                for t1, t2 in product(singles, singles):
                    blk = fn(m, KernelQuery(x1, t1(0), x2, t2(1)), 128)
                    assert np.array_equal(blk, one), (form, t1, t2)
                for t1, t2 in product(axes, axes):
                    blk = fn(m, KernelQuery(x1, t1([0]), x2, t2([1])), 128)
                    assert np.array_equal(blk, one[None, None]), form
                    y1s, y2s = t1([-1, 0, 2]), t2([1, 0])
                    blk = fn(m, KernelQuery(x1, y1s, x2, y2s), 128)
                    assert np.array_equal(blk, fn(m, KernelQuery(
                        x1, np.array([-1, 0, 2]), x2, [1, 0]), 128)), form
                    assert blk.shape == (2, 3, m.r, m.r)
                for t1, t2 in product(singles, axes):
                    # a height and an axis, on either side
                    for q in (KernelQuery(x1, t1(0), x2, t2([1])),
                              KernelQuery(x1, t2([0]), x2, t1(1))):
                        assert np.array_equal(fn(m, q, 128), one[None]), form
    # a bool or a float, alone or in an array, a 2-D or an empty array of
    # heights and an array column are refused when the query is made, not
    # truncated
    good = dict(x1=3, y1=0, x2=1, y2=1)
    for bad in ({"y1": 0.7}, {"y1": 1.0}, {"y2": True}, {"y2": np.float64(1)},
                {"y1": [0, 1.5]}, {"y1": np.array([0.0])},
                {"y2": np.zeros((1, 1), int)}, {"x1": 2.5}, {"x2": True},
                {"x2": np.array([1, 2])}, {"y1": np.array([], int)},
                {"y2": []}):
        with pytest.raises(InvalidArgumentError, match="KernelQuery"):
            KernelQuery(**{**good, **bad})


def block_heights(m, x):
    """The block heights y // r of column x."""
    ys = m.column_range(x)
    return range(ys[0] // m.r, ys[-1] // m.r + 1)


def test_all_pairs_sweep_keeps_one_moment_per_column_height():
    # every pair of lattice points, the column densities and a grid with
    # repeated heights: each side keeps exactly one moment per (column,
    # block height) queried on it, of N/r r s numbers
    for m in ROUTE_MODELS:
        ev = tiling.DKEvaluator(m, 128)
        cells = {(x, y) for x in range(m.L + 1) for y in block_heights(m, x)}
        for form in ROUTES:
            route = ev.route(form)
            for (x1, y1), (x2, y2) in product(cells, repeat=2):
                tiling._query_block(route, KernelQuery(x1, y1, x2, y2))
            for x in range(m.L + 1):
                heights = np.array(block_heights(m, x))
                tiling._query_block(route, KernelQuery(x, heights, x,
                                                       heights))
            tiling._query_block(route, KernelQuery(1, np.array([0, 0]), 3,
                                                   np.array([1, 0])))
            s = len(route.flat) // len(route.rows)
            size = len(route.rows) * s
            for k, shape in enumerate(((m.r, size), (size, m.r))):
                memo = route.moments[k]
                assert memo.keys() == cells, (form, k)
                assert all(v.shape == shape for v in memo.values()), form


def test_stacked_moments_are_their_heights_entries():
    # a column's heights projected as one stack, a repeated height among
    # them, give each (column, height) entry the bits of that height
    # alone, as a fresh route forms it: the projection of its factor
    # alone (a stack of one, as `mops.kernel_integral` projects), times
    # the kernel coefficients on the right
    groups = [(0, [1]), (2, [-1, 0, 2]), (3, [0]), (4, [2, 1, 2])]
    for m in ROUTE_MODELS:
        ev, fresh = tiling.DKEvaluator(m, 128), tiling.DKEvaluator(m, 128)
        for form in ROUTES:
            route = ev.route(form)
            for k in (0, 1):
                memo = route.moments[k]
                for x, ys in groups:
                    tiling._moments(route, k, x, ys)
                assert memo.keys() == {(x, y) for x, ys in groups
                                       for y in ys}, (form, k)
                for x, ys in groups:
                    for y in ys:
                        route1 = fresh.route(form)
                        alone = mops.moments(route1.rows, np.moveaxis(
                            tiling._factor(route1, k, x, [y]), 1, 0), k)[0]
                        if k:
                            alone = route1.flat @ alone
                        assert np.array_equal(memo[x, y], alone), \
                            (form, k, x, y)


def test_warm_single_cell_block_is_one_product_of_fresh_moments():
    # a warm single-cell block is U @ (C @ V) of fresh `mops.moments`, bit
    # for bit, minus its chi integral where x1 > x2, on every route
    for m in ROUTE_MODELS:
        ev = tiling.DKEvaluator(m, 128)
        cells = [(x, y) for x in range(m.L + 1) for y in block_heights(m, x)]
        for form in ROUTES:
            route = ev.route(form)
            for (x1, y1), (x2, y2) in product(cells, repeat=2):
                tiling._query_block(route, KernelQuery(x1, y1, x2, y2))
            fresh = tiling.DKEvaluator(m, 128).route(form)
            for (x1, y1), (x2, y2) in product(cells, repeat=2):
                U, V = (mops.moments(fresh.rows, np.moveaxis(
                    tiling._factor(fresh, k, x, [y]), 1, 0), k)[0]
                    for k, (x, y) in enumerate(((x2, y2), (x1, y1))))
                want = U @ (fresh.flat @ V)      # (r, r): one height a side
                if x1 > x2:
                    want = want - tiling._chi_integral(fresh, x1, x2, y2 - y1)
                got = tiling._query_block(route, KernelQuery(x1, y1, x2, y2))
                assert np.array_equal(got, want), (form, x1, y1, x2, y2)


def test_single_cell_path_gives_the_grid_path_bits():
    # every cell pair on every route: a cold block (a fresh evaluator per
    # cell) equals the warm one, and the warm one equals the block of
    # numpy integer heights and the one block of one-height arrays, which
    # take the grid path, bit for bit
    for m in ROUTE_MODELS:
        cells = [(x, y) for x in range(m.L + 1) for y in block_heights(m, x)]
        pairs = list(product(cells, repeat=2))
        for form, fn in ROUTES.items():
            cold = []
            for (x1, y1), (x2, y2) in pairs:
                tiling._dk_evaluator.cache_clear()
                cold.append(fn(m, KernelQuery(x1, y1, x2, y2), 128))
            for (x1, y1), (x2, y2) in pairs:
                fn(m, KernelQuery(x1, y1, x2, y2), 128)
            for ((x1, y1), (x2, y2)), blk in zip(pairs, cold):
                warm = fn(m, KernelQuery(x1, y1, x2, y2), 128)
                assert warm.shape == (m.r, m.r)
                assert np.array_equal(warm, blk), (form, x1, y1, x2, y2)
                grid = fn(m, KernelQuery(x1, [y1], x2, [y2]), 128)
                assert np.array_equal(warm, grid[0, 0]), form
                typed = KernelQuery(x1, np.int64(y1), x2, np.int64(y2))
                assert np.array_equal(fn(m, typed, 128), warm), form


def test_single_cell_block_is_the_callers_own():
    # a single cell's block, cold or warm, is a new writeable array:
    # editing it leaves the next call's block as it was, and the memos it
    # was read from stay read-only
    for m in ROUTE_MODELS:
        for form, fn in ROUTES.items():
            tiling._dk_evaluator.cache_clear()
            for x1, x2 in ((3, 1), (1, 3), (2, 2)):
                query = KernelQuery(x1, 0, x2, 1)
                blocks = [fn(m, query, 128) for _ in range(2)]
                want = blocks[0].copy()
                for blk in blocks:
                    assert blk.flags.writeable, form
                    blk[...] = 7
                    assert np.array_equal(fn(m, query, 128), want), form
            route = tiling.dk_evaluator(m, 128).route(form)
            for memo in (*route.moments, route.chis):
                assert memo, form
                assert not any(a.flags.writeable for a in memo.values())


def test_warm_single_cell_makes_no_projection(monkeypatch):
    # a cold single cell projects its left and its right moment, one each,
    # and takes no grid path; a warm one reads them and projects nothing
    calls = Counter()
    monkeypatch.setattr(tiling, "_grid_block",
                        counting(calls, "grid", tiling._grid_block))
    monkeypatch.setattr(tiling.mops, "moments",
                        counting(calls, "moments", tiling.mops.moments))
    queries = (KernelQuery(3, 0, 1, 1), KernelQuery(1, 2, 3, 0),
               KernelQuery(2, 1, 2, 1))
    for m in ROUTE_MODELS:
        for form, fn in ROUTES.items():
            tiling._dk_evaluator.cache_clear()
            for query in queries:
                calls.clear()
                fn(m, query, 128)
                assert calls == {"moments": 2}, (form, query)
                for _ in range(2):
                    calls.clear()
                    fn(m, query, 128)
                    assert not calls, (form, query)


# --- evaluator lookup ---------------------------------------------------

def route_model_calls(m, n=QN):
    """One query on every route of m, through the public functions."""
    q = KernelQuery(3, 1, 1, 0)
    return {name: fn(m, q, n) for name, fn in ROUTES.items()}


def test_warm_calls_neither_hash_nor_compare_the_model(monkeypatch):
    # a warm call finds its evaluator through the model's own weak
    # reference, so no HexagonModel.__hash__ or __eq__ runs, and its
    # blocks are those of a fresh evaluator, bit for bit
    calls = Counter()
    for name in ("__hash__", "__eq__"):
        monkeypatch.setattr(HexagonModel, name,
                            counting(calls, name, getattr(HexagonModel, name)))
    tiling._dk_evaluator.cache_clear()
    for m in (model_2x1(), ROUTE_MODELS[1]):
        route_model_calls(m)
        calls.clear()
        warm = route_model_calls(m)
        assert not calls, calls
        q = KernelQuery(3, 1, 1, 0)
        for form, blk in warm.items():
            fresh = tiling.DKEvaluator(m, QN).route(form)
            assert np.array_equal(blk, tiling._query_block(fresh, q)), form


def test_evaluator_rebuilt_once_no_caller_holds_it(monkeypatch):
    calls = Counter()
    monkeypatch.setattr(tiling.DKEvaluator, "__init__", counting(
        calls, "build", tiling.DKEvaluator.__init__))
    m = HexagonModel.uniform(4, 2, 2)
    tiling._dk_evaluator.cache_clear()
    held = tiling.dk_evaluator(m, 8)
    # a caller that holds the evaluator keeps it reachable by the model
    tiling._dk_evaluator.cache_clear()
    assert tiling.dk_evaluator(m, 8) is held and calls["build"] == 1
    del held
    tiling._dk_evaluator.cache_clear()
    tiling.dk_evaluator(m, 8)
    assert calls["build"] == 2
    # as after an eviction: 16 other node counts evict n = 8, which no
    # caller holds
    for n in range(9, 25):
        tiling.dk_evaluator(m, n)
    assert calls["build"] == 18
    tiling.dk_evaluator(m, 8)
    assert calls["build"] == 19
    assert tiling._dk_evaluator.cache_info().currsize == 16


def test_served_model_keeps_eq_hash_repr_and_copies_empty():
    m, twin = model_2x1(), model_2x1()
    route_model_calls(m)
    assert m._evaluators
    assert m == twin and hash(m) == hash(twin) and repr(m) == repr(twin)
    for dup in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert dup == m and dup is not m and dup._evaluators == {}
        assert hash(dup) == hash(m) and repr(dup) == repr(m)


# --- node count guard ---------------------------------------------------

def least_node_count(m):
    """max(h, 2N/r - h + floor(L/r)), h = (M + N)/r: the trapezoid rule's
    exactness bound on the moments M_0 ... M_{2N/r-2} of W."""
    h = (m.M + m.N) // m.r
    return max(h, 2 * m.N // m.r - h + m.L // m.r)


def guard_models():
    rng = np.random.default_rng(7)

    def w(q, r):
        return tuple(tuple(rng.uniform(0.5, 2.0, r)) for _ in range(q))
    return [HexagonModel.uniform(4, 2, 2), HexagonModel.uniform(6, 3, 3),
            HexagonModel.uniform(8, 2, 4), model_2x1(),
            HexagonModel(r=2, q=1, L=4, M=2, N=2, a=w(1, 2), b=w(1, 2)),
            HexagonModel(r=2, q=1, L=8, M=4, N=4, a=w(1, 2), b=w(1, 2)),
            HexagonModel(r=2, q=2, L=8, M=4, N=4, a=w(2, 2), b=w(2, 2)),
            HexagonModel(r=2, q=2, L=12, M=6, N=6, a=w(2, 2), b=w(2, 2)),
            HexagonModel(r=3, q=1, L=6, M=3, N=3, a=w(1, 3), b=w(1, 3)),
            HexagonModel(r=1, q=3, L=6, M=2, N=2, a=w(3, 1), b=w(3, 1))]


@pytest.mark.parametrize("m", guard_models(), ids=lambda m: (
    f"r{m.r}q{m.q}-{m.L},{m.M},{m.N}"))
def test_node_count_below_the_least_is_refused(m, monkeypatch):
    # at the least node count the kernel matches the exact oracle as well
    # as at n = 64; one node fewer is refused, and with the guard lifted
    # it is far off or singular
    least = least_node_count(m)
    with pytest.raises(InvalidArgumentError, match=f"n >= {least}$"):
        tiling.DKEvaluator(m, least - 1)
    points = lattice(m)[::3]
    oracle = ExactOracle(m)
    exact = np.array([[float(oracle.kernel(*a, *b)) for b in points]
                      for a in points])

    def error(n):
        return np.max(np.abs(tiling.DKEvaluator(m, n).point_matrix(points)
                             - exact))
    assert error(least) <= 10 * error(64) + 1e-13
    monkeypatch.setattr(tiling, "_min_node_count", lambda model: 1)
    try:
        assert error(least - 1) > 1e-3
    except SingularSystemError:
        pass


@pytest.mark.parametrize("m", [HexagonModel.uniform(6, 3, 3), model_2x1(),
                               ROUTE_MODELS[1]], ids=("r1", "r2q1", "r2q2"))
def test_dk_power_is_matrix_power_bit_for_bit(m):
    # the dk route's A^p keeps its squarings across exponents and still
    # has the bits of np.linalg.matrix_power, in rising and falling order
    exps = range(2 * m.L // m.q + 1)
    for order in (exps, exps[::-1]):
        ev = tiling.DKEvaluator(m, 64)
        power = ev.route("dk")._powers[0]
        A = m.period_matrix(ev.quad.nodes)
        for p in order:
            got, want = power(p), np.linalg.matrix_power(A, p)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


# --- chi integrals kept on the route ------------------------------------

CHI_HEIGHTS = st.integers(-2, 3) | st.lists(
    st.integers(-2, 3), min_size=1, max_size=3).map(np.array)


def chi_queries(m, y1, y2):
    """Every column pair with x1 > x2, at heights (y1, y2)."""
    return [KernelQuery(x1, y1, x2, y2) for x1 in range(m.L + 1)
            for x2 in range(x1)]


@st.composite
def chi_cases(draw):
    """A route model, a query with x1 > x2 and a nonzero height shift."""
    m = draw(st.sampled_from(ROUTE_MODELS))
    x1 = draw(st.integers(1, m.L))
    x2 = draw(st.integers(0, x1 - 1))
    y1, y2 = draw(CHI_HEIGHTS), draw(CHI_HEIGHTS)
    shift = draw(st.integers(-2, 2).filter(bool))
    return m, KernelQuery(x1, y1, x2, y2), shift


# the `_split` of [x2, x1): at q = 1, (2, 0) shares all but the whole
# periods with (1, 0); at q = 2, (3, 1) shares all but the head partial
# period with (1, 0), and all but the tail with (2, 1).  Drawn batched
# heights read and fill the same per-difference entries as single cells
@example((ROUTE_MODELS[0], KernelQuery(2, 0, 0, 1), 1))
@example((ROUTE_MODELS[1], KernelQuery(3, 0, 1, 1), -1))
@example((ROUTE_MODELS[1], KernelQuery(3, 2, 1, 0), 2))
@settings(deadline=None, max_examples=25)
@given(chi_cases())
def test_chi_memo_key_is_complete(case):
    # first the query's columns with y2 shifted, which change only
    # y2 - y1; then every column pair x1 > x2 at the query's heights
    # shifted by a constant: the same height differences, and at the
    # query's columns shifted by q the same transfer products; then at the
    # mirrored heights (-y2, -y1), which keep y2 - y1.  The query's block
    # must still be the fresh evaluator's, bit for bit
    m, query, shift = case
    ev, fresh = tiling.DKEvaluator(m, 128), tiling.DKEvaluator(m, 128)
    others = ([KernelQuery(query.x1, query.y1, query.x2, query.y2 + shift)]
              + chi_queries(m, query.y1 + shift, query.y2 + shift)
              + chi_queries(m, shift - query.y2, shift - query.y1))
    for form in ROUTES:
        route = ev.route(form)
        for q in others:
            tiling._query_block(route, q)
        assert np.array_equal(tiling._query_block(route, query),
                              tiling._query_block(fresh.route(form), query)
                              ), form


def test_chi_integrals_evaluated_once_per_key(monkeypatch):
    calls = Counter()
    monkeypatch.setattr(tiling, "_chi_integral",
                        counting(calls, "chi", tiling._chi_integral))
    # three pairs of heights with two differences y2 - y1: the third
    # pair's queries find every chi integral the first pair's stored; a
    # batched grid reads and fills the same entries, one per difference
    heights = ((0, 1), (2, -1), (3, 4))
    for m in ROUTE_MODELS:
        ev = tiling.DKEvaluator(m, 128)
        queries = [q for y1, y2 in heights for q in chi_queries(m, y1, y2)]
        batched = KernelQuery(m.L, np.array([-1, 0, 2]), 0, np.array([0, 1]))
        for form in ROUTES:
            route = ev.route(form)
            calls.clear()
            for q in queries:
                tiling._query_block(route, q)
            assert calls["chi"] == len(route.chis) < len(queries), form
            assert len(route.chis) <= m.q * m.L * 2
            for q in queries:
                tiling._query_block(route, q)
            assert calls["chi"] == len(route.chis), form
            kept = dict(route.chis)
            tiling._query_block(route, batched)
            new = {(0, m.L, b - a) for a in batched.y1 for b in batched.y2}
            assert route.chis.keys() == kept.keys() | new, form
            assert calls["chi"] == len(route.chis), form
            assert all(route.chis[key] is chi for key, chi in kept.items())
            # a repeated batched grid evaluates no new integral
            tiling._query_block(route, batched)
            assert calls["chi"] == len(route.chis), form


def test_route_memos_are_read_only():
    for m in ROUTE_MODELS:
        ev = tiling.DKEvaluator(m, 128)
        ev.point_matrix([(3, 2), (1, 1), (1, 2)])
        for form in ROUTES:
            route = ev.route(form)
            for q in chi_queries(m, 0, 1) + [KernelQuery(x, 1, x, 0)
                                             for x in range(m.L + 1)]:
                tiling._query_block(route, q)
            memos = (route.memo, *route.weighted, *route.moments,
                     route.chis)
            assert all(memos), form
            for memo in memos:
                for arr in memo.values():
                    assert not arr.flags.writeable, form
                    with pytest.raises(ValueError):
                        arr[...] = 0


def test_failed_route_is_not_kept(monkeypatch):
    # the chart's degree-4 scalar moment system of this model is singular
    m = random_r2_model(np.random.default_rng((5, 5, 0)), 2, 4, 6)
    solves = Counter()
    monkeypatch.setattr(tiling.sops, "scalar_moments", counting(
        solves, "solve", tiling.sops.scalar_moments))
    q = KernelQuery(4, 1, 2, 2)
    for _ in range(3):
        with pytest.raises(SingularSystemError):
            simplified_kernel_2x2(m, q, QN)
    assert solves["solve"] == 3
    ev = tiling.dk_evaluator(m, QN)
    assert np.array_equal(ev.block(q), tiling.DKEvaluator(m, QN).block(q))


def test_evaluator_kernel_coeffs_match_mop_system():
    models = ROUTE_MODELS + (random_r2_model(np.random.default_rng(3),
                                             2, 4, 8),)
    for m in models:
        for n in (128, QN):
            ev = tiling.DKEvaluator(m, n)
            system = model_system(m, n)
            assert np.array_equal(ev.kernel_coeffs, system.kernel_coeffs)
            # the coefficients are the block inverse as numpy returns it
            N = m.N // m.r
            assert np.array_equal(ev.kernel_coeffs, np.linalg.inv(
                mops._block(system.moments, range(N), range(N))))
            assert ev.conditions == {"kernel": system.conditions["kernel"]}


def test_singular_model_evaluator_build_raises():
    # wall 1: at N/r = 10 the block moment matrix of this model is
    # numerically singular, so the DK kernel does not exist
    m = model_2x1(L=40, M=20, N=20)
    with pytest.raises(SingularSystemError):
        model_system(m, QN)
    for _ in range(2):
        with pytest.raises(SingularSystemError):
            tiling.dk_kernel(m, KernelQuery(0, 0, 0, 0), QN)


def test_uniform_measure_proposition():
    # the r=2 matrix-form kernel agrees entrywise with the r=1 scalar
    # form under Y <-> (r floor(Y/r), Y mod r) bookkeeping
    L, M, N = 4, 2, 2
    m2 = HexagonModel.uniform(L, M, N, r=2)
    ev = tiling.dk_evaluator(m2, QN)
    for x1 in (1, 2, 3):
        for Y1 in range(-1, 4):
            for Y2 in range(-1, 4):
                a = ev.scalar(x1, Y1, x1, Y2)
                b = uniform_scalar_kernel(L, M, N, x1, Y1, x1, Y2, QN)
                assert abs(a - b) < 1e-8


def test_query_columns_outside_hexagon_raise():
    # on a cold route and on one warm at every column
    for m in ROUTE_MODELS:
        for fn in ROUTES.values():
            tiling._dk_evaluator.cache_clear()
            for warm in (False, True):
                if warm:
                    for x in range(m.L + 1):
                        fn(m, KernelQuery(x, 0, x, 0), 64)
                for x1, x2 in ((m.L + 1, 0), (-1, 0), (0, m.L + 1),
                               (0, -1)):
                    with pytest.raises(InvalidArgumentError,
                                       match="outside"):
                        fn(m, KernelQuery(x1, 0, x2, 0), 64)


def test_chi_term_evaluated_iff_x1_greater_than_x2(monkeypatch):
    calls = Counter()
    monkeypatch.setattr(tiling, "_chi_integral",
                        counting(calls, "chi", tiling._chi_integral))
    m = HexagonModel.uniform(4, 2, 2)
    for x1, x2 in ((1, 3), (3, 1), (2, 2), (4, 0), (0, 4)):
        calls.clear()
        tiling.DKEvaluator(m, 64).block(KernelQuery(x1, 0, x2, 0))
        assert calls["chi"] == (x1 > x2), (x1, x2)
