import numpy as np
import pytest

from cdsurface import (HexagonModel, InvalidArgumentError, KernelQuery,
                       SizeGuardError, edge_weight, enumerate_path_systems,
                       lgv_partition_function, macmahon_count,
                       partition_function, point_probability,
                       simplified_kernel_2x1, simplified_kernel_2x2,
                       simplified_kernel_general, uniform_scalar_kernel,
                       unit_circle_quadrature)
from cdsurface import tiling

QN = 256


def model_2x1(**kw):
    base = dict(r=2, q=1, L=4, M=2, N=2,
                a=((1.0, 0.7),), b=((1.2, 0.5),))
    base.update(kw)
    return HexagonModel(**base)


def model_2x2(a, b):
    return HexagonModel(r=2, q=2, L=4, M=2, N=2, a=a, b=b)


# --- model validation and geometry --------------------------------------

def test_model_validation():
    with pytest.raises(InvalidArgumentError):
        HexagonModel(r=2, q=2, L=3, M=2, N=2,
                     a=((1, 1), (1, 1)), b=((1, 1), (1, 1)))  # L % q != 0
    with pytest.raises(InvalidArgumentError):
        HexagonModel.uniform(4, 1, 2, r=2)  # M % r != 0
    with pytest.raises(InvalidArgumentError):
        HexagonModel(r=1, q=1, L=2, M=1, N=1, a=((0.0,),), b=((1.0,),))


def test_hexagon_geometry():
    m = HexagonModel.uniform(4, 2, 2)
    assert m.starts == (0, 1)
    assert m.ends == (2, 3)
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
                lambda z: m.transition(x, z)[j, k] * z ** (m1 - m2) / z) \
                / (2j * np.pi)
            assert abs(val - expect) < 1e-12


# --- enumeration oracle -------------------------------------------------

def test_macmahon_counts():
    assert macmahon_count(2, 1, 1) == 2
    assert macmahon_count(4, 2, 2) == 20
    assert len(enumerate_path_systems(HexagonModel.uniform(2, 1, 1))) == 2
    assert len(enumerate_path_systems(HexagonModel.uniform(4, 2, 2))) == 20


def test_path_system_invariants():
    systems = enumerate_path_systems(model_2x1())
    m = model_2x1()
    for s in systems:
        for i, p in enumerate(s.paths):
            assert p[0] == m.starts[i] and p[-1] == m.ends[i]
            assert all(p[x + 1] - p[x] in (0, 1) for x in range(m.L))
        for a, b in zip(s.paths, s.paths[1:]):
            assert all(ya < yb for ya, yb in zip(a, b))
        assert s.weight > 0


def test_partition_function_vs_lgv():
    for m in (model_2x1(),
              model_2x2(((1.0, 1.0), (1.0, 1.0)), ((1.0, 2.0), (1.5, 0.7)))):
        Z = partition_function(m)
        assert abs(lgv_partition_function(m) - Z) < 1e-10 * abs(Z)


def test_enumeration_guard():
    with pytest.raises(SizeGuardError):
        enumerate_path_systems(HexagonModel.uniform(40, 20, 10))


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


def test_probabilities_match_enumeration(rng):
    for m in (HexagonModel.uniform(2, 1, 1), HexagonModel.uniform(4, 2, 2),
              model_2x1(L=2, a=((1.0, 0.7),), b=((1.2, 0.5),))):
        singles = [(x, y) for x in range(m.L + 1)
                   for y in m.column_range(x)]
        for pt in singles:
            d = point_probability(m, [pt], "determinant", QN)
            e = point_probability(m, [pt], "enumeration")
            assert abs(d - e) < 1e-8
            assert -1e-9 <= d <= 1 + 1e-9
        for _ in range(10):
            idx = rng.choice(len(singles), 2, replace=False)
            pts = [singles[i] for i in idx]
            d = point_probability(m, pts, "determinant", QN)
            e = point_probability(m, pts, "enumeration")
            assert abs(d - e) < 1e-8


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
        for x in xs:
            with pytest.raises(InvalidArgumentError):
                tiling.column_probabilities(m, x, n=QN)


def test_point_probability_edge_cases():
    m = HexagonModel.uniform(2, 1, 1)
    assert point_probability(m, []) == 1.0
    with pytest.raises(InvalidArgumentError):
        point_probability(m, [(1, 0), (1, 0)])
    with pytest.raises(InvalidArgumentError):
        point_probability(m, [(5, 0)])


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
                        assert np.all(np.abs(batch[i, j] - one)
                                      <= 1e-13 * np.maximum(1, np.abs(one))
                                      ), (name, x1, x2, y1, y2)
                row = fn(KernelQuery(x1, y1s, x2, int(y2s[0])))
                assert row.shape == (len(y1s), 2, 2)
                assert np.all(np.abs(row - batch[0])
                              <= 1e-13 * np.maximum(1, np.abs(batch[0])))


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


def test_chi_term_indices():
    m = HexagonModel.uniform(4, 2, 2)
    assert KernelQuery(1, 0, 3, 0).indices(m)[3] is False
    assert KernelQuery(3, 0, 1, 0).indices(m)[3] is True
