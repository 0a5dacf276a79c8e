import os
from fractions import Fraction
from itertools import product
from math import prod
from pathlib import Path

import numpy as np
import pytest

from cdsurface import (CyclicUniform, Periodic2x1, Periodic2x2,
                       ScalarMonomial, TwoByTwoRootK, edge_weight,
                       unit_circle_quadrature)

SEED = 20260826

# The CLI tests start `python -m cdsurface.cli` in subprocesses; let them
# import the package from this checkout, installed or not.
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture(scope="session")
def quad256():
    return unit_circle_quadrature(256)


@pytest.fixture(scope="session")
def quad128():
    return unit_circle_quadrature(128)


def make_families():
    """Representative instance of every supported family."""
    return {
        "cyclic-r2": CyclicUniform(r=2, L=2, R=2),
        "cyclic-r3": CyclicUniform(r=3, L=1, R=1),
        "root-k1": TwoByTwoRootK(k=1, L=1, M=1),
        "root-k3": TwoByTwoRootK(k=3, L=2, M=2),
        "periodic-2x1": Periodic2x1(a0=1.0, a1=0.7, b0=1.2, b1=0.5,
                                    L=4, M=2, N=2),
        "periodic-2x2-a": Periodic2x2(a=((1.0, 1.0), (1.0, 1.0)),
                                      b=((1.0, 2.0), (1.5, 0.7)),
                                      L=4, M=2, N=2),
        "periodic-2x2-b": Periodic2x2(a=((1.0, 2.0), (1.0, 1.0)),
                                      b=((1.0, 2.0), (1.0, 1.0)),
                                      L=4, M=2, N=2),
        "scalar-monomial": ScalarMonomial(r=2, N=2),
    }


@pytest.fixture(scope="session")
def families():
    return make_families()


def random_offcut_points(rng, count=100):
    """Points with moduli in [0.55, 2.0], kept away from the real axis
    where every family's branch cut (if any) lives."""
    rad = 0.55 + 1.45 * rng.random(count)
    ang = 0.15 + (np.pi - 0.3) * rng.random(count)
    sign = np.where(rng.random(count) < 0.5, 1.0, -1.0)
    return rad * np.exp(1j * sign * ang)


def path_systems(model) -> list:
    """(paths, weight) for every system of N non-intersecting paths of a
    small tiling model, by brute force: paths[i][x] is the height of path
    i in column x, and weight is the product of its `edge_weight`s as an
    exact Fraction.  The one reference for the tiling measure that
    assumes neither Lindstrom-Gessel-Viennot nor Eynard-Mehta."""
    out = []

    def extend(hist, weight):
        x, ys = len(hist) - 1, hist[-1]
        if x == model.L:
            if ys == tuple(model.column_range(model.L)):
                out.append((tuple(zip(*hist)), weight))
            return
        heights = model.column_range(x + 1)
        for steps in product((0, 1), repeat=model.N):
            nys = tuple(y + d for y, d in zip(ys, steps))
            if nys[0] in heights and nys[-1] in heights and all(
                    a < b for a, b in zip(nys, nys[1:])):
                extend(hist + [nys], weight * prod(
                    Fraction(edge_weight(model, ((x, y), (x + 1, ny))))
                    for y, ny in zip(ys, nys)))

    extend([tuple(model.column_range(0))], Fraction(1))
    return out


def enumerated_probability(systems: list, points) -> Fraction:
    """P(a path passes through every point): the weight of the `systems`
    that do over the weight of all."""
    hit = sum((w for paths, w in systems
               if all(any(p[x] == y for p in paths) for x, y in points)),
              Fraction(0))
    return hit / sum(w for _, w in systems)
