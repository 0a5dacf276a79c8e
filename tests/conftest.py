import os
from pathlib import Path

import numpy as np
import pytest

from cdsurface import (CyclicUniform, Periodic2x1, Periodic2x2,
                       ScalarMonomial, TwoByTwoRootK,
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
