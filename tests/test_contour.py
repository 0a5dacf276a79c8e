import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdsurface import (InvalidArgumentError, circle_quadrature,
                       unit_circle_quadrature)

TWO_PI_I = 2j * np.pi


@pytest.mark.parametrize("n", [8, 64])
def test_monomial_exactness(n):
    quad = unit_circle_quadrature(n)
    for k in range(-6, 7):
        val = quad.integrate(lambda z, k=k: z ** k)
        expect = TWO_PI_I if (k + 1) % n == 0 else 0.0
        assert abs(val - expect) < 1e-13


def test_residue_basic():
    assert abs(unit_circle_quadrature(4).integrate(lambda z: 1 / z)
               - TWO_PI_I) < 1e-13
    assert abs(unit_circle_quadrature(8).integrate(lambda z: z ** 3)) < 1e-14


def test_binomial_residue():
    # (1+z)^5 z^-3 has residue C(5,2) = 10 at the origin
    val = unit_circle_quadrature(64).integrate(lambda z: (1 + z) ** 5 / z ** 3)
    assert abs(val - TWO_PI_I * 10) < 1e-12


def test_circle_pole_enclosed_and_excluded():
    assert abs(circle_quadrature(0, 2, 64).integrate(lambda z: 1 / (z - 1))
               - TWO_PI_I) < 1e-12
    assert abs(circle_quadrature(5, 1, 64).integrate(lambda z: 1 / z)) < 1e-12


def test_unit_circle_is_radius_one_circle():
    a = unit_circle_quadrature(32)
    b = circle_quadrature(0, 1, 32)
    np.testing.assert_allclose(a.nodes, b.nodes, atol=1e-15)
    np.testing.assert_allclose(a.weights, b.weights, atol=1e-15)


def test_orientation_reversal():
    quad = unit_circle_quadrature(32)
    assert abs(quad.reversed().integrate(lambda z: 1 / z) + TWO_PI_I) < 1e-13


def test_integrand_must_have_the_node_axis():
    # the integrand is called once on the whole node array; a result
    # without the node axis raises, and an exception inside it propagates
    quad = unit_circle_quadrature(8)
    for f in (lambda z: 1.0, lambda z: np.eye(2)[0], lambda z: z[:4]):
        with pytest.raises(InvalidArgumentError, match="node axis"):
            quad.integrate(f)
    calls = []

    def broken(z):
        calls.append(np.shape(z))
        raise ZeroDivisionError

    with pytest.raises(ZeroDivisionError):
        quad.integrate(broken)
    assert calls == [(8,)]
    val = quad.integrate(lambda z: z[:, None, None] ** -1 * np.eye(2))
    np.testing.assert_allclose(val, TWO_PI_I * np.eye(2), atol=1e-13)


def test_geometric_convergence():
    truth = -TWO_PI_I / (1.5 - 0.2)

    def f(z):
        return 1 / ((z - 0.2) * (z - 1.5))

    e64 = abs(unit_circle_quadrature(64).integrate(f) - truth)
    e128 = abs(unit_circle_quadrature(128).integrate(f) - truth)
    assert e128 <= e64 / 10


def test_invalid_arguments():
    with pytest.raises(InvalidArgumentError):
        unit_circle_quadrature(0)
    # a radius that is not finite and positive, or a center that is not
    # finite, would give a rule of NaN or infinite nodes
    for center, radius in ((0, -1.0), (0, 0.0), (0, np.nan), (0, np.inf),
                           (np.nan, 1.0), (complex(0, np.inf), 1.0)):
        with pytest.raises(InvalidArgumentError, match="radius"):
            circle_quadrature(center, radius, 16)
    # a float or a bool node count would build a rule whose weights do not
    # match its nodes (16.5 gives 17 nodes of weight 2 pi i / 16.5); a
    # numpy integer is a node count like any int; None is not a count
    for bad in (16.5, 16.0, np.float64(16), True, np.array([16]), None):
        with pytest.raises(InvalidArgumentError, match="node count n"):
            unit_circle_quadrature(bad)
        with pytest.raises(InvalidArgumentError, match="node count n"):
            circle_quadrature(1.0, 0.5, bad)
    for n in (np.int64(16), np.int32(16), np.uint8(16)):
        quad = unit_circle_quadrature(n)
        assert np.array_equal(quad.weights, unit_circle_quadrature(16).weights)


@settings(deadline=None, max_examples=50)
@given(n=st.integers(min_value=8, max_value=200),
       k=st.integers(min_value=-7, max_value=7))
def test_exactness_property(n, k):
    quad = unit_circle_quadrature(n)
    val = quad.integrate(lambda z: z ** k)
    expect = TWO_PI_I if (k + 1) % n == 0 else 0.0
    assert abs(val - expect) < 1e-12
