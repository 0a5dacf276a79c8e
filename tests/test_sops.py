import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from cdsurface import SingularSystemError
from cdsurface import mops, sops

TWO_PI_I = 2j * np.pi


def solve(weight, n, quad):
    return sops.solve_scalar_ops(weight, quad, n)


def weight_at(w, quad):
    """The scalar weight w at the nodes of quad as the (n, 1, 1) matrix
    weight that `mops` reads."""
    return np.asarray(w(quad.nodes))[:, None, None]


def values(system, w, quad):
    """`mops.node_values` of the r = 1 system of the scalar weight w."""
    return mops.node_values(system, quad, weight_at(w, quad))


def kernel(system, om, zt):
    """The scalar CD kernel: the (0, 0) entry of the r = 1 kernel."""
    return mops.cd_kernel(system, om, zt)[..., 0, 0]


def kernel_formula(system, om, zt):
    return mops.cd_kernel_formula(system, om, zt)[..., 0, 0]


def kernel_sum(system, om, zt):
    return mops.cd_kernel_sum(system, om, zt)[..., 0, 0]


def coeffs(poly):
    return poly.coeffs[:, 0, 0]


# --- solver -------------------------------------------------------------

def test_monomial_weight_hand_solution(quad256):
    n = 3
    system = solve(lambda z: z ** (-n), n, quad256)
    assert isinstance(system, mops.MOPSystem) and system.r == 1
    np.testing.assert_allclose(coeffs(system.PL[n]), [0, 0, 0, 1],
                               atol=1e-12)
    # the dual of top degree is the constant (2 pi i)^{-1}
    np.testing.assert_allclose(coeffs(system.QL[n - 1]),
                               [1 / TWO_PI_I, 0, 0], atol=1e-12)


def test_jacobi_like_weight_solvable(quad256):
    # w = 2 zeta^{-2M-k+1} (1+zeta^k)^L with k=1, L=2, M=1
    system = solve(lambda z: 2 * z ** (-2) * (1 + z) ** 2, 2, quad256)
    assert not system.missing
    # orthogonality: oint p_2 w zeta^j = 0 for j < 2
    nodes = quad256.nodes
    wv = 2 * nodes ** (-2) * (1 + nodes) ** 2 * quad256.weights
    p2 = system.PL[2](nodes)[:, 0, 0]
    for j in range(2):
        assert abs(np.sum(p2 * wv * nodes ** j)) < 1e-10


def test_r1_matches_matrix_path(quad256):
    def w(z):
        return z ** (-3) * (1 + z) ** 2

    scal = solve(w, 2, quad256)
    moms = np.stack([
        np.sum(quad256.weights * quad256.nodes ** k * w(quad256.nodes))
        .reshape(1, 1) for k in range(5)])
    matr = mops.solve_mops(moms, 2)
    for j in range(3):
        np.testing.assert_allclose(coeffs(scal.PL[j]), coeffs(matr.PL[j]),
                                   atol=1e-12)
    om, zt = 1.4 + 0.2j, 0.6 - 0.3j
    assert abs(kernel(scal, om, zt) - kernel(matr, om, zt)) < 1e-12


def test_singular_moment_matrix_raises(quad256):
    # w = zeta^{-5}: the size-2 Hankel matrix is identically zero
    with pytest.raises(SingularSystemError):
        solve(lambda z: z ** (-5), 2, quad256)


def test_missing_intermediate_degrees_tolerated(quad256):
    # w = (1+z)^2 z^{-4}: zeroth moment vanishes, so the degree-1
    # polynomials do not exist, yet the degree-2 kernel does
    system = solve(lambda z: (1 + z) ** 2 * z ** (-4), 2, quad256)
    assert ("P", 1) in system.missing
    with pytest.raises(SingularSystemError):
        system.PL[1](0.5)
    val = kernel(system, 1.2, 0.7)
    assert np.isfinite(val)


# --- kernel -------------------------------------------------------------

def test_kernel_monomial_closed_form(quad256):
    n = 3
    system = solve(lambda z: z ** (-n), n, quad256)
    om, zt = 1.3 - 0.4j, 0.5 + 0.8j
    expect = (zt ** n - om ** n) / (TWO_PI_I * (zt - om))
    # low-degree duals of zeta^{-3} do not exist, so the biorthogonal
    # sum is unavailable; block and CD-formula routes agree with the
    # closed form
    for route in (kernel, kernel_formula):
        assert abs(route(system, om, zt) - expect) < 1e-12


def test_kernel_reproduces_polynomials(quad256, rng):
    def w(z):
        return 2 * z ** (-2) * (1 + z) ** 2

    system = solve(w, 2, quad256)
    for _ in range(10):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        zt = 0.8 * np.exp(2j * np.pi * rng.random())
        P = mops.MatrixPolynomial(c.reshape(-1, 1, 1))
        assert mops.reproducing_residual(system, quad256, P, zt,
                                         weight_at(w, quad256)) < 1e-10


def test_kernel_routes_agree(quad256, rng):
    system = solve(lambda z: 2 * z ** (-3) * (1 + z) ** 2, 2, quad256)
    for _ in range(20):
        om = 1.4 * np.exp(2j * np.pi * rng.random())
        zt = 0.7 * np.exp(2j * np.pi * rng.random())
        a = kernel(system, om, zt)
        b = kernel_formula(system, om, zt)
        c = kernel_sum(system, om, zt)
        assert abs(a - b) < 1e-10 and abs(b - c) < 1e-10


def test_kernel_formula_on_arrays_falls_back_per_pair(quad256):
    system = solve(lambda z: 2 * z ** (-3) * (1 + z) ** 2, 2, quad256)
    om = np.array([0.3, 0.4, 0.9 + 0.2j + 1e-9, 1.3j])
    zt = np.array([0.3, 0.1, 0.9 + 0.2j, 0.7])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        vals = kernel_formula(system, om, zt)
    assert vals.shape == (4,)
    for k in range(4):
        assert vals[k] == kernel_formula(system, om[k], zt[k])
        assert abs(vals[k] - kernel(system, om[k], zt[k])) < 1e-10
    for k in (0, 2):  # coincident and 1e-9 apart: the sum, per pair
        assert vals[k] == kernel_sum(system, om[k], zt[k])


def test_kernel_weight_scaling(quad256):
    w1 = solve(lambda z: 2 * z ** (-3) * (1 + z) ** 2, 2, quad256)
    w5 = solve(lambda z: 10 * z ** (-3) * (1 + z) ** 2, 2, quad256)
    om, zt = 1.2, 0.6 + 0.1j
    assert abs(kernel(w5, om, zt) - kernel(w1, om, zt) / 5) < 1e-12


def test_kernel_degree_by_interpolation(quad256):
    # zeta -> R(omega, zeta) has degree <= n-1: the values on n nodes
    # interpolate the value at an (n+1)-th point exactly
    n = 4
    system = solve(lambda z: 2 * z ** (-5) * (1 + z) ** 4, n, quad256)
    om = 1.1 + 0.3j
    xs = np.exp(2j * np.pi * np.arange(n) / n) * 0.9
    vals = np.array([kernel(system, om, x) for x in xs])
    coef = npoly.polyfit(xs, vals, n - 1)
    extra = 1.7 - 0.2j
    assert abs(npoly.polyval(extra, coef)
               - kernel(system, om, extra)) < 1e-8


# --- 2x2 Riemann-Hilbert assembly ---------------------------------------

def jacobi_weight(z):
    return 2 * z ** (-3) * (1 + z) ** 2


def test_scalar_Y_unimodular(quad256):
    system = solve(jacobi_weight, 2, quad256)
    Y = mops.assemble_Y(system, quad256, 1.9 + 0.4j,
                        values(system, jacobi_weight, quad256))
    assert Y.shape == (2, 2)
    assert abs(np.linalg.det(Y) - 1) < 1e-8


def test_scalar_kernel_from_Y(quad256):
    system = solve(jacobi_weight, 2, quad256)
    om, zt = 1.6 + 0.2j, 0.5 - 0.4j
    assert abs(mops.kernel_from_Y(system, quad256, om, zt,
                                  values(system, jacobi_weight, quad256))[0, 0]
               - kernel(system, om, zt)) < 1e-7


def test_scalar_Y_asymptotics(quad256):
    n = 2
    system = solve(jacobi_weight, n, quad256)
    z = 1e3 * np.exp(0.4j)
    Y = mops.assemble_Y(system, quad256, z,
                        values(system, jacobi_weight, quad256))
    scale = np.diag([z ** -n, z ** n])
    assert np.max(np.abs(Y @ scale - np.eye(2))) < 1e-2
