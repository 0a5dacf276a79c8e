import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from cdsurface import (CyclicUniform, SingularSystemError,
                       unit_circle_quadrature)
from cdsurface import mops, sops

TWO_PI_I = 2j * np.pi


def solve(weight, n, quad):
    return sops.solve_scalar_ops(weight, quad, n)


# --- solver -------------------------------------------------------------

def test_monomial_weight_hand_solution(quad256):
    n = 3
    system = solve(lambda z: z ** (-n), n, quad256)
    np.testing.assert_allclose(system.p[n], [0, 0, 0, 1], atol=1e-12)
    # the dual of top degree is the constant (2 pi i)^{-1}
    np.testing.assert_allclose(system.q[n - 1],
                               [1 / TWO_PI_I, 0, 0], atol=1e-12)


def test_jacobi_like_weight_solvable(quad256):
    # w = 2 zeta^{-2M-k+1} (1+zeta^k)^L with k=1, L=2, M=1
    system = solve(lambda z: 2 * z ** (-2) * (1 + z) ** 2, 2, quad256)
    assert not system.missing
    # orthogonality: oint p_2 w zeta^j = 0 for j < 2
    nodes = quad256.nodes
    wv = 2 * nodes ** (-2) * (1 + nodes) ** 2 * quad256.weights
    p2 = system.p_at(2, nodes)
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
        np.testing.assert_allclose(scal.p[j],
                                   matr.PL[j].coeffs[:, 0, 0], atol=1e-12)
    om, zt = 1.4 + 0.2j, 0.6 - 0.3j
    assert abs(sops.scalar_cd_kernel(scal, om, zt)
               - mops.cd_kernel(matr, om, zt)[0, 0]) < 1e-12


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
        system.p_at(1, 0.5)
    val = sops.scalar_cd_kernel(system, 1.2, 0.7)
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
    for route in (sops.scalar_cd_kernel, sops.scalar_cd_kernel_formula):
        assert abs(route(system, om, zt) - expect) < 1e-12


def test_kernel_reproduces_polynomials(quad256, rng):
    system = solve(lambda z: 2 * z ** (-2) * (1 + z) ** 2, 2, quad256)
    for _ in range(10):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        zt = 0.8 * np.exp(2j * np.pi * rng.random())
        assert sops.scalar_reproducing_residual(system, quad256, c, zt) \
            < 1e-10


def test_kernel_routes_agree(quad256, rng):
    system = solve(lambda z: 2 * z ** (-3) * (1 + z) ** 2, 2, quad256)
    for _ in range(20):
        om = 1.4 * np.exp(2j * np.pi * rng.random())
        zt = 0.7 * np.exp(2j * np.pi * rng.random())
        a = sops.scalar_cd_kernel(system, om, zt)
        b = sops.scalar_cd_kernel_formula(system, om, zt)
        c = sops.scalar_cd_kernel_sum(system, om, zt)
        assert abs(a - b) < 1e-10 and abs(b - c) < 1e-10


def test_kernel_formula_on_arrays_falls_back_per_pair(quad256):
    system = solve(lambda z: 2 * z ** (-3) * (1 + z) ** 2, 2, quad256)
    om = np.array([0.3, 0.4, 0.9 + 0.2j + 1e-9, 1.3j])
    zt = np.array([0.3, 0.1, 0.9 + 0.2j, 0.7])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        vals = sops.scalar_cd_kernel_formula(system, om, zt)
    assert vals.shape == (4,)
    for k in range(4):
        assert vals[k] == sops.scalar_cd_kernel_formula(system, om[k], zt[k])
        assert abs(vals[k] - sops.scalar_cd_kernel(system, om[k], zt[k])) \
            < 1e-10
    for k in (0, 2):  # coincident and 1e-9 apart: the sum, per pair
        assert vals[k] == sops.scalar_cd_kernel_sum(system, om[k], zt[k])


def test_kernel_weight_scaling(quad256):
    w1 = solve(lambda z: 2 * z ** (-3) * (1 + z) ** 2, 2, quad256)
    w5 = solve(lambda z: 10 * z ** (-3) * (1 + z) ** 2, 2, quad256)
    om, zt = 1.2, 0.6 + 0.1j
    assert abs(sops.scalar_cd_kernel(w5, om, zt)
               - sops.scalar_cd_kernel(w1, om, zt) / 5) < 1e-12


def test_kernel_degree_by_interpolation(quad256):
    # zeta -> R(omega, zeta) has degree <= n-1: the values on n nodes
    # interpolate the value at an (n+1)-th point exactly
    n = 4
    system = solve(lambda z: 2 * z ** (-5) * (1 + z) ** 4, n, quad256)
    om = 1.1 + 0.3j
    xs = np.exp(2j * np.pi * np.arange(n) / n) * 0.9
    vals = np.array([sops.scalar_cd_kernel(system, om, x) for x in xs])
    coef = npoly.polyfit(xs, vals, n - 1)
    extra = 1.7 - 0.2j
    assert abs(npoly.polyval(extra, coef)
               - sops.scalar_cd_kernel(system, om, extra)) < 1e-8


# --- 2x2 Riemann-Hilbert assembly ---------------------------------------

def test_scalar_Y_unimodular(quad256):
    system = solve(lambda z: 2 * z ** (-3) * (1 + z) ** 2, 2, quad256)
    Y = sops.assemble_scalar_Y(system, quad256, 1.9 + 0.4j)
    assert abs(np.linalg.det(Y) - 1) < 1e-8


def test_scalar_kernel_from_Y(quad256):
    system = solve(lambda z: 2 * z ** (-3) * (1 + z) ** 2, 2, quad256)
    om, zt = 1.6 + 0.2j, 0.5 - 0.4j
    assert abs(sops.scalar_kernel_from_Y(system, quad256, om, zt)
               - sops.scalar_cd_kernel(system, om, zt)) < 1e-7


def test_scalar_Y_asymptotics(quad256):
    n = 2
    system = solve(lambda z: 2 * z ** (-3) * (1 + z) ** 2, n, quad256)
    z = 1e3 * np.exp(0.4j)
    Y = sops.assemble_scalar_Y(system, quad256, z)
    scale = np.diag([z ** -n, z ** n])
    assert np.max(np.abs(Y @ scale - np.eye(2))) < 1e-2
