import numpy as np
import pytest

from cdsurface import (CyclicUniform, ScalarMonomial, TwoByTwoRootK,
                       UnsupportedFamilyError, build_chart,
                       unit_circle_quadrature)
from cdsurface import mops, sops, surface
from conftest import make_families

TWO_PI_I = 2j * np.pi


# --- chart construction -------------------------------------------------

def test_chart_cyclic_printed_data():
    fam = CyclicUniform(r=3, L=2, R=1)
    chart = build_chart(fam, 2)
    z = 0.8 + 0.3j
    assert chart.V_is_full
    assert abs(chart.h(z) - 1) < 1e-14
    assert abs(chart.hhat(z) - z ** 2) < 1e-14
    assert abs(chart.scalar_weight(z) - 3 * z ** (-3) * (1 + z) ** 2) < 1e-12


def test_chart_root_k3_not_full():
    chart = build_chart(TwoByTwoRootK(k=3, L=2, M=2), 2)
    assert not chart.V_is_full


def test_chart_unsupported():
    class Fake:
        pass
    with pytest.raises(UnsupportedFamilyError):
        build_chart(Fake(), 2)


def test_phi_inverse_roundtrip():
    for name, fam in make_families().items():
        if name == "scalar-monomial":
            continue  # r=2 diagonal family: disconnected curve, no chart
        chart = build_chart(fam, 2)
        for zeta in (0.7 + 0.4j, 1.3 - 0.2j, 0.5 + 1.1j):
            z = chart.phi(np.asarray(zeta))
            back = chart.phi_inv(chart.sheet_of(zeta), complex(z))
            assert abs(back - zeta) < 1e-12, name


def test_dphi_matches_finite_difference():
    eps = 1e-6
    for name, fam in make_families().items():
        if name == "scalar-monomial":
            continue
        chart = build_chart(fam, 2)
        for zeta in (0.8 + 0.5j, 1.4 - 0.3j):
            z = np.asarray(zeta)
            fd = (chart.phi(z + eps) - chart.phi(z - eps)) / (2 * eps)
            assert abs(chart.dphi(z) - fd) < 1e-6 * (1 + abs(fd)), name


# --- surface kernel R^lambda --------------------------------------------

def test_r_lambda_scalar_monomial_diagonal(quad256):
    fam = ScalarMonomial(r=2, N=2)
    system = mops.mop_system(fam, quad256, 2)
    w, z = 1.2 + 0.4j, 0.6 - 0.5j
    closed = (z ** 2 - w ** 2) / (TWO_PI_I * (z - w))
    Rlam = surface.r_lambda_matrix(fam, system, w, z)
    for j in range(2):
        for k in range(2):
            expect = closed if j == k else 0.0
            assert abs(Rlam[j, k] - expect) < 1e-12


def test_r_lambda_full_matrix_recovery(quad256):
    fam = CyclicUniform(r=2, L=2, R=2)
    system = mops.mop_system(fam, quad256, 2)
    w, z = 1.3 + 0.2j, 0.7 + 0.6j
    r = 2
    E_w = np.stack([fam.evec(*fam.point(k, w)) for k in range(r)], axis=-1)
    E_z = np.stack([fam.evec(*fam.point(k, z)) for k in range(r)], axis=-1)
    Rlam = surface.r_lambda_matrix(fam, system, w, z)
    np.testing.assert_allclose(E_w @ Rlam @ np.linalg.inv(E_z),
                               mops.cd_kernel_formula(system, w, z),
                               atol=1e-10)


def test_r_lambda_quadrature_stability():
    fam = CyclicUniform(r=2, L=2, R=2)
    vals = []
    for n in (128, 256):
        system = mops.mop_system(fam, unit_circle_quadrature(n), 2)
        vals.append(surface.r_lambda_matrix(fam, system, 1.2 + 0.4j,
                                            0.7 - 0.3j)[0, 1])
    assert abs(vals[0] - vals[1]) < 1e-10


# --- scalar reproducing kernel on the plane -----------------------------

def test_frak_R_equals_scalar_cd_for_cyclic(quad256, rng):
    fam = CyclicUniform(r=2, L=2, R=2)
    chart = build_chart(fam, 2)
    system = mops.mop_system(fam, quad256, 2)
    scal = sops.solve_scalar_ops(chart.scalar_weight, chart.gamma_C(256),
                                 2 * 2)
    for _ in range(10):
        om = 1.2 * np.exp(2j * np.pi * rng.random())
        zt = 0.7 * np.exp(2j * np.pi * rng.random())
        assert abs(surface.frak_R(chart, system, om, zt)
                   - mops.cd_kernel(scal, om, zt)[0, 0]) < 1e-7


def test_frak_R_root_k1_equals_scalar_cd(quad256, rng):
    fam = TwoByTwoRootK(k=1, L=2, M=2)
    chart = build_chart(fam, 2)
    system = mops.mop_system(fam, quad256, 2)
    scal = sops.solve_scalar_ops(chart.scalar_weight, chart.gamma_C(256),
                                 2 * 2)
    for _ in range(5):
        om = 1.2 * np.exp(2j * np.pi * rng.random())
        zt = 0.7 * np.exp(2j * np.pi * rng.random())
        assert abs(surface.frak_R(chart, system, om, zt)
                   - mops.cd_kernel(scal, om, zt)[0, 0]) < 1e-7


def test_frak_R_is_polynomial_in_zeta(quad256):
    fam = CyclicUniform(r=2, L=2, R=2)
    chart = build_chart(fam, 2)
    system = mops.mop_system(fam, quad256, 2)
    om = 1.1 + 0.2j
    rn = 4
    xs = 0.9 * np.exp(2j * np.pi * np.arange(rn) / rn)
    vals = np.array([surface.frak_R(chart, system, om, x) for x in xs])
    from numpy.polynomial import polynomial as npoly
    coef = npoly.polyfit(xs, vals, rn - 1)
    extra = 1.6 - 0.4j
    assert abs(npoly.polyval(extra, coef)
               - surface.frak_R(chart, system, om, extra)) < 1e-8


@pytest.mark.parametrize("name", ["cyclic-r2", "root-k3", "periodic-2x2-b"])
def test_frak_R_broadcasts(families, quad256, name):
    # omega and zeta broadcast as in mops.cd_kernel: a product grid, an
    # array against a scalar either way round, and scalars
    fam = families[name]
    chart = build_chart(fam, 2)
    system = mops.mop_system(fam, quad256, 2)
    om = 1.2 * np.exp(2j * np.pi * np.arange(3) / 3 + 0.1j)
    ze = 0.7 * np.exp(2j * np.pi * np.arange(4) / 4 + 0.3j)
    each = np.array([[surface.frak_R(chart, system, a, b) for b in ze]
                     for a in om])
    assert np.shape(each[0, 0]) == ()
    grid = surface.frak_R(chart, system, om[:, None], ze[None, :])
    assert grid.shape == (3, 4)
    np.testing.assert_allclose(grid, each, rtol=1e-13)
    by_zeta = surface.frak_R(chart, system, om[0], ze)
    assert by_zeta.shape == (4,)
    np.testing.assert_allclose(by_zeta, each[0], rtol=1e-13)
    by_omega = surface.frak_R(chart, system, om, ze[0])
    assert by_omega.shape == (3,)
    np.testing.assert_allclose(by_omega, each[:, 0], rtol=1e-13)


# --- reproducing properties ---------------------------------------------

def test_surface_reproducing_and_dual(quad256, rng):
    fam = CyclicUniform(r=2, L=2, R=2)
    system = mops.mop_system(fam, quad256, 2)
    for _ in range(20):
        C = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        sheet = int(rng.integers(2))
        z = 0.8 * np.exp(2j * np.pi * rng.random())
        assert surface.check_reproducing_surface(
            fam, system, C, sheet, z, quad256) < 1e-8
        assert surface.check_reproducing_surface_dual(
            fam, system, C, sheet, z, quad256) < 1e-8


def test_plane_reproducing_cyclic_monomials(quad256):
    fam = CyclicUniform(r=2, L=2, R=2)
    chart = build_chart(fam, 2)
    system = mops.mop_system(fam, quad256, 2)

    def kern(wn, zt):
        return surface.frak_R(chart, system, wn, zt)

    for m in range(4):  # all monomials below degree rN
        def p(zeta, m=m):
            return np.asarray(zeta, dtype=complex) ** m
        for zt in (0.6 + 0.3j, 1.2 - 0.5j):
            assert surface.check_reproducing_plane(chart, kern, p, zt,
                                                   256) < 1e-8


def test_root_k3_failure_witness(quad256, rng):
    # the reproducing identity holds on V but fails for zeta, which is
    # outside V when k = 3
    fam = TwoByTwoRootK(k=3, L=2, M=2)
    chart = build_chart(fam, 2)
    system = mops.mop_system(fam, quad256, 2)

    def kern(wn, zt):
        return surface.frak_R(chart, system, wn, zt)

    zt = 0.8 + 0.4j
    for _ in range(10):
        C = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        p = chart.v_element(C)
        assert surface.check_reproducing_plane(chart, kern, p, zt,
                                               256) < 1e-8

    def p_linear(zeta):
        return np.asarray(zeta, dtype=complex)

    assert surface.check_reproducing_plane(chart, kern, p_linear, zt,
                                           256) > 1e-2


def test_LN_space_dimension(quad256, rng):
    # the v_basis elements span an rN-dimensional space
    fam = CyclicUniform(r=2, L=2, R=2)
    chart = build_chart(fam, 2)
    basis = chart.v_basis()
    pts = 0.9 * np.exp(2j * np.pi * rng.random(12))
    G = np.stack([np.asarray([b(p) for p in pts]) for b in basis])
    assert np.linalg.matrix_rank(G, tol=1e-8) == 4


def test_2x2_case_b_integrand_finite_at_pm1():
    fam = make_families()["periodic-2x2-b"]
    chart = build_chart(fam, 1)
    for s in (1.0, -1.0):
        vals = [abs(chart.scalar_weight(np.asarray(s + d)))
                for d in (1e-6, -1e-6, 1e-6j)]
        assert all(np.isfinite(v) and v < 1e8 for v in vals)


def test_chart_data_are_the_family_curve_data(rng):
    # the chart's curve point is the sheet's point over phi(zeta), on the
    # sheet that zeta lies over, so its eigen-data and scalar weight are
    # the family's sheet data there
    def close(a, b):
        return np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))

    for name, fam in make_families().items():
        if name == "scalar-monomial":
            continue
        for n in (1, 2, 3):
            chart = build_chart(fam, n)
            rad = 0.55 + 1.45 * rng.random(30)
            for zeta in rad * np.exp(2j * np.pi * rng.random(30)):
                at_chart = chart.point(zeta)
                k, z = chart.sheet_of(zeta), at_chart[0]
                on_sheet = fam.point(k, z)
                assert close(at_chart[1], on_sheet[1]), name
                for f in (fam.evec, fam.evec_inv, fam.lamhat):
                    assert close(f(*at_chart), f(*on_sheet)), name
                expect = (fam.lam(*on_sheet) * chart.dphi(zeta)
                          / (chart.h(zeta) * chart.hhat(zeta)))
                assert close(chart.scalar_weight(zeta), expect), name
