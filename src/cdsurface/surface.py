"""Genus-0 uniformization charts and the scalarized kernels.

For each supported weight family the r-sheeted spectral curve is a
genus-0 Riemann surface with an explicit rational uniformization
zeta -> (phi(zeta), eta(zeta)).  A chart packages:

  phi, dphi      projection to the base plane and its derivative,
  e_phi, einv_phi  eigenvector column / inverse-eigenvector row pulled
                 back through the chart (rational in zeta),
  h, hhat        rational correction factors clearing the poles of
                 e_phi / einv_phi at the points above infinity,
  scalar_weight  the induced scalar weight
                 W_s(zeta) = lam(phi(zeta)) dphi(zeta) / (h(zeta) hhat(zeta)),
  gamma_C        the pulled-back contour phi^{-1}(gamma).

The surface kernel R^lam(w^(j), z^(k)) = einv_j(w) R_N(w, z) e_k(z) is
scalar-valued; its genus-0 scalarization
S(omega, zeta) = hhat(omega) R^lam(phi(omega), phi(zeta)) h(zeta)
is a bivariate polynomial reproducing the rN-dimensional space V of
polynomials p(zeta) = sum_a P_a(phi(zeta)) e_phi(zeta)_a h(zeta).
V equals all of P_{rN-1} exactly when the pole orders balance; otherwise
S is a reproducing kernel that is *not* a CD kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import mops
from .contour import ContourQuadrature, circle_quadrature, default_n, \
    unit_circle_quadrature
from .errors import InconsistentParametersError, UnsupportedFamilyError
from .weights import (CyclicUniform, Periodic2x1, Periodic2x2, ScalarMonomial,
                      SpectralData, TwoByTwoRootK, WeightFamily)


def _row_poly(coeffs: np.ndarray, z) -> np.ndarray:
    """P(z) = sum_m coeffs[m] z^m for (n, r) coefficient rows, by Horner;
    shape z.shape + (r,)."""
    return np.moveaxis(npoly.polyval(np.asarray(z, dtype=complex), coeffs),
                       0, -1)


@dataclass(frozen=True)
class Genus0Chart:
    family: WeightFamily
    r: int
    n: int                       # MOP degree the chart is built for
    phi: Callable
    dphi: Callable
    h: Callable
    hhat: Callable
    e_phi: Callable              # zeta -> (..., r) eigenvector column
    einv_phi: Callable           # zeta -> (..., r) inverse-eigenvector row
    lam_phi: Callable
    lamhat_phi: Callable | None
    scalar_weight: Callable
    gamma_C: Callable            # n_nodes -> ContourQuadrature
    sheet_of: Callable           # zeta -> sheet index of phi(zeta)
    phi_inv: Callable            # (sheet, z) -> zeta
    V_is_full: bool

    def v_element(self, coeffs: np.ndarray) -> Callable:
        """Member of V from P in P_{n-1}^{1 x r}: coeffs shape (n, r),
        p(zeta) = sum_a P_a(phi(zeta)) e_phi(zeta)[..., a] h(zeta)."""
        coeffs = np.asarray(coeffs, dtype=complex)

        def p(zeta):
            zeta = np.asarray(zeta, dtype=complex)
            Pvals = _row_poly(coeffs, self.phi(zeta))
            return np.sum(Pvals * self.e_phi(zeta), axis=-1) * self.h(zeta)

        return p

    def vstar_element(self, coeffs: np.ndarray) -> Callable:
        """Member of V*: p*(zeta) = hhat(zeta) einv_phi(zeta) . P(phi)."""
        coeffs = np.asarray(coeffs, dtype=complex)

        def p(zeta):
            zeta = np.asarray(zeta, dtype=complex)
            Pvals = _row_poly(coeffs, self.phi(zeta))
            return np.sum(Pvals * self.einv_phi(zeta), axis=-1) * self.hhat(zeta)

        return p

    def v_basis(self) -> list:
        basis = []
        for m in range(self.n):
            for a in range(self.r):
                coeffs = np.zeros((self.n, self.r))
                coeffs[m, a] = 1.0
                basis.append(self.v_element(coeffs))
        return basis


def build_chart(family: WeightFamily, n: int) -> Genus0Chart:
    """Closed-form genus-0 chart for a supported family at MOP degree n."""
    if isinstance(family, CyclicUniform):
        return _chart_cyclic(family, n)
    if isinstance(family, TwoByTwoRootK):
        return _chart_root_k(family, n)
    if isinstance(family, Periodic2x1):
        return _chart_periodic_2x1(family, n)
    if isinstance(family, Periodic2x2):
        return _chart_periodic_2x2(family, n)
    if isinstance(family, ScalarMonomial):
        return _chart_scalar_monomial(family, n)
    raise UnsupportedFamilyError(f"no genus-0 chart for {family!r}")


def _chart_cyclic(family: CyclicUniform, n: int) -> Genus0Chart:
    r, L, R = family.r, family.L, family.R
    rho = np.exp(2j * np.pi / r)

    def phi(z):
        return np.asarray(z, dtype=complex) ** r

    def sheet_of(zeta):
        zeta = np.asarray(zeta, dtype=complex)
        principal = np.exp(np.log(phi(zeta)) / r)
        k = np.round(np.real(np.log(zeta / principal) / (2j * np.pi / r)))
        return (k.astype(int) % r)[()]

    return Genus0Chart(
        family=family, r=r, n=n,
        phi=phi,
        dphi=lambda z: r * np.asarray(z, dtype=complex) ** (r - 1),
        h=lambda z: np.ones_like(np.asarray(z, dtype=complex)),
        hhat=lambda z: np.asarray(z, dtype=complex) ** (r - 1),
        e_phi=lambda z: np.stack(
            [np.asarray(z, dtype=complex) ** j for j in range(r)], axis=-1),
        einv_phi=lambda z: np.stack(
            [np.asarray(z, dtype=complex) ** (-j) / r for j in range(r)],
            axis=-1),
        lam_phi=lambda z: (1 + np.asarray(z, dtype=complex)) ** L
        * np.asarray(z, dtype=complex) ** (-r * R),
        lamhat_phi=lambda z: 1 + np.asarray(z, dtype=complex),
        scalar_weight=lambda z: r * np.asarray(z, dtype=complex) ** (-r * R)
        * (1 + np.asarray(z, dtype=complex)) ** L,
        gamma_C=lambda nn=None: unit_circle_quadrature(nn),
        sheet_of=sheet_of,
        phi_inv=lambda k, z: rho ** k
        * np.exp(np.log(np.asarray(z, dtype=complex)) / r),
        V_is_full=True)


def _chart_root_k(family: TwoByTwoRootK, n: int) -> Genus0Chart:
    k_exp, L, M = family.k, family.L, family.M

    def phi(z):
        return np.asarray(z, dtype=complex) ** 2

    def sheet_of(zeta):
        zeta = np.asarray(zeta, dtype=complex)
        principal = np.sqrt(phi(zeta))
        return np.where(np.abs(zeta - principal) < np.abs(zeta + principal),
                        0, 1)[()]

    def phi_inv(k, z):
        s = np.sqrt(np.asarray(z, dtype=complex))
        return s if k == 0 else -s

    return Genus0Chart(
        family=family, r=2, n=n,
        phi=phi,
        dphi=lambda z: 2 * np.asarray(z, dtype=complex),
        h=lambda z: np.ones_like(np.asarray(z, dtype=complex)),
        hhat=lambda z: np.asarray(z, dtype=complex) ** k_exp,
        e_phi=lambda z: np.stack(
            [np.ones_like(np.asarray(z, dtype=complex)),
             np.asarray(z, dtype=complex) ** k_exp], axis=-1),
        einv_phi=lambda z: np.stack(
            [0.5 * np.ones_like(np.asarray(z, dtype=complex)),
             0.5 * np.asarray(z, dtype=complex) ** (-k_exp)], axis=-1),
        lam_phi=lambda z: np.asarray(z, dtype=complex) ** (-2 * M)
        * (1 + np.asarray(z, dtype=complex) ** k_exp) ** L,
        lamhat_phi=lambda z: 1 + np.asarray(z, dtype=complex) ** k_exp,
        scalar_weight=lambda z: 2 * np.asarray(z, dtype=complex)
        ** (-2 * M - k_exp + 1)
        * (1 + np.asarray(z, dtype=complex) ** k_exp) ** L,
        gamma_C=lambda nn=None: unit_circle_quadrature(nn),
        sheet_of=sheet_of, phi_inv=phi_inv,
        V_is_full=(k_exp == 1))


def _chart_periodic_2x1(family: Periodic2x1, n: int) -> Genus0Chart:
    a0, a1, b0, b1 = family.a0, family.a1, family.b0, family.b1
    L, half = family.L, (family.M + family.N) // 2
    z1 = family.z1

    def phi(z):
        return z1 + np.asarray(z, dtype=complex) ** 2 / (4 * a0 * a1)

    def lamhat(z):
        return (b0 + b1 + np.asarray(z, dtype=complex)) / 2

    def sqrt_delta(z):
        return 2 * np.sqrt(a0 * a1) * np.sqrt(np.asarray(z, dtype=complex)
                                              - z1)

    def sheet_of(zeta):
        zeta = np.asarray(zeta, dtype=complex)
        s = sqrt_delta(phi(zeta))
        return np.where(np.abs(zeta - s) < np.abs(zeta + s), 0, 1)[()]

    def phi_inv(k, z):
        s = sqrt_delta(z)
        return s if k == 0 else -s

    def scalar_weight(zeta):
        zeta = np.asarray(zeta, dtype=complex)
        return (lamhat(zeta) ** L / (2 * a0 * a1)
                * (4 * a0 * a1 / (zeta ** 2 - (b0 - b1) ** 2)) ** half)

    radius = abs(b0 - b1) + 1.0

    return Genus0Chart(
        family=family, r=2, n=n,
        phi=phi,
        dphi=lambda z: np.asarray(z, dtype=complex) / (2 * a0 * a1),
        h=lambda z: np.ones_like(np.asarray(z, dtype=complex)),
        hhat=lambda z: np.asarray(z, dtype=complex),
        e_phi=lambda z: np.stack(
            [np.ones_like(np.asarray(z, dtype=complex)),
             (b1 - b0 + np.asarray(z, dtype=complex)) / (2 * a0)], axis=-1),
        einv_phi=lambda z: np.stack(
            [(np.asarray(z, dtype=complex) + b0 - b1)
             / (2 * np.asarray(z, dtype=complex)),
             a0 / np.asarray(z, dtype=complex)], axis=-1),
        lam_phi=lambda z: lamhat(z) ** L * phi(z) ** (-half),
        lamhat_phi=lamhat,
        scalar_weight=scalar_weight,
        gamma_C=lambda nn=None: circle_quadrature(0.0, radius, nn),
        sheet_of=sheet_of, phi_inv=phi_inv,
        V_is_full=True)


def _chart_periodic_2x2(family: Periodic2x2, n: int) -> Genus0Chart:
    am, ap = family.a_minus, family.a_plus
    bm, bp = family.b_minus, family.b_plus
    d = family.d
    Lhalf, half = family.L // 2, (family.M + family.N) // 2

    if am == 0:
        return _chart_periodic_2x2_case_a(family, n, ap, bm, bp, d,
                                          Lhalf, half)
    return _chart_periodic_2x2_case_b(family, n, am, ap, bm, bp, d,
                                      Lhalf, half)


def _chart_periodic_2x2_case_a(family, n, ap, bm, bp, d, Lhalf, half):
    c01 = family.c0 + family.c1

    def phi(z):
        return (np.asarray(z, dtype=complex) ** 2 - bm ** 2) / (2 * c01)

    def lamhat(zeta):
        zeta = np.asarray(zeta, dtype=complex)
        return (ap * phi(zeta) + bp + zeta) / 2

    def sqrt_delta(z):
        z1 = -bm ** 2 / (2 * c01)
        return np.sqrt(2 * c01) * np.sqrt(np.asarray(z, dtype=complex) - z1)

    def sheet_of(zeta):
        zeta = np.asarray(zeta, dtype=complex)
        s = sqrt_delta(phi(zeta))
        return np.where(np.abs(zeta - s) < np.abs(zeta + s), 0, 1)[()]

    def phi_inv(k, z):
        s = sqrt_delta(z)
        return s if k == 0 else -s

    def scalar_weight(zeta):
        # dphi / (h hhat) = (zeta / c01) / zeta = 1 / c01
        return lamhat(zeta) ** Lhalf * phi(zeta) ** (-half) / c01

    radius = abs(bm) + 1.0

    return Genus0Chart(
        family=family, r=2, n=n,
        phi=phi,
        dphi=lambda z: np.asarray(z, dtype=complex) / c01,
        h=lambda z: np.ones_like(np.asarray(z, dtype=complex)),
        hhat=lambda z: np.asarray(z, dtype=complex),
        e_phi=lambda z: np.stack(
            [np.ones_like(np.asarray(z, dtype=complex)),
             (np.asarray(z, dtype=complex) + bm) / (2 * d)], axis=-1),
        einv_phi=lambda z: np.stack(
            [(np.asarray(z, dtype=complex) - bm)
             / (2 * np.asarray(z, dtype=complex)),
             d / np.asarray(z, dtype=complex)], axis=-1),
        lam_phi=lambda z: lamhat(z) ** Lhalf * phi(z) ** (-half),
        lamhat_phi=lamhat,
        scalar_weight=scalar_weight,
        gamma_C=lambda nn=None: circle_quadrature(0.0, radius, nn),
        sheet_of=sheet_of, phi_inv=phi_inv,
        V_is_full=True)


def _chart_periodic_2x2_case_b(family, n, am, ap, bm, bp, d, Lhalf, half):
    zm, zp = family.branch_points()
    kappa = (zp - zm) / 4
    sm, sp = np.sqrt(abs(zm)), np.sqrt(abs(zp))
    c = (sm - sp) / (sm + sp)
    if not (0 < c < 1):
        raise InconsistentParametersError(
            f"periodic-2x2(b): expected c in (0,1), got {c}")

    def phi(zeta):
        zeta = np.asarray(zeta, dtype=complex)
        return kappa * (zeta - (c + 1 / c) + 1 / zeta)

    def eta(zeta):
        zeta = np.asarray(zeta, dtype=complex)
        return am * kappa * (zeta - 1 / zeta)

    def dphi(zeta):
        zeta = np.asarray(zeta, dtype=complex)
        return kappa * (1 - zeta ** (-2))

    def lamhat(zeta):
        return (ap * phi(zeta) + bp + eta(zeta)) / 2

    def sqrt_delta(z):
        z = np.asarray(z, dtype=complex)
        return am * np.sqrt(z - zp) * np.sqrt(z - zm)

    def sheet_of(zeta):
        zeta = np.asarray(zeta, dtype=complex)
        s = sqrt_delta(phi(zeta))
        e = eta(zeta)
        return np.where(np.abs(e - s) < np.abs(e + s), 0, 1)[()]

    def phi_inv(k, z):
        z = np.asarray(z, dtype=complex)
        # kappa zeta^2 - (kappa (c + 1/c) + z) zeta + kappa = 0
        bq = kappa * (c + 1 / c) + z
        disc = np.sqrt(bq ** 2 - 4 * kappa ** 2)
        roots = np.stack([(bq + disc) / (2 * kappa),
                          (bq - disc) / (2 * kappa)])
        target = sqrt_delta(z) if k == 0 else -sqrt_delta(z)
        pick = np.abs(eta(roots[0]) - target) < np.abs(eta(roots[1]) - target)
        return np.where(pick, roots[0], roots[1])[()]

    def h(zeta):
        return np.asarray(zeta, dtype=complex) ** n

    def hhat(zeta):
        zeta = np.asarray(zeta, dtype=complex)
        return zeta ** (n - 2) * (zeta ** 2 - 1)

    def e_phi(zeta):
        zeta = np.asarray(zeta, dtype=complex)
        return np.stack([np.ones_like(zeta),
                         (bm - am * phi(zeta) + eta(zeta)) / (2 * d)],
                        axis=-1)

    def einv_phi(zeta):
        zeta = np.asarray(zeta, dtype=complex)
        e = eta(zeta)
        return np.stack([(am * phi(zeta) + e - bm) / (2 * e), d / e],
                        axis=-1)

    def scalar_weight(zeta):
        # dphi / (h hhat) = kappa (zeta^2-1)/zeta^2 / (zeta^{2n-2}(zeta^2-1))
        #                 = kappa / zeta^{2n}: the zeta = +-1 poles cancel.
        zeta = np.asarray(zeta, dtype=complex)
        return lamhat(zeta) ** Lhalf * phi(zeta) ** (-half) \
            * kappa / zeta ** (2 * n)

    # Circle around c and 1/c excluding 0.  The integrands' poles sit at
    # {0, c, 1/c}, so the radius is placed midway between the enclosed
    # poles and the origin to balance the trapezoid convergence rates.
    center = (c + 1 / c) / 2
    radius = ((1 / c - c) / 2 + center) / 2
    if not (1 / c - c) / 2 < radius < center:
        raise InconsistentParametersError(
            "periodic-2x2(b): no circle separates {c, 1/c} from 0")

    return Genus0Chart(
        family=family, r=2, n=n,
        phi=phi, dphi=dphi, h=h, hhat=hhat,
        e_phi=e_phi, einv_phi=einv_phi,
        lam_phi=lambda zeta: lamhat(zeta) ** Lhalf * phi(zeta) ** (-half),
        lamhat_phi=lamhat,
        scalar_weight=scalar_weight,
        gamma_C=lambda nn=None: circle_quadrature(center, radius, nn),
        sheet_of=sheet_of, phi_inv=phi_inv,
        V_is_full=True)


def _chart_scalar_monomial(family: ScalarMonomial, n: int) -> Genus0Chart:
    if family.r != 1:
        raise UnsupportedFamilyError(
            "scalar-monomial with r > 1 has a disconnected spectral curve; "
            "no genus-0 chart")
    Nw = family.N

    def ident(z):
        return np.asarray(z, dtype=complex)

    ones = lambda z: np.ones_like(np.asarray(z, dtype=complex))

    return Genus0Chart(
        family=family, r=1, n=n,
        phi=ident, dphi=ones, h=ones, hhat=ones,
        e_phi=lambda z: np.ones(np.shape(z) + (1,), dtype=complex),
        einv_phi=lambda z: np.ones(np.shape(z) + (1,), dtype=complex),
        lam_phi=lambda z: np.asarray(z, dtype=complex) ** (-Nw),
        lamhat_phi=None,
        scalar_weight=lambda z: np.asarray(z, dtype=complex) ** (-Nw),
        gamma_C=lambda nn=None: unit_circle_quadrature(nn),
        sheet_of=lambda z: 0, phi_inv=lambda k, z: np.asarray(z, dtype=complex),
        V_is_full=True)


# --- surface kernels ----------------------------------------------------

def r_lambda(chart: Genus0Chart, system: mops.MOPSystem,
             w_sheet: int, w, z_sheet: int, z,
             spectral: SpectralData | None = None) -> complex:
    """R^lam(w^(j), z^(k)) = einv_j(w) R_N(w, z) e_k(z)."""
    sd = spectral if spectral is not None else chart.family.spectral()
    R = mops.cd_kernel_formula(system, w, z)
    return complex(sd.evec_inv(w_sheet, w) @ R @ sd.evec(z_sheet, z))


def r_lambda_matrix(spectral: SpectralData, system: mops.MOPSystem,
                    w, z) -> np.ndarray:
    """[R^lam(w^(j), z^(k))]_{jk} = E(w)^{-1} R_N(w, z) E(z)."""
    r = spectral.r
    R = mops.cd_kernel_formula(system, w, z)
    Einv = np.stack([spectral.evec_inv(j, w) for j in range(r)])
    E = np.stack([spectral.evec(k, z) for k in range(r)], axis=-1)
    return Einv @ R @ E


def frak_R(chart: Genus0Chart, system: mops.MOPSystem, omega, zeta):
    """S(omega, zeta) = hhat(omega) einv_phi(omega) R_N(phi(omega),
    phi(zeta)) e_phi(zeta) h(zeta).

    Scalars give a scalar; 1-D arrays give the full product table."""
    om = np.atleast_1d(np.asarray(omega, dtype=complex))
    ze = np.atleast_1d(np.asarray(zeta, dtype=complex))
    R = mops.cd_kernel(system, chart.phi(om)[:, None], chart.phi(ze)[None, :])
    left = chart.hhat(om)[:, None] * chart.einv_phi(om)   # (nw, r)
    right = chart.e_phi(ze) * chart.h(ze)[:, None]        # (nz, r)
    out = np.einsum("ka,kjab,jb->kj", left, R, right)
    if np.ndim(omega) == 0 and np.ndim(zeta) == 0:
        return out[0, 0]
    return out


def frak_R_w_nodes(chart: Genus0Chart, system: mops.MOPSystem,
                   omega_nodes: np.ndarray, zeta: complex) -> np.ndarray:
    """S(omega_j, zeta) over an array of omega nodes (sum-form kernel)."""
    Rw = mops.cd_kernel(system, chart.phi(omega_nodes),
                        complex(chart.phi(zeta)))
    left = chart.hhat(omega_nodes)[..., None] * chart.einv_phi(omega_nodes)
    right = chart.e_phi(zeta) * complex(chart.h(zeta))
    return np.einsum("na,nab,b->n", left, Rw, right)


# --- reproducing-property verifiers -------------------------------------

def check_reproducing_surface(chart: Genus0Chart, system: mops.MOPSystem,
                              P_coeffs: np.ndarray, z_sheet: int, z: complex,
                              quad: ContourQuadrature) -> float:
    """Residual of the surface reproducing property for
    f(w^(j)) = P(w) e_j(w), with the gamma_M integral realized as a sum
    of plane integrals over the sheets."""
    sd = chart.family.spectral()
    r = sd.r
    P_coeffs = np.asarray(P_coeffs, dtype=complex)  # shape (n, r)
    nodes = quad.nodes

    Pvals = _row_poly(P_coeffs, nodes)

    # v(w) = sum_j f(w^(j)) lam_j(w) einv_j(w): a row covector per node
    v = np.zeros(nodes.shape + (r,), dtype=complex)
    for j in range(r):
        e_j = sd.evec(j, nodes)
        f_j = np.sum(Pvals * e_j, axis=-1)
        v += (f_j * sd.lam(j, nodes))[..., None] * sd.evec_inv(j, nodes)

    Rw = mops.cd_kernel(system, nodes, z)
    integ = np.einsum("n,na,nab->b", quad.weights, v, Rw)
    val = integ @ sd.evec(z_sheet, z)

    target = _row_poly(P_coeffs, z) @ sd.evec(z_sheet, z)
    return float(abs(val - target))


def check_reproducing_surface_dual(chart: Genus0Chart,
                                   system: mops.MOPSystem,
                                   P_coeffs: np.ndarray, w_sheet: int,
                                   w: complex,
                                   quad: ContourQuadrature) -> float:
    """Dual version for f*(z^(j)) = einv_j(z) P(z), integrating in z."""
    sd = chart.family.spectral()
    r = sd.r
    P_coeffs = np.asarray(P_coeffs, dtype=complex)  # shape (n, r)
    nodes = quad.nodes

    Pvals = _row_poly(P_coeffs, nodes)

    # u(z) = sum_j e_j(z) lam_j(z) f*(z^(j)): a column vector per node
    u = np.zeros(nodes.shape + (r,), dtype=complex)
    for j in range(r):
        fst_j = np.sum(sd.evec_inv(j, nodes) * Pvals, axis=-1)
        u += (fst_j * sd.lam(j, nodes))[..., None] * sd.evec(j, nodes)

    Rz = mops.cd_kernel(system, w, nodes)
    integ = np.einsum("n,nab,nb->a", quad.weights, Rz, u)
    val = sd.evec_inv(w_sheet, w) @ integ

    target = sd.evec_inv(w_sheet, w) @ _row_poly(P_coeffs, w)
    return float(abs(val - target))


def check_reproducing_plane(chart: Genus0Chart, kernel: Callable,
                            p: Callable, zeta: complex,
                            n_nodes: int | None = None) -> float:
    """| int_{gamma_C} p(omega) W_s(omega) S(omega, zeta) d omega - p(zeta) |.

    kernel(omega_nodes, zeta) must return S on an array of omega values.
    """
    quad = chart.gamma_C(n_nodes if n_nodes is not None else default_n())
    Sw = kernel(quad.nodes, zeta)
    val = np.sum(quad.weights * p(quad.nodes)
                 * chart.scalar_weight(quad.nodes) * Sw)
    return float(abs(val - complex(p(zeta))))
