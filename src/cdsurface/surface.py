"""Genus-0 uniformization charts and the scalarized kernels.

For each supported weight family the r-sheeted spectral curve is a
genus-0 Riemann surface with an explicit rational uniformization
zeta -> (phi(zeta), eta(zeta)) onto the family's curve points (z, eta).
A chart supplies only the uniformization:

  phi, dphi      projection to the base plane and its derivative,
  eta            the curve coordinate over phi(zeta),
  h, hhat        rational correction factors clearing the poles of
                 e / einv at the points above infinity,
  scalar_weight  the induced scalar weight
                 W_s(zeta) = lam(phi(zeta)) dphi(zeta) / (h(zeta) hhat(zeta)),
                 in a hand-simplified form,
  gamma_C        the pulled-back contour phi^{-1}(gamma),
  phi_inv        the inverse (sheet, z) -> zeta.

`point(zeta)` is the curve point (phi(zeta), eta(zeta)); the eigen-data
pulled back through the chart are the family's curve functions there,
e(zeta) = family.evec(*point(zeta)), einv and lamhat likewise, and
`sheet_of` is the sheet whose branch eta(k, phi(zeta)) lies nearest
eta(zeta).

The surface kernel R^lam(w^(j), z^(k)) = einv_j(w) R_N(w, z) e_k(z) is
scalar-valued; its genus-0 scalarization
S(omega, zeta) = hhat(omega) R^lam(phi(omega), phi(zeta)) h(zeta)
is a bivariate polynomial reproducing the rN-dimensional space V of
polynomials p(zeta) = sum_a P_a(phi(zeta)) e(zeta)_a h(zeta).
V equals all of P_{rN-1} exactly when the pole orders balance; otherwise
S is a reproducing kernel that is *not* a CD kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import mops
from .contour import DEFAULT_N, ContourQuadrature, circle_quadrature, \
    unit_circle_quadrature
from .errors import InconsistentParametersError, UnsupportedFamilyError
from .weights import (CyclicUniform, Periodic2x1, Periodic2x2, ScalarMonomial,
                      TwoByTwoRootK, WeightFamily)


def _row_poly(coeffs: np.ndarray, z) -> np.ndarray:
    """P(z) = sum_m coeffs[m] z^m for (n, r) coefficient rows, by Horner;
    shape z.shape + (r,)."""
    return np.moveaxis(npoly.polyval(np.asarray(z, dtype=complex), coeffs),
                       0, -1)


def _identity(zeta):
    return zeta


@dataclass(frozen=True)
class Genus0Chart:
    family: WeightFamily
    n: int                       # MOP degree the chart is built for
    phi: Callable
    dphi: Callable
    eta: Callable                # zeta -> curve coordinate over phi(zeta)
    h: Callable
    hhat: Callable
    scalar_weight: Callable
    gamma_C: Callable            # n_nodes -> ContourQuadrature
    phi_inv: Callable            # (sheet, z) -> zeta
    V_is_full: bool

    def point(self, zeta):
        """The curve point (phi(zeta), eta(zeta)) over zeta."""
        zeta = np.asarray(zeta, dtype=complex)
        return self.phi(zeta), self.eta(zeta)

    def sheet_of(self, zeta):
        """Sheet index of the curve point over zeta: the k whose branch
        eta(k, phi(zeta)) lies nearest eta(zeta)."""
        z, e = self.point(zeta)
        return np.argmin([np.abs(self.family.eta(k, z) - e)
                          for k in range(self.family.r)], axis=0)[()]

    def v_element(self, coeffs: np.ndarray) -> Callable:
        """Member of V from P in P_{n-1}^{1 x r}: coeffs shape (n, r),
        p(zeta) = sum_a P_a(phi(zeta)) e(zeta)[..., a] h(zeta)."""
        return self._element(coeffs, self.family.evec, self.h)

    def vstar_element(self, coeffs: np.ndarray) -> Callable:
        """Member of V*: p*(zeta) = hhat(zeta) einv(zeta) . P(phi)."""
        return self._element(coeffs, self.family.evec_inv, self.hhat)

    def _element(self, coeffs, vec: Callable, factor: Callable) -> Callable:
        """zeta -> sum_a P_a(phi(zeta)) vec(point(zeta))_a factor(zeta)."""
        coeffs = np.asarray(coeffs, dtype=complex)

        def p(zeta):
            zeta = np.asarray(zeta, dtype=complex)
            Pvals = _row_poly(coeffs, self.phi(zeta))
            return np.sum(Pvals * vec(*self.point(zeta)), axis=-1) \
                * factor(zeta)

        return p

    def v_basis(self) -> list:
        """The n r members of V whose P has one unit coefficient, (m, a)
        in row-major order."""
        return [self.v_element(c.reshape(self.n, -1))
                for c in np.eye(self.n * self.family.r)]


def build_chart(family: WeightFamily, n: int) -> Genus0Chart:
    """Closed-form genus-0 chart for a supported family at MOP degree n."""
    if isinstance(family, CyclicUniform):
        return _chart_cyclic(family, n)
    if isinstance(family, TwoByTwoRootK):
        return _chart_root_k(family, n)
    if isinstance(family, Periodic2x1):
        return _chart_periodic_2x1(family, n)
    if isinstance(family, Periodic2x2):
        if family.a_minus == 0:
            return _chart_periodic_2x2_case_a(family, n)
        return _chart_periodic_2x2_case_b(family, n)
    if isinstance(family, ScalarMonomial):
        return _chart_scalar_monomial(family, n)
    raise UnsupportedFamilyError(f"no genus-0 chart for {family!r}")


# Chart functions are plain numpy expressions in zeta, scalar or array.

def _chart_cyclic(family: CyclicUniform, n: int) -> Genus0Chart:
    r, L, R = family.r, family.L, family.R
    return Genus0Chart(
        family=family, n=n,
        phi=lambda z: z ** r, dphi=lambda z: r * z ** (r - 1),
        eta=_identity, h=np.ones_like, hhat=lambda z: z ** (r - 1),
        scalar_weight=lambda z: r * z ** (-r * R)
        * family.lamhat(z ** r, z) ** L,
        gamma_C=unit_circle_quadrature, phi_inv=family.eta,
        V_is_full=True)


def _chart_root_k(family: TwoByTwoRootK, n: int) -> Genus0Chart:
    k_exp, L, M = family.k, family.L, family.M

    def phi_inv(k, z):
        s = np.sqrt(np.asarray(z, dtype=complex))
        return s if k == 0 else -s

    return Genus0Chart(
        family=family, n=n,
        phi=lambda z: z ** 2, dphi=lambda z: 2 * z,
        eta=lambda z: z ** k_exp, h=np.ones_like,
        hhat=lambda z: z ** k_exp,
        scalar_weight=lambda z: 2 * z ** (-2 * M - k_exp + 1)
        * family.lamhat(z ** 2, z ** k_exp) ** L,
        gamma_C=unit_circle_quadrature, phi_inv=phi_inv,
        V_is_full=(k_exp == 1))


def _chart_periodic_2x1(family: Periodic2x1, n: int) -> Genus0Chart:
    a0, a1, b0, b1 = family.a0, family.a1, family.b0, family.b1
    L, half, z1 = family.L, family.shift, family.z1

    def phi(z):
        return z1 + z ** 2 / (4 * a0 * a1)

    def scalar_weight(zeta):
        return (family.lamhat(phi(zeta), zeta) ** L / (2 * a0 * a1)
                * (4 * a0 * a1 / (zeta ** 2 - (b0 - b1) ** 2)) ** half)

    return Genus0Chart(
        family=family, n=n,
        phi=phi, dphi=lambda z: z / (2 * a0 * a1),
        eta=_identity, h=np.ones_like, hhat=_identity,
        scalar_weight=scalar_weight,
        gamma_C=partial(circle_quadrature, 0.0, abs(b0 - b1) + 1.0),
        phi_inv=family.eta, V_is_full=True)


def _chart_periodic_2x2_case_a(family: Periodic2x2, n: int) -> Genus0Chart:
    c01, bm = family.c0 + family.c1, family.b_minus
    Lhalf, half = family.power, family.shift

    def phi(z):
        return (z ** 2 - bm ** 2) / (2 * c01)

    def scalar_weight(zeta):
        # dphi / (h hhat) = (zeta / c01) / zeta = 1 / c01
        return (family.lamhat(phi(zeta), zeta) ** Lhalf
                * phi(zeta) ** (-half) / c01)

    return Genus0Chart(
        family=family, n=n,
        phi=phi, dphi=lambda z: z / c01,
        eta=_identity, h=np.ones_like, hhat=_identity,
        scalar_weight=scalar_weight,
        gamma_C=partial(circle_quadrature, 0.0, abs(bm) + 1.0),
        phi_inv=family.eta, V_is_full=True)


def _chart_periodic_2x2_case_b(family: Periodic2x2, n: int) -> Genus0Chart:
    zm, zp = family.branch_points()
    Lhalf, half = family.power, family.shift
    kappa = (zp - zm) / 4
    sm, sp = np.sqrt(abs(zm)), np.sqrt(abs(zp))
    c = (sm - sp) / (sm + sp)
    if not (0 < c < 1):
        raise InconsistentParametersError(
            f"periodic-2x2(b): expected c in (0,1), got {c}")

    def phi(zeta):
        return kappa * (zeta - (c + 1 / c) + 1 / zeta)

    def eta(zeta):
        return family.a_minus * kappa * (zeta - 1 / zeta)

    def phi_inv(k, z):
        z = np.asarray(z, dtype=complex)
        # kappa zeta^2 - (kappa (c + 1/c) + z) zeta + kappa = 0
        bq = kappa * (c + 1 / c) + z
        disc = np.sqrt(bq ** 2 - 4 * kappa ** 2)
        roots = np.stack([(bq + disc) / (2 * kappa),
                          (bq - disc) / (2 * kappa)])
        target = family.eta(k, z)
        pick = np.abs(eta(roots[0]) - target) < np.abs(eta(roots[1]) - target)
        return np.where(pick, roots[0], roots[1])[()]

    def scalar_weight(zeta):
        # dphi / (h hhat) = kappa (zeta^2-1)/zeta^2 / (zeta^{2n-2}(zeta^2-1))
        #                 = kappa / zeta^{2n}: the zeta = +-1 poles cancel.
        return (family.lamhat(phi(zeta), eta(zeta)) ** Lhalf
                * phi(zeta) ** (-half) * kappa / zeta ** (2 * n))

    # Circle around c and 1/c excluding 0.  The integrands' poles sit at
    # {0, c, 1/c}, so the radius is placed midway between the enclosed
    # poles and the origin to balance the trapezoid convergence rates.
    center = (c + 1 / c) / 2
    radius = ((1 / c - c) / 2 + center) / 2
    if not (1 / c - c) / 2 < radius < center:
        raise InconsistentParametersError(
            "periodic-2x2(b): no circle separates {c, 1/c} from 0")

    return Genus0Chart(
        family=family, n=n,
        phi=phi, dphi=lambda z: kappa * (1 - z ** (-2)), eta=eta,
        h=lambda z: z ** n, hhat=lambda z: z ** (n - 2) * (z ** 2 - 1),
        scalar_weight=scalar_weight,
        gamma_C=partial(circle_quadrature, center, radius),
        phi_inv=phi_inv, V_is_full=True)


def _chart_scalar_monomial(family: ScalarMonomial, n: int) -> Genus0Chart:
    if family.r != 1:
        raise UnsupportedFamilyError(
            "scalar-monomial with r > 1 has a disconnected spectral curve; "
            "no genus-0 chart")
    Nw = family.N
    return Genus0Chart(
        family=family, n=n,
        phi=_identity, dphi=np.ones_like,
        eta=lambda z: family.eta(0, z), h=np.ones_like, hhat=np.ones_like,
        scalar_weight=lambda z: z ** (-Nw),
        gamma_C=unit_circle_quadrature, phi_inv=lambda k, z: z,
        V_is_full=True)


# --- surface kernels ----------------------------------------------------

def r_lambda_matrix(family: WeightFamily, system: mops.MOPSystem,
                    w, z) -> np.ndarray:
    """[R^lam(w^(j), z^(k))]_{jk} = E(w)^{-1} R_N(w, z) E(z)."""
    sheets = range(family.r)
    R = mops.cd_kernel_formula(system, w, z)
    Einv = np.stack([family.evec_inv(*family.point(j, w)) for j in sheets])
    E = np.stack([family.evec(*family.point(k, z)) for k in sheets], axis=-1)
    return Einv @ R @ E


def frak_R(chart: Genus0Chart, system: mops.MOPSystem, omega, zeta):
    """S(omega, zeta) = hhat(omega) einv(omega) R_N(phi(omega),
    phi(zeta)) e(zeta) h(zeta).

    omega and zeta, numbers or arrays, broadcast as in `mops.cd_kernel`:
    pass omega[:, None] and zeta[None, :] for the table on a product grid."""
    # The chart functions get omega and zeta as given: a Python number
    # made an array would take numpy's powers, not Python's, in phi.
    family = chart.family
    R = mops.cd_kernel(system, chart.phi(omega), chart.phi(zeta))
    left = (np.asarray(chart.hhat(omega))[..., None]
            * family.evec_inv(*chart.point(omega)))
    right = (family.evec(*chart.point(zeta))
             * np.asarray(chart.h(zeta))[..., None])
    return np.einsum("...a,...ab,...b->...", left, R, right)[()]


# --- reproducing-property verifiers -------------------------------------

def _sheet_sum(family: WeightFamily, nodes: np.ndarray, f: Callable,
               outer: Callable) -> np.ndarray:
    """sum_j f(pt_j) lam_j outer_j over the sheets j at the nodes, with
    pt_j = family.point(j, nodes): a vector per node."""
    out = np.zeros(nodes.shape + (family.r,), dtype=complex)
    for j in range(family.r):
        pt = family.point(j, nodes)
        out += (f(pt) * family.lam(*pt))[..., None] * outer(*pt)
    return out


def check_reproducing_surface(family: WeightFamily,
                              system: mops.MOPSystem, P_coeffs: np.ndarray,
                              z_sheet: int, z: complex,
                              quad: ContourQuadrature) -> float:
    """Residual of the surface reproducing property for
    f(w^(j)) = P(w) e_j(w), with the gamma_M integral realized as a sum
    of plane integrals over the sheets."""
    P_coeffs = np.asarray(P_coeffs, dtype=complex)  # shape (n, r)
    nodes = quad.nodes
    Pvals = _row_poly(P_coeffs, nodes)
    # v(w) = sum_j f(w^(j)) lam_j(w) einv_j(w): a row covector per node
    v = _sheet_sum(family, nodes, lambda pt: np.sum(
        Pvals * family.evec(*pt), axis=-1), family.evec_inv)
    Rw = mops.cd_kernel(system, nodes, z)
    e_z = family.evec(*family.point(z_sheet, z))
    val = np.einsum("n,na,nab->b", quad.weights, v, Rw) @ e_z
    return float(abs(val - _row_poly(P_coeffs, z) @ e_z))


def check_reproducing_surface_dual(family: WeightFamily,
                                   system: mops.MOPSystem,
                                   P_coeffs: np.ndarray, w_sheet: int,
                                   w: complex,
                                   quad: ContourQuadrature) -> float:
    """Dual version for f*(z^(j)) = einv_j(z) P(z), integrating in z."""
    P_coeffs = np.asarray(P_coeffs, dtype=complex)  # shape (n, r)
    nodes = quad.nodes
    Pvals = _row_poly(P_coeffs, nodes)
    # u(z) = sum_j e_j(z) lam_j(z) f*(z^(j)): a column vector per node
    u = _sheet_sum(family, nodes, lambda pt: np.sum(
        family.evec_inv(*pt) * Pvals, axis=-1), family.evec)
    Rz = mops.cd_kernel(system, w, nodes)
    einv_w = family.evec_inv(*family.point(w_sheet, w))
    val = einv_w @ np.einsum("n,nab,nb->a", quad.weights, Rz, u)
    return float(abs(val - einv_w @ _row_poly(P_coeffs, w)))


def check_reproducing_plane(chart: Genus0Chart, kernel: Callable,
                            p: Callable, zeta: complex,
                            n_nodes: int = DEFAULT_N) -> float:
    """| int_{gamma_C} p(omega) W_s(omega) S(omega, zeta) d omega - p(zeta) |.

    kernel(omega_nodes, zeta) must return S on an array of omega values.
    """
    quad = chart.gamma_C(n_nodes)
    Sw = kernel(quad.nodes, zeta)
    val = np.sum(quad.weights * p(quad.nodes)
                 * chart.scalar_weight(quad.nodes) * Sw)
    return float(abs(val - complex(p(zeta))))
