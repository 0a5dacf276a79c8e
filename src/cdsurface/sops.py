"""Scalar orthogonal polynomials and the scalar CD kernel.

Thin r=1 specialization of the matrix solver in `mops`, so the scalar
and matrix paths share one numerical policy (same solver, same condition
thresholds, same epsilon for the CD formula's removable singularity).

The weight here is a scalar function on a plane contour; in the surface
construction it is the push-forward 𝒲 of a matrix weight to the
uniformizing plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import mops
from .contour import ContourQuadrature
from .errors import SingularSystemError  # noqa: F401  (re-export for callers)

TWO_PI_I = 2j * np.pi


@dataclass(frozen=True)
class ScalarOPSystem:
    """Monic p_j (j <= n) and dual q_j (j <= n-1) for a scalar weight.

    As in the matrix case, individual degrees may fail to exist even
    when the degree-n kernel does; `kernel_coeffs` (the inverse of the
    Hankel moment matrix) always represents the kernel when it exists,
    and missing degrees are recorded in `missing`."""

    n: int
    p: tuple                 # coefficient arrays, low order first (or None)
    q: tuple
    moments: np.ndarray      # m_0 .. m_{2n}
    weight: Callable
    kernel_coeffs: np.ndarray  # (n, n): R_n(w, z) = sum_ab w^a C_ab z^b
    conditions: dict = field(default_factory=dict)
    missing: dict = field(default_factory=dict)

    def p_at(self, j: int, x):
        if self.p[j] is None:
            raise SingularSystemError(
                f"monic polynomial of degree {j} does not exist: "
                f"{self.missing[('P', j)]}")
        return npoly.polyval(np.asarray(x, dtype=complex), self.p[j])

    def q_at(self, j: int, x):
        if self.q[j] is None:
            raise SingularSystemError(
                f"dual polynomial of degree {j} does not exist: "
                f"{self.missing[('Q', j)]}")
        return npoly.polyval(np.asarray(x, dtype=complex), self.q[j])


def scalar_moments(weight: Callable, quad: ContourQuadrature,
                   n: int) -> np.ndarray:
    """m_k = int zeta^k W(zeta) d zeta for k = 0..2n."""
    z = quad.nodes
    wv = weight(z) * quad.weights
    powers = z[None, :] ** np.arange(2 * n + 1)[:, None]
    return powers @ wv


def solve_scalar_ops(weight: Callable, quad: ContourQuadrature,
                     n: int, cond_max: float = mops.COND_MAX) -> ScalarOPSystem:
    """Solve the scalar moment systems through degree n."""
    m = scalar_moments(weight, quad, n)
    system = mops.solve_mops(m.reshape(-1, 1, 1), n, cond_max)
    p = tuple(None if poly is None else poly.coeffs[:, 0, 0].copy()
              for poly in tuple.__iter__(system.PL))
    q = tuple(None if poly is None else poly.coeffs[:, 0, 0].copy()
              for poly in tuple.__iter__(system.QL))
    return ScalarOPSystem(n=n, p=p, q=q, moments=m, weight=weight,
                          kernel_coeffs=system.kernel_coeffs[:, :, 0, 0].copy(),
                          conditions=dict(system.conditions),
                          missing=dict(system.missing))


def scalar_cd_kernel(system: ScalarOPSystem, omega, zeta):
    """R_n(omega, zeta) through the inverted Hankel moment matrix;
    no removable singularity at omega = zeta, and valid even when
    intermediate-degree polynomials do not exist.  omega and zeta
    broadcast: pass omega[:, None] and zeta[None, :] for a product grid."""
    wp = mops._powers(omega, system.n)
    zp = mops._powers(zeta, system.n)
    return np.einsum("...a,ab,...b->...", wp, system.kernel_coeffs, zp)


def scalar_cd_kernel_formula(system: ScalarOPSystem, omega, zeta,
                             eps_switch: float = mops.EPS_SWITCH):
    """(zeta-omega)^{-1} (q_{n-1}(omega) p_n(zeta) - p_n(omega) q_{n-1}(zeta)),
    falling back to the biorthogonal sum per pair with omega near zeta."""
    def formula(omega, zeta):
        n = system.n
        num = (system.q_at(n - 1, omega) * system.p_at(n, zeta)
               - system.p_at(n, omega) * system.q_at(n - 1, zeta))
        return num / (zeta - omega)
    return mops._by_distance(
        omega, zeta, eps_switch, formula,
        lambda omega, zeta: scalar_cd_kernel_sum(system, omega, zeta))[()]


def scalar_cd_kernel_sum(system: ScalarOPSystem, omega, zeta):
    """sum_{j<n} q_j(omega) p_j(zeta)."""
    return sum(system.q_at(j, omega) * system.p_at(j, zeta)
               for j in range(system.n))


def assemble_scalar_Y(system: ScalarOPSystem, quad: ContourQuadrature,
                      zeta) -> np.ndarray:
    """2x2 Riemann-Hilbert matrix built from p_n and q_{n-1}."""
    n = system.n
    wn = system.weight(quad.nodes) * quad.weights
    pn = system.p_at(n, quad.nodes)
    qn = system.q_at(n - 1, quad.nodes)
    denom = quad.nodes - zeta
    Y = np.empty((2, 2), dtype=complex)
    Y[0, 0] = system.p_at(n, zeta)
    Y[0, 1] = np.sum(pn * wn / denom) / TWO_PI_I
    Y[1, 0] = -TWO_PI_I * system.q_at(n - 1, zeta)
    Y[1, 1] = -np.sum(qn * wn / denom)
    return Y


def scalar_kernel_from_Y(system: ScalarOPSystem, quad: ContourQuadrature,
                         omega, zeta) -> complex:
    """(2 pi i (zeta-omega))^{-1} (0 1) Y^{-1}(omega) Y(zeta) (1 0)^T,
    with Y^{-1} from unimodularity: [[d, -b], [-c, a]]."""
    Yw = assemble_scalar_Y(system, quad, omega)
    Yz = assemble_scalar_Y(system, quad, zeta)
    row = np.array([-Yw[1, 0], Yw[0, 0]])  # bottom row of Y^{-1} (det = 1)
    return (row @ Yz[:, 0]) / (TWO_PI_I * (zeta - omega))


def scalar_reproducing_residual(system: ScalarOPSystem,
                                quad: ContourQuadrature,
                                p_coeffs: np.ndarray, zeta) -> float:
    """| int p(omega) W(omega) R(omega, zeta) d omega - p(zeta) |."""
    pw = npoly.polyval(quad.nodes, p_coeffs)
    Kw = scalar_cd_kernel(system, quad.nodes, zeta)
    val = np.sum(quad.weights * pw * system.weight(quad.nodes) * Kw)
    return float(abs(val - npoly.polyval(np.asarray(zeta, dtype=complex),
                                         p_coeffs)))
