"""Scalar orthogonal polynomials: the r = 1 case of `mops`.

A scalar weight is a 1 x 1 matrix weight, so the scalar system is the
`mops.MOPSystem` of the 1 x 1 moments, with the same solver, condition
thresholds and kernel routes.  Its monic polynomials are `PL[j]` and
its duals `QL[j]` (equal to `PR[j]` and `QR[j]`), and the scalar CD
kernel is the (0, 0) entry of any kernel route, e.g.
`mops.cd_kernel(system, omega, zeta)[..., 0, 0]`.

The weight here is a scalar function on a plane contour; in the surface
construction it is the push-forward 𝒲 of a matrix weight to the
uniformizing plane.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import mops
from .contour import ContourQuadrature


def scalar_moments(weight: Callable, quad: ContourQuadrature,
                   n: int) -> np.ndarray:
    """m_k = int zeta^k W(zeta) d zeta for k = 0..2n."""
    z = quad.nodes
    wv = weight(z) * quad.weights
    powers = z[None, :] ** np.arange(2 * n + 1)[:, None]
    return powers @ wv


def solve_scalar_ops(weight: Callable, quad: ContourQuadrature,
                     n: int) -> mops.MOPSystem:
    """The r = 1 `MOPSystem` of the scalar moment systems through degree
    n; raises SingularSystemError when the degree-n kernel does not
    exist, and records missing lower degrees in `missing`."""
    return mops.solve_mops(scalar_moments(weight, quad, n).reshape(-1, 1, 1),
                           n)
