"""Plane contours and quadrature rules.

A contour is stored directly as a quadrature rule: complex nodes plus
complex weights with the dz measure absorbed, so that

    quad.integrate(f) == sum_j weights[j] * f(nodes[j])

approximates the oriented contour integral of f.  Circles use the
trapezoid rule, which is spectrally accurate for integrands analytic in
an annulus around the circle and *exact* (up to rounding) for Laurent
monomials z^k with -n <= k <= n-2: it returns 2*pi*i for k = -1 and 0
for the others, while k = -n-1 and k = n-1 alias to k = -1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .weights import check_integers

DEFAULT_N = 256


@dataclass(frozen=True)
class ContourQuadrature:
    """Quadrature rule for a finite union of oriented curves; the
    orientation is carried by the sign of the weights."""

    nodes: np.ndarray    # complex nodes, shape (n,)
    weights: np.ndarray  # complex weights absorbing dz, shape (n,)

    def __post_init__(self):
        for name in ("nodes", "weights"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)))
        if self.nodes.shape != self.weights.shape:
            raise InvalidArgumentError("nodes/weights shape mismatch")

    @property
    def size(self) -> int:
        return self.nodes.size

    def reversed(self) -> "ContourQuadrature":
        """Same curve with opposite orientation (negated weights)."""
        return ContourQuadrature(self.nodes, -self.weights)

    def integrate(self, f) -> complex | np.ndarray:
        """Integrate a callable (vectorized over nodes if possible)."""
        try:
            vals = f(self.nodes)
            vals = np.asarray(vals)
            if vals.shape[:1] != self.nodes.shape:
                raise ValueError
        except Exception:
            vals = np.array([f(z) for z in self.nodes])
        return np.tensordot(self.weights, vals, axes=(0, 0))


def circle_quadrature(center: complex, radius: float,
                      n: int = DEFAULT_N) -> ContourQuadrature:
    """Trapezoid rule on a positively oriented circle; weights are
    (2*pi*i/n)*(z_j - center).  `reversed()` gives the other orientation."""
    check_integers("node count n", 0, n)
    if n < 1:
        raise InvalidArgumentError(f"need n >= 1 nodes, got {n}")
    if radius <= 0:
        raise InvalidArgumentError(f"radius must be positive, got {radius}")
    j = np.arange(n)
    unit = np.exp(2j * np.pi * j / n)
    nodes = center + radius * unit
    weights = (2j * np.pi / n) * (nodes - center)
    return ContourQuadrature(nodes, weights)


def unit_circle_quadrature(n: int = DEFAULT_N) -> ContourQuadrature:
    """Positively oriented unit circle, nodes exp(2*pi*i*j/n)."""
    return circle_quadrature(0.0, 1.0, n)


def union_quadrature(parts: list[ContourQuadrature]) -> ContourQuadrature:
    """The union of the parts' curves: their nodes and weights
    concatenated."""
    if not parts:
        raise InvalidArgumentError("union of zero contours")
    return ContourQuadrature(np.concatenate([p.nodes for p in parts]),
                             np.concatenate([p.weights for p in parts]))
