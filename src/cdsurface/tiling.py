"""Hexagon lozenge-tiling models with r x q periodic edge weights.

A tiling of the (L, M, N) hexagon is encoded as N non-intersecting
monotone lattice paths; the induced determinantal point process has a
correlation kernel given by a double contour integral built from the
matrix CD kernel of W(z) = z^{-(M+N)/r} A(z)^{L/q}, where A is the
product of the r x r column-transfer matrices of one period.

This module provides:

  * HexagonModel       -- geometry, edge weights, transfer matrices;
  * DKEvaluator / dk_kernel -- the matrix double-contour kernel;
  * simplified_kernel_general -- the scalarized forms (sheet sum on the
    spectral curve, and the genus-0 plane form through a chart);
  * simplified_kernel_2x1 / simplified_kernel_2x2 -- fully explicit
    formulas whose integrands contain only a *scalar* CD kernel;
  * uniform_scalar_kernel -- the classical scalar-weight kernel of the
    uniform measure (independent oracle route through `sops`);
  * enumerate_path_systems, point_probability, lgv_partition_function,
    macmahon_count -- brute-force and closed-form oracles.

The DK, sheet, plane and explicit routes evaluate one double-contour
block (`_contour_block`) and contract it through CD kernel coefficients
(`mops.kernel_integral`); they differ only in their nodes, their kernel
coefficients and how they write powers of the period matrix.  A block
serves one column pair and any batch of heights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb
from typing import NamedTuple

import numpy as np

from . import mops, sops
from .contour import default_n, unit_circle_quadrature
from .errors import InvalidArgumentError, SizeGuardError, \
    UnsupportedFamilyError
from .surface import build_chart
from .weights import CyclicUniform, Periodic2x1, Periodic2x2, WeightFamily

TWO_PI_I = 2j * np.pi

#: largest number of candidate lattice configurations the brute-force
#: path enumeration will attempt.
ENUMERATION_GUARD = 10_000_000


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HexagonModel:
    """(L, M, N) hexagon with vertically r-periodic, horizontally
    q-periodic edge weights a[l][j] (up-steps) and b[l][j] (flat steps).

    Requires L a multiple of q and M, N multiples of r."""

    r: int
    q: int
    L: int
    M: int
    N: int
    a: tuple   # q rows of r up-step weights
    b: tuple   # q rows of r flat-step weights

    def __post_init__(self):
        a = tuple(tuple(float(x) for x in row) for row in self.a)
        b = tuple(tuple(float(x) for x in row) for row in self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if self.r < 1 or self.q < 1:
            raise InvalidArgumentError("hexagon: need r, q >= 1")
        if len(a) != self.q or len(b) != self.q \
                or any(len(row) != self.r for row in a + b):
            raise InvalidArgumentError(
                "hexagon: weight tables must have shape (q, r)")
        if any(x <= 0 for row in a + b for x in row):
            raise InvalidArgumentError("hexagon: edge weights must be > 0")
        if self.L < 1 or self.M < 1 or self.N < 1:
            raise InvalidArgumentError("hexagon: need L, M, N >= 1")
        if self.L % self.q != 0:
            raise InvalidArgumentError("hexagon: L must be a multiple of q")
        if self.M % self.r != 0 or self.N % self.r != 0:
            raise InvalidArgumentError(
                "hexagon: M and N must be multiples of r")
        if self.L < self.M:
            raise InvalidArgumentError("hexagon: need L >= M")

    @classmethod
    def uniform(cls, L: int, M: int, N: int, r: int = 1,
                q: int = 1) -> "HexagonModel":
        ones = tuple(tuple(1.0 for _ in range(r)) for _ in range(q))
        return cls(r=r, q=q, L=L, M=M, N=N, a=ones, b=ones)

    @property
    def is_uniform(self) -> bool:
        return all(x == 1.0 for row in self.a + self.b for x in row)

    def transition(self, ell: int, z):
        """Column-transfer matrix A_ell(z): b on the diagonal, a on the
        superdiagonal, z * a[ell][r-1] in the bottom-left corner."""
        ell = ell % self.q
        arr = np.asarray(z, dtype=complex)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        r = self.r
        A = np.zeros(arr.shape + (r, r), dtype=complex)
        for j in range(r):
            A[..., j, j] = self.b[ell][j]
            if j + 1 < r:
                A[..., j, j + 1] = self.a[ell][j]
        A[..., r - 1, 0] += self.a[ell][r - 1] * arr
        return A[0] if scalar else A

    def period_matrix(self, z):
        """A(z) = A_0(z) ... A_{q-1}(z)."""
        A = self.transition(0, z)
        for ell in range(1, self.q):
            A = A @ self.transition(ell, z)
        return A

    def weight(self, z):
        """W(z) = z^{-(M+N)/r} A(z)^{L/q}."""
        arr = np.asarray(z, dtype=complex)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        W = np.linalg.matrix_power(self.period_matrix(arr), self.L // self.q)
        W = W * (arr ** (-(self.M + self.N) // self.r))[..., None, None]
        return W[0] if scalar else W

    def family(self) -> WeightFamily:
        """Matching closed-form weight family, when one exists."""
        if self.r == 2 and self.q == 1:
            return Periodic2x1(a0=self.a[0][0], a1=self.a[0][1],
                               b0=self.b[0][0], b1=self.b[0][1],
                               L=self.L, M=self.M, N=self.N)
        if self.r == 2 and self.q == 2:
            return Periodic2x2(a=self.a, b=self.b,
                               L=self.L, M=self.M, N=self.N)
        if self.q == 1 and self.r >= 2 and self.is_uniform:
            return CyclicUniform(r_size=self.r, L=self.L,
                                 R=(self.M + self.N) // self.r)
        raise UnsupportedFamilyError(
            f"no closed-form weight family for r={self.r}, q={self.q}")

    # --- path geometry ---------------------------------------------------

    def column_range(self, x: int) -> range:
        """Heights available to path vertices in column x."""
        lo = max(0, x - (self.L - self.M))
        hi = min(self.N + self.M - 1, x + self.N - 1)
        return range(lo, hi + 1)

    @property
    def starts(self) -> tuple:
        return tuple(range(self.N))

    @property
    def ends(self) -> tuple:
        return tuple(self.M + j for j in range(self.N))


def edge_weight(model: HexagonModel, edge) -> float:
    """Weight of the directed edge ((x, y), (x+1, y+d)), d in {0, 1}."""
    try:
        (x1, y1), (x2, y2) = edge
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"malformed edge {edge!r}") from exc
    if x2 != x1 + 1 or y2 - y1 not in (0, 1):
        raise InvalidArgumentError(f"malformed edge {edge!r}")
    table = model.b if y2 == y1 else model.a
    return table[x1 % model.q][y1 % model.r]


# ---------------------------------------------------------------------------
# kernel queries
# ---------------------------------------------------------------------------

class QueryGeometry(NamedTuple):
    """Exponents and transfer products of one block query.

    The double integral carries B2(w) A(w)^L2 ... A(z)^L1 B1(z) with
    B1 = prod1 and B2 = prod2; when chi, the single integral carries
    B4(z) A(z)^L3 B3(z).  Each B is A_lo(z) ... A_{hi-1}(z) over a column
    range (lo, hi), the identity when lo >= hi."""

    L1: int
    L2: int
    L3: int
    chi: bool
    prod1: tuple
    prod2: tuple
    B4: tuple
    B3: tuple


@dataclass(frozen=True)
class KernelQuery:
    """Block query: the r x r matrix [K(x1, r y1 + j, x2, r y2 + i)]_{i,j}.

    The heights y1, y2 may each be an int or a 1-D integer array; with
    arrays the query stands for every block of the (y2, y1) grid."""

    x1: int
    y1: int | np.ndarray
    x2: int
    y2: int | np.ndarray

    def indices(self, model: HexagonModel) -> QueryGeometry:
        """Exponent data and transfer-product ranges of the
        double-contour formula."""
        q = model.q
        L1 = self.x1 // q
        ceil2 = -(-self.x2 // q)
        L2 = model.L // q - ceil2
        if L1 < 0 or L2 < 0:
            raise InvalidArgumentError(
                f"query columns out of range: {self.x1}, {self.x2}")
        prod1 = (q * L1, self.x1)
        prod2 = (self.x2, q * ceil2)
        if L1 >= ceil2:
            B4, B3 = prod2, prod1
        else:
            B4, B3 = (self.x2, self.x1 + 1), (0, 0)
        return QueryGeometry(L1, L2, max(L1 - ceil2, 0), self.x1 > self.x2,
                             prod1, prod2, B4, B3)


def _transfer_product(model: HexagonModel, cols: tuple, z) -> np.ndarray:
    """A_lo(z) A_{lo+1}(z) ... A_{hi-1}(z) at points z, (lo, hi) = cols."""
    out = np.broadcast_to(np.eye(model.r, dtype=complex),
                          np.shape(z) + (model.r, model.r)).copy()
    for ell in range(*cols):
        out = out @ model.transition(ell, z)
    return out


def _heights(y) -> tuple:
    """A query's heights as a list of ints, and the result axes they
    give: () for an int height, (len(y),) for an array."""
    if np.ndim(y) == 0:
        return [int(y)], ()
    return [int(v) for v in y], (len(y),)


def _node_powers(x, exps) -> np.ndarray:
    """(n, len(exps)): x ** e per node for every int e of `exps`.

    Each power is taken with a Python int exponent, as for a single
    height (numpy rounds array-exponent powers differently), so a
    height's factor is the same number in any batch of heights."""
    return np.array([x ** e for e in exps]).T


def _contour_block(model: HexagonModel, query: KernelQuery, x, wts,
                   powers, coeffs, at) -> np.ndarray:
    """The block that every tiling route evaluates,

        int int w^(y2-h) B2(w) P_L2(w) R(w, z) P_L1(z) B1(z) z^(-y1-1)
          - chi int z^(y2-y1-1) B4(z) P_L3(z) B3(z),      h = (M+N)/r,

    with dw dz / (2 pi i) over nodes whose base-plane points are `x` and
    whose weights `wts` include the Jacobian.  The routes differ in the
    nodes, in the kernel R(w, z) = sum_ab w^a C_ab z^b (`coeffs`, taken
    at the points `at`), and in how they write the period-matrix power
    P_p = A^p: `powers` = (left, right, chi), each p -> per-node factor,
    where left (n, r, s) and right (n, s, r) meet R's s x s values.

    The heights enter only through the scalar node factors, so the
    transfer products and powers are formed once for all heights of the
    query; the result has shape shape(y2) + shape(y1) + (r, r)."""
    g = query.indices(model)
    half = (model.M + model.N) // model.r
    left_power, right_power, chi_power = powers
    y1s, shape1 = _heights(query.y1)
    y2s, shape2 = _heights(query.y2)
    wn = wts[:, None]

    def prod(cols):
        return _transfer_product(model, cols, x)

    cw = wn * _node_powers(x, [y - half for y in y2s])
    cz = wn * _node_powers(x, [-y - 1 for y in y1s]) / TWO_PI_I
    left = cw[:, :, None, None] * (prod(g.prod2) @ left_power(g.L2))[:, None]
    right = cz[:, None, :, None] \
        * (right_power(g.L1) @ prod(g.prod1))[:, :, None]
    # kernel_integral gives (y2, r, y1, r); blocks are indexed (y2, y1)
    out = mops.kernel_integral(coeffs, at, left, at, right)
    out = out.transpose(0, 2, 1, 3)
    if g.chi:
        exps = [b - a - 1 for b in y2s for a in y1s]
        c = _node_powers(x, exps).reshape(-1, len(y2s), len(y1s))
        c = wn[:, :, None] * c / TWO_PI_I
        out = out - np.einsum("nij,nab,nbc,ncd->ijad", c, prod(g.B4),
                              chi_power(g.L3), prod(g.B3))
    return out.reshape(shape2 + shape1 + out.shape[2:])


def _spectral_power(lams, cols, rows):
    """p -> sum_k lams[k]^p cols[k] rows[k]^T per node: A^p written
    through eigenvalues, eigenvector columns and inverse rows."""
    def power(p):
        return sum((lam ** p)[:, None, None] * col[:, :, None]
                   * row[:, None, :]
                   for lam, col, row in zip(lams, cols, rows))
    return power


# ---------------------------------------------------------------------------
# DK matrix-kernel evaluator
# ---------------------------------------------------------------------------

class DKEvaluator:
    """Double-contour kernel evaluator for one model and node count.

    Holds O(n) data on the n-point unit-circle quadrature: the matrix CD
    kernel coefficients of W at degree N/r, the period matrix A at the
    nodes and a cache of its integer powers."""

    def __init__(self, model: HexagonModel, n: int | None = None,
                 cond_max: float = mops.COND_MAX):
        self.model = model
        self.quad = unit_circle_quadrature(n)
        self.system = mops.mop_system(model, self.quad, model.N // model.r,
                                      cond_max)
        self._A = model.period_matrix(self.quad.nodes)
        self._Apow = {0: np.broadcast_to(np.eye(model.r, dtype=complex),
                                         self._A.shape).copy(),
                      1: self._A}

    def A_power(self, p: int) -> np.ndarray:
        if p not in self._Apow:
            self._Apow[p] = np.linalg.matrix_power(self._A, p)
        return self._Apow[p]

    def block(self, query: KernelQuery) -> np.ndarray:
        """[K(x1, r y1 + j, x2, r y2 + i)]_{i,j=0}^{r-1}; with height
        arrays, the stack of these blocks indexed by (y2, y1)."""
        z = self.quad.nodes
        powers = (self.A_power,) * 3
        return _contour_block(self.model, query, z, self.quad.weights,
                              powers, self.system.kernel_coeffs, z)

    def scalar(self, x1: int, Y1: int, x2: int, Y2: int) -> complex:
        """K(x1, Y1, x2, Y2) for general integer heights Y1, Y2."""
        r = self.model.r
        blk = self.block(KernelQuery(x1, Y1 // r, x2, Y2 // r))
        return blk[Y2 % r, Y1 % r]


@lru_cache(maxsize=16)
def _dk_evaluator(model: HexagonModel, n: int) -> DKEvaluator:
    return DKEvaluator(model, n)


def dk_evaluator(model: HexagonModel, n: int | None = None) -> DKEvaluator:
    return _dk_evaluator(model, n if n is not None else default_n())


def dk_kernel(model: HexagonModel, query: KernelQuery,
              n: int | None = None) -> np.ndarray:
    """Matrix correlation-kernel block via the double-contour formula."""
    return dk_evaluator(model, n).block(query)


# ---------------------------------------------------------------------------
# scalarized kernel routes
# ---------------------------------------------------------------------------

def _chart_nodes(model: HexagonModel, n: int | None):
    """Chart of the model's family at MOP degree N/r, its pulled-back
    contour gamma_C and the chart data at the contour's nodes zeta:
    (chart, quad, phi, weights times dphi, lamhat, e, einv)."""
    chart = build_chart(model.family(), model.N // model.r)
    quad = chart.gamma_C(n if n is not None else default_n())
    zeta = quad.nodes
    return (chart, quad, chart.phi(zeta), quad.weights * chart.dphi(zeta),
            chart.lamhat_phi(zeta), chart.e_phi(zeta), chart.einv_phi(zeta))


def simplified_kernel_general(model: HexagonModel, query: KernelQuery,
                              form: str = "plane",
                              n: int | None = None) -> np.ndarray:
    """Scalarized double-contour kernel.

    form="sheets": sum over sheet pairs of the spectral curve; A^p is
    written as sum_k lamhat_k^p e_k einv_k, so the integrand couples the
    sheets only through the scalar kernels einv_k(w) R(w, z) e_j(z) and
    the eigenvalue powers.

    form="plane": genus-0 plane form over the pulled-back contour
    gamma_C, where A^p on the sheet of phi(zeta) is
    lamhat(zeta)^p e_phi(zeta) einv_phi(zeta), with all large exponents
    on scalar functions of zeta."""
    if form not in ("sheets", "plane"):
        raise InvalidArgumentError(f"unknown form {form!r}")
    ev = dk_evaluator(model, n)
    coeffs = ev.system.kernel_coeffs
    if form == "sheets":
        spectral = model.family().spectral()
        z = ev.quad.nodes
        sheets = range(model.r)
        power = _spectral_power([spectral.lambda_hat(k, z) for k in sheets],
                                [spectral.evec(k, z) for k in sheets],
                                [spectral.evec_inv(k, z) for k in sheets])
        return _contour_block(model, query, z, ev.quad.weights,
                              (power,) * 3, coeffs, z)
    _, _, phi, wts, lamh, e, einv = _chart_nodes(model, n)
    power = _spectral_power([lamh], [e], [einv])
    return _contour_block(model, query, phi, wts, (power,) * 3, coeffs, phi)


def _explicit_kernel(model: HexagonModel, query: KernelQuery,
                     n: int | None) -> np.ndarray:
    """The plane form with the surface kernel replaced by the scalar CD
    kernel of the chart weight W_s(zeta) = lam(phi) dphi / (h hhat) in
    zeta: S(omega, zeta) = hhat(omega) einv R(phi(omega), phi(zeta)) e
    h(zeta), so the kernel's e, einv factors move into the scalar
    factors as e / hhat and einv / h.  The chart degree is the matrix MOP
    degree N/r; the scalar CD kernel then has degree r (N/r) = N."""
    chart, quad, phi, wts, lamh, e, einv = _chart_nodes(model, n)
    zeta = quad.nodes
    system = sops.solve_scalar_ops(chart.scalar_weight, quad, model.N)
    h, hhat = chart.h(zeta), chart.hhat(zeta)
    powers = (lambda p: (lamh ** p / hhat)[:, None, None] * e[:, :, None],
              lambda p: (lamh ** p / h)[:, None, None] * einv[:, None, :],
              _spectral_power([lamh], [e], [einv]))
    return _contour_block(model, query, phi, wts, powers,
                          system.kernel_coeffs[:, :, None, None], zeta)


def simplified_kernel_2x1(model: HexagonModel, query: KernelQuery,
                          n: int | None = None) -> np.ndarray:
    """Explicit scalarized kernel for r=2, q=1 models.

    The integrand contains only the scalar CD kernel of
    Ws(zeta) = (2 a0 a1)^{-1} ((b0+b1+zeta)/2)^L
               (4 a0 a1 / (zeta^2 - (b0-b1)^2))^{(M+N)/2}
    on a circle enclosing +-(b0 - b1); all matrix factors are constant-
    degree rational functions of the integration variables, read from
    the closed-form Periodic2x1 chart."""
    if model.r != 2 or model.q != 1:
        raise UnsupportedFamilyError("explicit 2x1 kernel needs r=2, q=1")
    return _explicit_kernel(model, query, n)


def simplified_kernel_2x2(model: HexagonModel, query: KernelQuery,
                          n: int | None = None) -> np.ndarray:
    """Explicit scalarized kernel for r=2, q=2 models.

    Columns are re-indexed as x1 = 2 m1 + eps1 and x2 = 2 m2 - eps2 so
    the partial transfer products reduce to single factors A_0^{eps1},
    A_1^{eps2}.  The scalar CD kernel of the chart weight is computed
    with `sops` on the pulled-back contour, which keeps this route
    numerically independent of the matrix-kernel path."""
    if model.r != 2 or model.q != 2:
        raise UnsupportedFamilyError("explicit 2x2 kernel needs r=2, q=2")
    return _explicit_kernel(model, query, n)


# --- uniform measure, scalar route ------------------------------------------

def uniform_scalar_kernel(L: int, M: int, N: int, x1: int, y1: int,
                          x2: int, y2: int,
                          n: int | None = None) -> complex:
    """Correlation kernel of the uniform measure through the scalar
    weight (1+z)^L z^{-M-N}; independent of the matrix-kernel path."""

    def wtilde(z):
        return (1 + z) ** L * z ** (-(M + N))

    quad = unit_circle_quadrature(n)
    z = quad.nodes
    system = sops.solve_scalar_ops(wtilde, quad, N)
    cu = quad.weights * (1 + z) ** (L - x2) * z ** (y2 - M - N)
    cv = quad.weights * (1 + z) ** x1 * z ** (-y1 - 1) / TWO_PI_I
    out = complex(mops.kernel_integral(system.kernel_coeffs, z, cu, z, cv))
    if x1 > x2:
        c = quad.weights * (1 + z) ** (x1 - x2) * z ** (y2 - y1 - 1)
        out -= np.sum(c) / TWO_PI_I
    return out


# ---------------------------------------------------------------------------
# brute-force path oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathSystem:
    """N strictly ordered monotone paths; paths[i][x] is the height of
    path i in column x."""

    paths: tuple
    weight: float

    def passes_through(self, x: int, y: int) -> bool:
        return any(p[x] == y for p in self.paths)


def enumerate_path_systems(model: HexagonModel) -> list:
    """All systems of N non-intersecting paths with their weights."""
    L, M, N = model.L, model.M, model.N
    if comb(L, M) ** N > ENUMERATION_GUARD:
        raise SizeGuardError(
            f"enumeration guard exceeded: C({L},{M})^{N} > "
            f"{ENUMERATION_GUARD}")
    target = model.ends
    ranges = [model.column_range(x) for x in range(L + 1)]
    out = []

    def step_weight(x, ys, steps):
        w = 1.0
        for y, dlt in zip(ys, steps):
            table = model.a if dlt else model.b
            w *= table[x % model.q][y % model.r]
        return w

    def rec(x, ys, weight, hist):
        if x == L:
            if ys == target:
                paths = tuple(tuple(row[i] for row in hist)
                              for i in range(N))
                out.append(PathSystem(paths=paths, weight=weight))
            return
        rng = ranges[x + 1]
        for steps in product((0, 1), repeat=N):
            nys = tuple(y + dlt for y, dlt in zip(ys, steps))
            if any(n2 <= n1 for n1, n2 in zip(nys, nys[1:])):
                continue
            if nys[0] < rng.start or nys[-1] >= rng.stop:
                continue
            rec(x + 1, nys, weight * step_weight(x, ys, steps),
                hist + (nys,))

    start = model.starts
    rec(0, start, 1.0, (start,))
    return out


def partition_function(model: HexagonModel) -> float:
    return sum(s.weight for s in enumerate_path_systems(model))


def lgv_partition_function(model: HexagonModel) -> float:
    """Partition function as the determinant of the single-path
    weighted-count matrix (Lindstrom-Gessel-Viennot)."""
    L, N = model.L, model.N

    def path_counts(y0):
        dp = {y0: 1.0}
        for x in range(L):
            rng = model.column_range(x + 1)
            ndp = {}
            for y, w in dp.items():
                for dlt in (0, 1):
                    ny = y + dlt
                    if rng.start <= ny < rng.stop:
                        table = model.a if dlt else model.b
                        ndp[ny] = ndp.get(ny, 0.0) \
                            + w * table[x % model.q][y % model.r]
            dp = ndp
        return dp

    mat = np.zeros((N, N))
    for i, y0 in enumerate(model.starts):
        dp = path_counts(y0)
        for j, y1 in enumerate(model.ends):
            mat[i, j] = dp.get(y1, 0.0)
    return float(np.linalg.det(mat))


def macmahon_count(L: int, M: int, N: int) -> int:
    """Number of lozenge tilings of the uniform (L, M, N) hexagon
    (boxed-plane-partition product formula with box M x N x (L-M))."""
    a, b, c = M, N, L - M
    total = Fraction(1)
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                total *= Fraction(i + j + k - 1, i + j + k - 2)
    assert total.denominator == 1
    return int(total)


# ---------------------------------------------------------------------------
# determinantal probabilities
# ---------------------------------------------------------------------------

def point_probability(model: HexagonModel, points,
                      route: str = "determinant",
                      n: int | None = None) -> float:
    """P(a path passes through every point in `points`).

    route="determinant": det[K(x_i, y_i, x_j, y_j)] via the matrix
    double-contour kernel.  route="enumeration": exhaustive-path ratio."""
    points = list(points)
    if len(set(points)) != len(points):
        raise InvalidArgumentError("points must be distinct")
    if not points:
        return 1.0
    for x, y in points:
        if not 0 <= x <= model.L:
            raise InvalidArgumentError(f"point column {x} outside [0, L]")

    if route == "enumeration":
        systems = enumerate_path_systems(model)
        Z = sum(s.weight for s in systems)
        hit = sum(s.weight for s in systems
                  if all(s.passes_through(x, y) for x, y in points))
        return hit / Z

    if route != "determinant":
        raise InvalidArgumentError(f"unknown route {route!r}")

    ev = dk_evaluator(model, n)
    m = len(points)
    mat = np.empty((m, m), dtype=complex)
    for i, (xi, yi) in enumerate(points):
        for j, (xj, yj) in enumerate(points):
            mat[i, j] = ev.scalar(xi, yi, xj, yj)
    return float(np.linalg.det(mat).real)


def column_probabilities(model: HexagonModel, x: int,
                         n: int | None = None) -> dict:
    """{y: P(point at (x, y))} over the admissible heights of column x.

    P = K(x, y, x, y); every height of the column comes from one
    double-contour block over the block heights y // r."""
    if not 0 <= x <= model.L:
        raise InvalidArgumentError(f"column {x} outside [0, L]")
    ys = model.column_range(x)
    r, lo = model.r, ys[0] // model.r
    heights = np.arange(lo, ys[-1] // r + 1)
    blk = dk_evaluator(model, n).block(KernelQuery(x, heights, x, heights))
    return {y: float(blk[y // r - lo, y // r - lo, y % r, y % r].real)
            for y in ys}
