"""Hexagon lozenge-tiling models with r x q periodic edge weights.

A tiling of the (L, M, N) hexagon is encoded as N non-intersecting
monotone lattice paths; the induced determinantal point process has a
correlation kernel given by a double contour integral built from the
matrix CD kernel of W(z) = z^{-(M+N)/r} A(z)^{L/q}, where A is the
product of the r x r column-transfer matrices of one period.

This module provides:

  * HexagonModel, transfer -- geometry, edge weights, transfer matrices;
  * DKEvaluator / dk_kernel -- the matrix double-contour kernel;
  * simplified_kernel_general -- the scalarized forms (sheet sum on the
    spectral curve, and the genus-0 plane form through a chart);
  * simplified_kernel_2x1 / simplified_kernel_2x2 -- fully explicit
    formulas whose integrands contain only a *scalar* CD kernel;
  * uniform_scalar_kernel -- the classical scalar-weight kernel of the
    uniform measure (independent oracle route through `sops`);
  * ExactOracle -- the measure's kernel and probabilities in exact
    arithmetic (Eynard-Mehta on the transfer matrices);
  * point_probability, lgv_partition_function, macmahon_count --
    probabilities, the partition function and the uniform count.

Every kernel entry is one cell (x1, y1, x2, y2) of a double-contour
block (`_query_block`) on one of the DK, sheet, plane and explicit
routes, contracted through CD kernel coefficients; the routes differ
only in their nodes, their kernel coefficients and how they write
powers of the period matrix.  The integral factorizes as U^T C V - chi,
with U the moments of a left factor of (x2, y2) only and V those of a
right factor of (x1, y1) only.  Each route's node data is built once
per (model, n) on the cached `DKEvaluator` and memoized (see `_Route`),
down to each (column, height)'s U on the left and C V on the right, so
a warm cell reads its two entries, does one product U @ (C V) and
subtracts its chi integral, kept per height difference (`_chi`).  A
block of height arrays (`_grid_block`) projects each side's missing
heights of its column at once and stacks its cells' blocks, so every
block is its cells' own, bit for bit.  The evaluator also keeps each
column's one-point density K(x, y, x, y).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import accumulate, product
from math import prod
from weakref import ref

import numpy as np

from . import mops, sops
from .contour import DEFAULT_N, unit_circle_quadrature
from .errors import InvalidArgumentError, SizeGuardError, \
    UnsupportedFamilyError
from .surface import build_chart
from .weights import (CyclicUniform, Periodic2x1, Periodic2x2, WeightFamily,
                      check_integers, int_fields, transfer_matrix,
                      weight_table)

TWO_PI_I = 2j * np.pi

#: largest `exact_cost` admitted: about 10 s (periodic (24,12,12): 1.9e5)
EXACT_GUARD = 2_500_000


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HexagonModel:
    """(L, M, N) hexagon with vertically r-periodic, horizontally
    q-periodic edge weights a[l][j] (up-steps) and b[l][j] (flat steps).

    Requires L a multiple of q and M, N multiples of r.

    `_evaluators` maps each int node count n that `dk_evaluator` has
    served for this object to a weak reference to its evaluator, so a
    later call finds it without hashing the model; it is no part of the
    model's eq, hash or repr, and a copy or a pickle starts empty."""

    r: int
    q: int
    L: int
    M: int
    N: int
    a: tuple   # q rows of r up-step weights
    b: tuple   # q rows of r flat-step weights
    _evaluators: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    def __post_init__(self):
        int_fields("hexagon", self)
        if self.r < 1 or self.q < 1:
            raise InvalidArgumentError("hexagon: need r, q >= 1")
        for name in ("a", "b"):
            object.__setattr__(self, name, weight_table(
                f"hexagon {name}", getattr(self, name), (self.q, self.r)))
        if self.L < 1 or self.M < 1 or self.N < 1:
            raise InvalidArgumentError("hexagon: need L, M, N >= 1")
        if self.L % self.q != 0:
            raise InvalidArgumentError("hexagon: L must be a multiple of q")
        if self.M % self.r != 0 or self.N % self.r != 0:
            raise InvalidArgumentError(
                "hexagon: M and N must be multiples of r")
        if self.L < self.M:
            raise InvalidArgumentError("hexagon: need L >= M")

    def __reduce__(self):
        # copies and pickles are built anew, so they hold no evaluator
        return HexagonModel, (self.r, self.q, self.L, self.M, self.N,
                              self.a, self.b)

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
        return transfer_matrix(self.a[ell % self.q], self.b[ell % self.q], z)

    def period_matrix(self, z):
        """A(z) = A_0(z) ... A_{q-1}(z)."""
        return reduce(np.matmul, (self.transition(ell, z)
                                  for ell in range(self.q)))

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
            return CyclicUniform(r=self.r, L=self.L,
                                 R=(self.M + self.N) // self.r)
        raise UnsupportedFamilyError(
            f"no closed-form weight family for r={self.r}, q={self.q}")

    # --- path geometry ---------------------------------------------------

    def column_range(self, x: int) -> range:
        """Heights available to path vertices in column x."""
        lo = max(0, x - (self.L - self.M))
        hi = min(self.N + self.M - 1, x + self.N - 1)
        return range(lo, hi + 1)


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


def transfer(model: HexagonModel, x: int) -> np.ndarray:
    """t_x: the S_x x S_{x+1} matrix of edge weights from the heights of
    `column_range(x)` to those of `column_range(x + 1)` (0 off the
    edges)."""
    src, dst = model.column_range(x), model.column_range(x + 1)
    t = np.zeros((len(src), len(dst)))
    for i, y in enumerate(src):
        for j, ny in enumerate(dst):
            if ny - y in (0, 1):
                t[i, j] = edge_weight(model, ((x, y), (x + 1, ny)))
    return t


# ---------------------------------------------------------------------------
# kernel queries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelQuery:
    """Block query: the r x r matrix [K(x1, r y1 + j, x2, r y2 + i)]_{i,j}.

    The heights y1, y2 are each an int or a nonempty 1-D integer array;
    arrays stand for every block of the (y2, y1) grid."""

    x1: int
    y1: int | np.ndarray
    x2: int
    y2: int | np.ndarray

    def __post_init__(self):
        check_integers("KernelQuery column", 0, self.x1, self.x2)
        check_integers("KernelQuery height", 1, self.y1, self.y2)
        if not all(type(y) is int or np.size(y) for y in (self.y1, self.y2)):
            raise InvalidArgumentError("KernelQuery height array is empty")


def check_columns(model: HexagonModel, *xs: int) -> None:
    """Raise InvalidArgumentError unless every column x is in [0, L]."""
    for x in xs:
        if not 0 <= x <= model.L:
            raise InvalidArgumentError(f"column {x} outside [0, L]")


class _Memo(dict):
    """A memo whose arrays are made read-only as they are stored."""

    def __setitem__(self, key, value: np.ndarray):
        value.setflags(write=False)
        super().__setitem__(key, value)


def _split(q: int, lo: int, hi: int) -> tuple:
    """The column range [lo, hi) as (head, p, tail): the partial period
    range(lo, mid) up to the first multiple mid of q, p whole periods and
    the partial period range(end, hi) from the last multiple end of q,
    each empty at a period edge; it depends on lo mod q and hi - lo."""
    mid = min(hi, -(-lo // q) * q)
    end = max(mid, hi // q * q)
    return range(lo, mid), (end - mid) // q, range(end, hi)


class _Route:
    """Node data of one tiling route, which `_query_block` integrates on.

    Given by its builder: the nodes' base-plane points `x`, weights
    `wts`, the kernel's basis at the nodes `rows` (the powers
    `mops.power_rows`), which `mops.moments` projects onto, and `flat`,
    the kernel's coefficients C in that basis (the block inverse of
    `mops.kernel_coefficients`), which each right-side moment is
    multiplied by.  Kept: the q `transitions`, and memos of the
    period-matrix powers per (power factor, exponent) in `memo`, the
    weighted node powers per side and exponent in `weighted`, each
    (column, height)'s moments U on the left and C V on the right in
    `moments` (see `_moments`) and chi integrals per height difference
    in `chis` (see `_chi`).  Only a miss in `moments` reads `weighted`
    and `memo`.
    Every memoized array is read-only, so no caller can change what a
    later query reads."""

    def __init__(self, model: HexagonModel, x, wts, rows, flat, powers):
        self.model, self.x, self.wts = model, x, wts
        self.rows, self.flat, self._powers = rows, flat, powers
        self.memo, self.chis = _Memo(), _Memo()
        self.weighted, self.moments = (_Memo(), _Memo()), (_Memo(), _Memo())

    @cached_property
    def transitions(self) -> list:
        """A_0 ... A_{q-1} at the nodes; a q = 1 route never forms them."""
        return [self.model.transition(ell, self.x)
                for ell in range(self.model.q)]

    def transfers(self, k: int, lo: int, hi: int) -> list:
        """The per-node factors whose product is A_lo ... A_{hi-1}: the
        products of the `_split`'s nonempty partial periods either side
        of A^p, written by the power factor k (0 left, 1 right, 2 chi)."""
        q = self.model.q
        head, p, tail = _split(q, lo, hi)
        f = self._powers[k]
        if (f, p) not in self.memo:
            self.memo[f, p] = f(p)
        ends = [[reduce(np.matmul, (self.transitions[ell % q]
                                    for ell in cols))]
                if cols else [] for cols in (head, tail)]
        return ends[0] + [self.memo[f, p]] + ends[1]

    def factors(self, k: int, exps) -> np.ndarray:
        """(n, len(exps)): wts x ** e per node for every int e of `exps`,
        over 2 pi i for the right factor and chi (k = 1), as is for the
        left (k = 0); memoized per exponent in `weighted[k]`.  Each power
        takes a Python int exponent, as for a single height (numpy rounds
        array-exponent powers differently), so a height's factor is the
        same number in any batch of heights."""
        memo = self.weighted[k]
        for e in exps:
            if e not in memo:
                c = self.wts * self.x ** e
                memo[e] = c / TWO_PI_I if k else c
        return np.array([memo[e] for e in exps]).T


def _query_block(route: _Route, query) -> np.ndarray:
    """The block that every tiling route evaluates for a query's cells,

        int int w^(y2-h) T[x2, L)(w) R(w, z) T[0, x1)(z) z^(-y1-1)
          - chi int z^(y2-y1-1) T[x2, x1)(z),      h = (M+N)/r,

    with dw dz / (2 pi i) over nodes whose base-plane points are `x` and
    whose weights `wts` include the Jacobian, and T[lo, hi) the transfer
    product A_lo ... A_{hi-1} (`_Route.transfers`).  The routes differ
    in the nodes, in the kernel R(w, z) = sum_ab w^a C_ab z^b (`rows`,
    `flat`) and in the per-node factor k (0 left, 1 right, 2 chi) that
    writes A^p, where left (n, r, s) and right (n, s, r) meet R's s x s
    values.

    The left factor depends on (x2, y2) only and the right factor on
    (x1, y1) only, so the double integral is the pairing U^T C V of
    their moments; only chi = [x1 > x2] sees both columns.  A cell of two
    int heights reads U and C V kept per (column, height) (`_moments`),
    makes one product U @ (C V) and subtracts its chi integral (`_chi`);
    on a miss it projects the missing entries and reads them again.  It
    checks its two columns in one comparison and calls `check_columns`
    only to raise.  Other heights go to `_grid_block`.  `query` is a
    `KernelQuery` or a `_Cell`."""
    x1, y1, x2, y2 = query.x1, query.y1, query.x2, query.y2
    if type(y1) is int and type(y2) is int:
        if not 0 <= x1 <= route.model.L >= x2 >= 0:
            check_columns(route.model, x2, x1)
        try:
            out = route.moments[0][x2, y2] @ route.moments[1][x1, y1]
        except KeyError:
            _moments(route, 0, x2, [y2])
            _moments(route, 1, x1, [y1])
            return _query_block(route, query)
        if x1 > x2:
            out -= _chi(route, x1, x2, y2 - y1)
        return out
    return _grid_block(route, query)


#: a cell of checked columns and int heights, cheaper than a KernelQuery
_Cell = namedtuple("_Cell", "x1 y1 x2 y2")


def _grid_block(route: _Route, query) -> np.ndarray:
    """The block of heights that are not both ints, shape(y2) + shape(y1)
    + (r, r): a list or a 1-D array of heights gives an axis.  Each side's
    missing heights of its column are projected at once, and then each
    (y2, y1) block is its int cell's, bit for bit."""
    check_columns(route.model, query.x2, query.x1)
    sides, shape = [], ()
    for k, (x, y) in enumerate(((query.x2, query.y2), (query.x1, query.y1))):
        sides.append([int(v) for v in np.ravel(y)])
        shape += np.shape(y)
        _moments(route, k, x, sides[-1])
    return np.array([_query_block(route, _Cell(query.x1, y1, query.x2, y2))
                     for y2 in sides[0] for y1 in sides[1]]
                    ).reshape(shape + (route.model.r,) * 2)


def _moments(route: _Route, k: int, x: int, ys) -> None:
    """Keep in `route.moments[k]` the `mops.moments` U of the left factor
    (k = 0) of column x, or C V, those V of the right factor (k = 1)
    multiplied by the route's coefficients C = `flat`, at each height of
    `ys` that it lacks.  The missing heights' factors are formed at once
    and projected as a stack of one factor per height, and each height's
    V is multiplied by C alone, so an entry has the same bits whichever
    query made it."""
    memo = route.moments[k]
    missing = [y for y in dict.fromkeys(ys) if (x, y) not in memo]
    if missing:
        factors = np.moveaxis(_factor(route, k, x, missing), 1, 0)
        moments = mops.moments(route.rows, factors, k)
        if k:
            moments = route.flat @ moments
        for y, m in zip(missing, moments):
            memo[x, y] = m


def _factor(route: _Route, k: int, x: int, ys: list) -> np.ndarray:
    """The left factor (k = 0) w^(y2-h) A_x2 ... A_{L-1} of x2 = x, as
    (n, len(ys), r, s) over the heights y2 in ys, or the right factor
    (k = 1) A_0 ... A_{x1-1} z^(-y1-1) / (2 pi i) of x1 = x, as
    (n, len(ys), s, r) over the heights y1 in ys."""
    model = route.model
    if k:
        exps, cols = [-y - 1 for y in ys], (0, x)
    else:
        half = (model.M + model.N) // model.r
        exps, cols = [y - half for y in ys], (x, model.L)
    side = reduce(np.matmul, route.transfers(k, *cols))
    return route.factors(k, exps)[:, :, None, None] * side[:, None]


def _chi(route: _Route, x1: int, x2: int, d: int) -> np.ndarray:
    """(r, r): the chi integral of columns x1 > x2 at height difference
    d = y2 - y1, kept in `route.chis` per (x2 mod q, x1 - x2, d), all
    that the `_split` of [x2, x1) and the integrand depend on, so every
    later cell of the same geometry, at other columns and heights and in
    single cells and batched grids alike, reads it; it is computed only
    when that read misses."""
    key = (x2 % route.model.q, x1 - x2, d)
    try:
        return route.chis[key]
    except KeyError:
        route.chis[key] = chi = _chi_integral(route, x1, x2, d)
        return chi


def _chi_integral(route: _Route, x1: int, x2: int, d: int) -> np.ndarray:
    """The chi integral of columns x1 > x2 at height difference d,
    evaluated at the nodes."""
    c = route.factors(1, [d - 1]).reshape(-1, 1, 1)
    mats = route.transfers(2, x2, x1)
    idx = "abcd"[:len(mats) + 1]
    chain = ",".join(f"n{i}{j}" for i, j in zip(idx, idx[1:]))
    return np.einsum(f"nij,{chain}->ij{idx[0]}{idx[-1]}", c, *mats)[0, 0]


def _eigen(family: WeightFamily, point) -> tuple:
    """(lamhat, e, einv): the family's eigen-data at a curve point."""
    return family.lamhat(*point), family.evec(*point), family.evec_inv(*point)


def _spectral_power(eigens):
    """p -> sum_k lam_k^p col_k row_k^T per node over the (lam, col, row)
    of `eigens`: A^p written through eigenvalues, eigenvector columns and
    inverse rows."""
    def power(p):
        return sum((lam ** p)[:, None, None] * col[:, :, None]
                   * row[:, None, :]
                   for lam, col, row in eigens)
    return power


# ---------------------------------------------------------------------------
# DK matrix-kernel evaluator
# ---------------------------------------------------------------------------

def _min_node_count(model: HexagonModel) -> int:
    """The least node count n at which the trapezoid rule on the unit
    circle is exact on the moments M_0 ... M_{2N/r-2} of
    W = z^(-h) A^(L/q), h = (M + N)/r: max(h, 2N/r - h + floor(L/r))."""
    r = model.r
    h = (model.M + model.N) // r
    return max(h, 2 * model.N // r - h + model.L // r)


def _check_node_count(model: HexagonModel, n: int) -> None:
    """Raise InvalidArgumentError if n is below `_min_node_count(model)`."""
    if n < (least := _min_node_count(model)):
        raise InvalidArgumentError(
            f"node count n = {n} is too small for this hexagon: the "
            f"trapezoid rule is exact on its moments only for "
            f"n >= {least}")


class DKEvaluator:
    """Double-contour kernel evaluator for one model and node count.

    Holds the n-point unit-circle quadrature, the matrix CD kernel
    coefficients of W at degree N/r and the node data of the tiling
    routes (see `route`): "dk" built here, "sheets", "plane" and
    "explicit" on first use.  `block`, `scalar`, `density` and
    `point_matrix` form their entries from cells of the dk route
    (`_query_block`): `density` the diagonal cells of one column,
    `point_matrix` one cell per entry.  A route holds its nodes, the
    powers of its kernel points (N/r rows of n; N for the explicit
    route), its N x N kernel coefficients (`kernel_coeffs` on dk, sheets
    and plane), q transition matrices and at most L/q + 1 period-matrix
    powers of O(n r^2) numbers per power factor (the dk route's also
    keeps the squarings A^(2^k) it formed, at most log2(L/q) + 1), n
    numbers per exponent queried on a side (2n if on both), N r per
    (column, height) queried on a side (its moments U on the left and
    C V on the right, on every route; at most (L + 1)((N + M)/r + 1) per
    side for heights inside the hexagon), and r^2 per chi integral: at
    most q L per height difference y2 - y1 of the cells queried with
    x1 > x2.  The one-point densities of the columns queried
    (`densities`) are at most (L + 1)(N + M) floats.

    A node count below `_min_node_count(model)` raises
    InvalidArgumentError naming that least count: below it the
    trapezoid rule aliases the moments of W and the kernel is silently
    wrong."""

    def __init__(self, model: HexagonModel, n: int = DEFAULT_N):
        self.model = model
        self.quad = unit_circle_quadrature(n)
        _check_node_count(model, n)
        N = model.N // model.r
        z, A = self.quad.nodes, model.period_matrix(self.quad.nodes)

        # The evaluator keeps the products of np.linalg.matrix_power and
        # `@` here and in its routes, not the faster
        # `weights.node_power`/`node_product`: the strict xfail of the
        # probability defect pins the bits they give, and the node
        # products' bits make it pass, which fails the test suite.  So
        # A^p is matrix_power's own result for p <= 1 and its (A A) A for
        # p = 3, and otherwise its binary powering, an ascending product
        # of the squarings A^(2^k), which are kept across exponents.
        squares = [A]

        def power(p):
            if p <= 1 or p == 3:
                return np.linalg.matrix_power(A, p)
            out = None
            for k, bit in enumerate(reversed(f"{p:b}")):
                if k == len(squares):
                    squares.append(squares[-1] @ squares[-1])
                if bit == "1":
                    out = squares[k] if out is None else out @ squares[k]
            return out

        # the weight W = z^(-h) A^(L/q), h = (M + N) / r, at the nodes
        top = power(model.L // model.q)
        W = top * (z ** (-(model.M + model.N) // model.r))[:, None, None]
        self.kernel_coeffs, cond = mops.kernel_coefficients(
            mops.compute_moments(self.quad, N, W), N)
        self.conditions = {"kernel": cond}
        dk = _Route(model, z, self.quad.weights, mops.power_rows(z, N),
                    self.kernel_coeffs, (power,) * 3)
        dk.memo[power, model.L // model.q] = top
        self._routes, self.densities = {"dk": dk}, {}

    def route(self, form: str) -> _Route:
        """Node data of the `form` route, built on first use; a build
        that raises keeps nothing, so the next call raises again."""
        if form not in self._routes:
            self._routes[form] = _ROUTES[form](self)
        return self._routes[form]

    @cached_property
    def chart_nodes(self) -> tuple:
        """Chart of the model's family at MOP degree N/r, its pulled-back
        contour gamma_C and the chart data at the contour's nodes zeta:
        (chart, quad, phi, weights times dphi, (lamhat, e, einv)), the
        eigen-data read at the curve points chart.point(zeta)."""
        chart = build_chart(self.model.family(), self.model.N // self.model.r)
        quad = chart.gamma_C(len(self.quad.nodes))
        zeta = quad.nodes
        return (chart, quad, chart.phi(zeta), quad.weights * chart.dphi(zeta),
                _eigen(chart.family, chart.point(zeta)))

    def block(self, query: KernelQuery) -> np.ndarray:
        """[K(x1, r y1 + j, x2, r y2 + i)]_{i,j=0}^{r-1}; with height
        arrays, the stack of these blocks indexed by (y2, y1)."""
        return _query_block(self.route("dk"), query)

    def density(self, x: int) -> dict:
        """{y: K(x, y, x, y)} over the heights of column x, kept: on first
        use the column's moments are projected once per side and only the
        diagonal cells of its block heights y // r are formed; raises off
        [0, L]."""
        if x not in self.densities:
            check_columns(self.model, x)
            route, r = self.route("dk"), self.model.r
            ys = self.model.column_range(x)
            heights = range(ys[0] // r, ys[-1] // r + 1)
            for k in (0, 1):
                _moments(route, k, x, heights)
            blk = {y: _query_block(route, _Cell(x, y, x, y)) for y in heights}
            self.densities[x] = {y: float(blk[y // r][y % r, y % r].real)
                                 for y in ys}
        return self.densities[x]

    def scalar(self, x1: int, Y1: int, x2: int, Y2: int) -> complex:
        """K(x1, Y1, x2, Y2) for general integer heights Y1, Y2."""
        r = self.model.r
        blk = self.block(KernelQuery(x1, Y1 // r, x2, Y2 // r))
        return blk[Y2 % r, Y1 % r]

    def point_matrix(self, points: list) -> np.ndarray:
        """[K(x_i, Y_i, x_j, Y_j)]_{i,j}, the entries of `scalar`, each
        from its own cell on the dk route; `points` are integer (x, Y)
        pairs with x in [0, L]."""
        r, route = self.model.r, self.route("dk")
        return np.array([[_query_block(route, _Cell(xi, Yi // r, xj, Yj // r)
                                       )[Yj % r, Yi % r] for xj, Yj in points]
                         for xi, Yi in points])


def _sheet_route(ev: DKEvaluator) -> _Route:
    """The dk route with A^p written through the spectral sheets."""
    family = ev.model.family()
    dk, z = ev.route("dk"), ev.quad.nodes
    power = _spectral_power([_eigen(family, family.point(k, z))
                             for k in range(ev.model.r)])
    return _Route(ev.model, z, dk.wts, dk.rows, dk.flat, (power,) * 3)


def _plane_route(ev: DKEvaluator) -> _Route:
    _, _, phi, wts, eigen = ev.chart_nodes
    power = _spectral_power([eigen])
    rows = mops.power_rows(phi, ev.model.N // ev.model.r)
    return _Route(ev.model, phi, wts, rows, ev.kernel_coeffs, (power,) * 3)


def _explicit_route(ev: DKEvaluator) -> _Route:
    """The plane form with the surface kernel replaced by the scalar CD
    kernel of the chart weight W_s(zeta) = lam(phi) dphi / (h hhat) in
    zeta: S(omega, zeta) = hhat(omega) einv R(phi(omega), phi(zeta)) e
    h(zeta), so the kernel's e, einv factors move into the scalar
    factors as e / hhat and einv / h.  The chart degree is the matrix MOP
    degree N/r; the scalar CD kernel then has degree r (N/r) = N."""
    chart, quad, phi, wts, (lamh, e, einv) = ev.chart_nodes
    zeta = quad.nodes
    coeffs, _ = mops.kernel_coefficients(sops.scalar_moments(
        chart.scalar_weight, quad, ev.model.N).reshape(-1, 1, 1), ev.model.N)
    h, hhat = chart.h(zeta), chart.hhat(zeta)
    powers = (lambda p: (lamh ** p / hhat)[:, None, None] * e[:, :, None],
              lambda p: (lamh ** p / h)[:, None, None] * einv[:, None, :],
              _spectral_power([(lamh, e, einv)]))
    return _Route(ev.model, phi, wts, mops.power_rows(zeta, ev.model.N),
                  coeffs, powers)


_ROUTES = {"sheets": _sheet_route, "plane": _plane_route,
           "explicit": _explicit_route}


@lru_cache(maxsize=16)
def _dk_evaluator(model: HexagonModel, n: int) -> DKEvaluator:
    return DKEvaluator(model, n)


def dk_evaluator(model: HexagonModel, n: int = DEFAULT_N) -> DKEvaluator:
    """The cached evaluator of (model, n), however n is passed: an int or
    a numpy integer n is one cache key, and any other n raises.

    The (model, n) LRU cache owns the evaluators: it holds 16 and gives
    equal models one evaluator.  An int n first reads the weak reference
    that the model object keeps for it (`HexagonModel._evaluators`),
    which hashes nothing; only a miss or a dead reference checks n, asks
    the LRU and keeps a weak reference to its answer.  So after
    `_dk_evaluator.cache_clear()` or an eviction, the next call builds a
    new evaluator once no caller holds the old one."""
    kept = model._evaluators.get(n) if type(n) is int else None
    if kept is not None and (ev := kept()) is not None:
        return ev
    check_integers("node count n", 0, n)
    ev = _dk_evaluator(model, int(n))
    model._evaluators[int(n)] = ref(ev)
    return ev


def dk_kernel(model: HexagonModel, query: KernelQuery,
              n: int = DEFAULT_N) -> np.ndarray:
    """Matrix correlation-kernel block via the double-contour formula."""
    return dk_evaluator(model, n).block(query)


# ---------------------------------------------------------------------------
# scalarized kernel routes
# ---------------------------------------------------------------------------

def simplified_kernel_general(model: HexagonModel, query: KernelQuery,
                              form: str = "plane",
                              n: int = DEFAULT_N) -> np.ndarray:
    """Scalarized double-contour kernel.

    form="sheets": sum over sheet pairs of the spectral curve; A^p is
    written as sum_k lamhat_k^p e_k einv_k, so the integrand couples the
    sheets only through the scalar kernels einv_k(w) R(w, z) e_j(z) and
    the eigenvalue powers.

    form="plane": genus-0 plane form over the pulled-back contour
    gamma_C, where A^p on the sheet of phi(zeta) is lamhat^p e einv, the
    family's eigen-data at chart.point(zeta), with all large exponents
    on scalar functions of zeta."""
    if form not in ("sheets", "plane"):
        raise InvalidArgumentError(f"unknown form {form!r}")
    return _query_block(dk_evaluator(model, n).route(form), query)


def simplified_kernel_2x1(model: HexagonModel, query: KernelQuery,
                          n: int = DEFAULT_N) -> np.ndarray:
    """Explicit scalarized kernel for r=2, q=1 models.

    The integrand contains only the scalar CD kernel of
    Ws(zeta) = (2 a0 a1)^{-1} ((b0+b1+zeta)/2)^L
               (4 a0 a1 / (zeta^2 - (b0-b1)^2))^{(M+N)/2}
    on a circle enclosing +-(b0 - b1); all matrix factors are constant-
    degree rational functions of the integration variables, read from
    the closed-form Periodic2x1 chart."""
    if model.r != 2 or model.q != 1:
        raise UnsupportedFamilyError("explicit 2x1 kernel needs r=2, q=1")
    return _query_block(dk_evaluator(model, n).route("explicit"), query)


def simplified_kernel_2x2(model: HexagonModel, query: KernelQuery,
                          n: int = DEFAULT_N) -> np.ndarray:
    """Explicit scalarized kernel for r=2, q=2 models.

    Columns are re-indexed as x1 = 2 m1 + eps1 and x2 = 2 m2 - eps2 so
    the partial transfer products reduce to single factors A_0^{eps1},
    A_1^{eps2}.  The scalar CD kernel inverts the chart weight's Hankel
    moments on the pulled-back contour (`mops.kernel_coefficients` of
    `sops.scalar_moments`), independent of the matrix moments."""
    if model.r != 2 or model.q != 2:
        raise UnsupportedFamilyError("explicit 2x2 kernel needs r=2, q=2")
    return _query_block(dk_evaluator(model, n).route("explicit"), query)


# --- uniform measure, scalar route ------------------------------------------

def uniform_scalar_kernel(L: int, M: int, N: int, x1: int, y1: int,
                          x2: int, y2: int,
                          n: int = DEFAULT_N) -> complex:
    """Correlation kernel of the uniform measure through the scalar
    weight (1+z)^L z^{-M-N}; independent of the matrix-kernel path.
    Sizes that `HexagonModel` refuses, a column outside [0, L] and a node
    count below the hexagon's least (`_min_node_count`, as `DKEvaluator`
    has it) raise InvalidArgumentError."""
    check_integers("point coordinate", 0, x1, y1, x2, y2)
    model = HexagonModel.uniform(L, M, N)
    check_columns(model, x1, x2)
    quad = unit_circle_quadrature(n)
    _check_node_count(model, n)
    z = quad.nodes
    coeffs, _ = mops.kernel_coefficients(sops.scalar_moments(
        lambda s: (1 + s) ** L * s ** (-(M + N)), quad, N).reshape(-1, 1, 1),
        N)
    cu = (quad.weights * (1 + z) ** (L - x2) * z ** (y2 - M - N))[:, None]
    cv = (quad.weights * (1 + z) ** x1 * z ** (-y1 - 1) / TWO_PI_I)[:, None]
    out = complex(mops.kernel_integral(coeffs, z, cu, z, cv))
    if x1 > x2:
        c = quad.weights * (1 + z) ** (x1 - x2) * z ** (y2 - y1 - 1)
        out -= np.sum(c) / TWO_PI_I
    return out


# ---------------------------------------------------------------------------
# exact and closed-form oracles
# ---------------------------------------------------------------------------

def lgv_partition_function(model: HexagonModel) -> float:
    """Partition function as the determinant of the single-path
    weighted-count matrix (Lindstrom-Gessel-Viennot): the product
    t_0 ... t_{L-1} of the transfer matrices, N x N because column 0's
    heights are the starts and column L's the ends."""
    return float(np.linalg.det(reduce(np.matmul, (
        transfer(model, x) for x in range(model.L)))))


def macmahon_count(L: int, M: int, N: int) -> int:
    """Number of lozenge tilings of the uniform (L, M, N) hexagon
    (boxed-plane-partition product formula with box M x N x (L-M)).
    Sizes that `HexagonModel` refuses raise InvalidArgumentError."""
    HexagonModel.uniform(L, M, N)
    sides = range(1, M + 1), range(1, N + 1), range(1, L - M + 1)
    total = prod(Fraction(i + j + k - 1, i + j + k - 2)
                 for i, j, k in product(*sides))
    assert total.denominator == 1
    return int(total)


def exact_cost(model: HexagonModel) -> int:
    """A-priori cost of `ExactOracle(model)` in Fraction operations on
    small numbers (about 4 us each, measured): 4 N per hexagon cell for
    the path products, on b = L (weights' mean bits) bits, and 2 N^3 for
    eliminating G, on N b bits; one on b bits counts 1 + (b / 2300)^2."""
    b = model.L * np.mean([Fraction(w).numerator.bit_length()
                           + Fraction(w).denominator.bit_length()
                           for row in model.a + model.b for w in row])
    N, cells = model.N, sum(map(len, map(model.column_range,
                                         range(model.L + 1))))
    return round(4 * N * cells * (1 + (b / 2300) ** 2 / 3)
                 + 2 * N ** 3 * (1 + (N * b / 2300) ** 2))


def _fractions(mat) -> list:
    """A float matrix as lists of rows of exact Fractions."""
    return [[Fraction(v) for v in row] for row in np.asarray(mat).tolist()]


def _fraction_product(a: list, b: list) -> list:
    """a @ b for lists of Fraction rows, multiplying nonzero pairs only
    (t_x has at most two nonzero entries per row)."""
    return [[sum((u * v for u, v in zip(row, col) if u and v), Fraction(0))
             for col in zip(*b)] for row in a]


def _fraction_gauss_jordan(mat: list) -> tuple:
    """(det, inverse) of a square Fraction matrix by one Gauss-Jordan
    elimination; (0, None) when it is singular."""
    n, det = len(mat), Fraction(1)
    rows = [list(row) + e for row, e in zip(mat, _fractions(np.eye(n)))]
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c]), None)
        if p is None:
            return Fraction(0), None
        rows[c], rows[p] = rows[p], rows[c]
        det *= rows[c][c] if p == c else -rows[c][c]
        pivot = [v / rows[c][c] for v in rows[c]]
        rows = [pivot if i == c else [u - row[c] * v for u, v in
                                      zip(row, pivot)]
                for i, row in enumerate(rows)]
    return det, [row[n:] for row in rows]


class ExactOracle:
    """The tiling measure in exact arithmetic: Eynard-Mehta (1998;
    Johansson, PTRF 2002) on the `Fraction` values of `transfer`'s
    entries.  With the path products F[x] = t_0 ... t_{x-1} from the
    starts and B[x] = t_x ... t_{L-1} to the ends, G = F[L] and
    `partition_function` = det G, in the contour routes' argument order
    (Eynard-Mehta's transposed, so that chi falls where x1 > x2):

        K(x1, y1, x2, y2) = B[x2](y2, .) G^-1 F[x1](., y1)
                            - [x1 > x2] (t_x2 ... t_{x1-1})(y2, y1).

    It is the contour routes' kernel entry by entry: no gauge separates
    the two.  Raises SizeGuardError before any work if `exact_cost`
    exceeds EXACT_GUARD, and InvalidArgumentError for a query column
    outside [0, L]."""

    def __init__(self, model: HexagonModel):
        if (cost := exact_cost(model)) > EXACT_GUARD:
            raise SizeGuardError(f"exact oracle guard exceeded: cost {cost}"
                                 f" > {EXACT_GUARD}")
        self.model, eye = model, _fractions(np.eye(model.N))
        self.ts = [_fractions(transfer(model, x)) for x in range(model.L)]
        self.F = list(accumulate(self.ts, _fraction_product, initial=eye))
        self.B = list(accumulate(reversed(self.ts), lambda b, t:
                                 _fraction_product(t, b), initial=eye))[::-1]
        self.partition_function, self.Ginv = _fraction_gauss_jordan(self.F[-1])

    def kernel(self, x1: int, y1: int, x2: int, y2: int) -> Fraction:
        """K(x1, y1, x2, y2); 0 for a height outside its column."""
        check_columns(self.model, x1, x2)
        return self._entry(self._row(x2, y2), x1, y1, x2, y2)

    def probability(self, points) -> Fraction:
        """det[K(x_i, y_i, x_j, y_j)]: P(a path passes through every
        point), 1 for no points; points are checked as `point_probability`
        checks them.  Each point's row is formed once."""
        points = _check_points(self.model, points)
        rows = [self._row(*b) for b in points]
        return _fraction_gauss_jordan([[self._entry(row, *a, *b)
                                        for b, row in zip(points, rows)]
                                       for a in points])[0]

    def _row(self, x2: int, y2: int) -> list | None:
        """B[x2](y2, .) G^-1, which every entry K(., ., x2, y2) reads;
        None for a height outside its column."""
        r2 = self.model.column_range(x2)
        if y2 not in r2:
            return None
        return _fraction_product([self.B[x2][y2 - r2.start]], self.Ginv)[0]

    def _entry(self, row: list | None, x1: int, y1: int, x2: int,
               y2: int) -> Fraction:
        """K(x1, y1, x2, y2) from its `_row`."""
        r1, r2 = self.model.column_range(x1), self.model.column_range(x2)
        if row is None or y1 not in r1:
            return Fraction(0)
        out = sum(u * f[y1 - r1.start] for u, f in zip(row, self.F[x1]))
        if x1 > x2:
            out -= reduce(_fraction_product, self.ts[x2:x1], _fractions(
                np.eye(len(r2))[[y2 - r2.start]]))[0][y1 - r1.start]
        return out


# ---------------------------------------------------------------------------
# determinantal probabilities
# ---------------------------------------------------------------------------

def point_probability(model: HexagonModel, points,
                      route: str = "determinant",
                      n: int = DEFAULT_N) -> float | Fraction:
    """P(a path passes through every point in `points`).

    route="determinant": det[K(x_i, y_i, x_j, y_j)] via the matrix
    double-contour kernel (exactly 0.0 for a height outside its column).
    route="exact": the same determinant as a Fraction, on a fresh
    `ExactOracle`."""
    points = _check_points(model, points)
    if route == "exact":
        return ExactOracle(model).probability(points)
    if route != "determinant":
        raise InvalidArgumentError(f"unknown route {route!r}")
    if not points:
        return 1.0
    if any(y not in model.column_range(x) for x, y in points):
        return 0.0
    mat = dk_evaluator(model, n).point_matrix(points)
    return float(np.linalg.det(mat).real)


def _check_points(model: HexagonModel, points) -> list:
    """`points` as a list of (x, y) tuples; InvalidArgumentError unless
    each is a pair of integers with x in [0, L] and no two are equal."""
    points = list(map(_pair, points))
    check_integers("point coordinate", 0, *(v for pt in points for v in pt))
    if len(set(points)) != len(points):
        raise InvalidArgumentError("points must be distinct")
    check_columns(model, *(x for x, _ in points))
    return points


def _pair(point) -> tuple:
    """`point` as an (x, y) tuple; InvalidArgumentError unless a pair."""
    try:
        x, y = point
    except (TypeError, ValueError):
        raise InvalidArgumentError(
            f"point {point!r} is not an (x, y) pair") from None
    return x, y


def column_probabilities(model: HexagonModel, x: int,
                         n: int = DEFAULT_N) -> dict:
    """{y: P(point at (x, y))} over the admissible heights of column x.

    P = K(x, y, x, y): one double-contour block over the block heights
    y // r on the first call per column and (model, n), kept by the
    cached evaluator; each call returns a fresh copy of the kept values."""
    check_columns(model, x)
    return dict(dk_evaluator(model, n).density(x))
