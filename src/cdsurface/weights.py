"""Rational matrix weight families and their eigen-data on the spectral
curve.

Each family is W(z) = z^{-shift} B(z)^power, with B = `base(z)` an r x r
polynomial matrix.  Its eigenvalue and eigenvectors are single
meromorphic functions on the spectral curve det(lambda - B(z)) = 0,
written once per family as closed-form functions of a curve point
(z, eta): `lamhat(z, eta)` (eigenvalue of B), `evec(z, eta)` (eigenvector
column) and `evec_inv(z, eta)` (inverse-eigenvector row); `lam(z, eta)`
is the eigenvalue of W.  The sheets of the curve over z are the branches
`eta(k, z)`, k = 0..r-1, with a fixed branch convention, so the sheet
labelling is coherent across evaluations -- a generic numerical
eigendecomposition would scramble the sheets and randomize eigenvector
phases.  Callers read a curve function f at a point: `f(*point(k, z))`
on sheet k, or `f(*chart.point(zeta))` through a genus-0 chart
(`surface`).

Evaluators accept scalar or ndarray z.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from numbers import Real
from sys import float_info

import numpy as np

from .errors import (InconsistentParametersError, InvalidArgumentError,
                     PoleError, UnsupportedFamilyError)


def transfer_matrix(a_row, b_row, z):
    """Column-transfer matrix of one column with up-step weights a_row
    and flat-step weights b_row: b on the diagonal, a_row[:-1] on the
    superdiagonal and a_row[-1] z added in the bottom-left corner (the
    diagonal when r = 1); shape z.shape + (r, r)."""
    z = np.asarray(z, dtype=complex)
    r = len(b_row)
    A = np.zeros(z.shape + (r, r), dtype=complex)
    flat = A.reshape(z.shape + (r * r,))   # a view: entry (i, j) is i r + j
    flat[..., ::r + 1] = b_row
    flat[..., 1::r + 1] = a_row[:-1]
    A[..., r - 1, 0] += a_row[-1] * z
    return A


def node_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(..., p, r) @ (..., r, s) per node, as r broadcast multiply-adds:
    for the r of a weight this is several times faster than a stacked
    matmul, and a block of a stacked operand gets the bits it gets alone."""
    out = A[..., :1] * B[..., :1, :]
    for k in range(1, A.shape[-1]):
        out += A[..., k:k + 1] * B[..., k:k + 1, :]
    return out


def node_power(A: np.ndarray, p: int) -> np.ndarray:
    """A^p per node for a stack A (..., r, r) and an int p >= 0: the
    products of numpy's `matrix_power` in its order ((A A) A for p = 3,
    else binary powering: the same squarings, each product result @
    square), with `node_product` as the product."""
    if p == 0:
        return np.broadcast_to(np.eye(A.shape[-1], dtype=A.dtype),
                               A.shape).copy()
    if p == 3:
        return node_product(node_product(A, A), A)
    square = result = None
    while p > 0:
        square = A if square is None else node_product(square, square)
        p, bit = divmod(p, 2)
        if bit:
            result = square if result is None else node_product(result,
                                                                square)
    return result


def check_integers(name: str, ndim: int, *values) -> None:
    """InvalidArgumentError naming `name` unless each value is an integer
    (a bool, a float, NaN or infinity is not) or, with ndim 1, a 1-D
    integer array or list."""
    for v in values:
        if type(v) is not int and (np.asarray(v).dtype.kind not in "iu"
                                   or np.ndim(v) > ndim):
            raise InvalidArgumentError(f"{name} must be an integer"
                                       f"{' or 1-D array' * ndim}, got {v!r}")


def int_fields(tag: str, obj) -> None:
    """`check_integers` on every dataclass field of obj annotated int,
    named by `tag`; each is stored as an int."""
    for f in fields(obj):
        if f.type == "int":
            value = getattr(obj, f.name)
            check_integers(f"{tag}: parameter {f.name!r}", 0, value)
            object.__setattr__(obj, f.name, int(value))


def weight_table(tag: str, rows, shape: tuple) -> tuple:
    """Edge weights `rows` as a tuple of float tuples; InvalidArgumentError
    naming the table by `tag` unless they are real numbers in a table of
    the given (rows, columns) shape, each finite and > 0."""
    try:
        table = tuple(tuple(row) for row in rows)
    except TypeError:           # not a sequence of sequences
        table = ()
    if len(table) != shape[0] or any(len(row) != shape[1] for row in table) \
            or not all(isinstance(x, Real) for row in table for x in row):
        raise InvalidArgumentError(f"{tag}: expected a {shape} table of "
                                   f"numbers, got {rows!r}")
    if not all(0 < x <= float_info.max for row in table for x in row):
        raise InvalidArgumentError(f"{tag}: weights must be finite and > 0")
    return tuple(tuple(map(float, row)) for row in table)


class WeightFamily:
    """W(z) = z^{-shift} base(z)^power and the eigen-data of base(z) as
    functions of a curve point (z, eta); `eta(k, z)` is sheet k.

    A family gives r, shift, power, eta, lamhat, evec, evec_inv, and
    `base` or, when it has transfer-matrix structure, `transition`."""

    tag = "abstract"
    cut_description = "none"

    def base(self, z):
        """B(z) for a complex array z; shape z.shape + (r, r)."""
        return self.transition(0, z)

    def point(self, k: int, z):
        """The curve point (z, eta(k, z)) over z on sheet k."""
        z = np.asarray(z, dtype=complex)
        return z, self.eta(k, z)

    def lam(self, z, eta):
        """Eigenvalue of W at the curve point (z, eta)."""
        return z ** (-self.shift) * self.lamhat(z, eta) ** self.power

    def weight(self, z):
        """W(z); z scalar or ndarray, result shape z.shape + (r, r)."""
        arr = np.asarray(z, dtype=complex)
        if np.any(arr == 0):
            raise PoleError(f"{self.tag}: weight has a pole at z = 0")
        W = node_power(self.base(arr), self.power)
        W = W * (arr ** (-self.shift))[..., None, None]
        return W[()] if np.ndim(z) == 0 else W

    def transition(self, ell: int, z):
        raise UnsupportedFamilyError(
            f"{self.tag} has no transition-matrix structure")

    def to_json(self) -> dict:
        """{"family": tag, "params": the dataclass fields by name}."""
        return {"family": self.tag, "params": {
            f.name: getattr(self, f.name) for f in fields(self)}}


class _TwoSheeted(WeightFamily):
    """r = 2 family whose sheets are eta = +-`_branch(z)`."""

    r = 2

    def eta(self, k, z):
        e = self._branch(np.asarray(z, dtype=complex))
        return e if k == 0 else -e


@dataclass(frozen=True)
class CyclicUniform(WeightFamily):
    """W(z) = z^{-R} C(z)^L with C the cyclic r x r matrix that has ones
    on the diagonal and superdiagonal and z in the bottom-left corner;
    eta = z^{1/r}, rotated by exp(2 pi i k / r) on sheet k."""

    r: int
    L: int
    R: int

    tag = "cyclic"
    cut_description = "negative real axis (principal z^{1/r})"

    def __post_init__(self):
        int_fields(self.tag, self)
        if self.r < 2:
            raise InvalidArgumentError("cyclic: need r >= 2")
        if self.L < 1 or self.R < 1:
            raise InvalidArgumentError("cyclic: need L, R >= 1")

    shift = property(lambda self: self.R)
    power = property(lambda self: self.L)

    def transition(self, ell: int, z):
        return transfer_matrix((1.0,) * self.r, (1.0,) * self.r, z)

    def eta(self, k, z):
        rho = np.exp(2j * np.pi / self.r)
        return rho ** k * np.exp(np.log(np.asarray(z, dtype=complex)) / self.r)

    def lamhat(self, z, eta):
        return 1 + eta

    def evec(self, z, eta):
        return np.stack([eta ** j for j in range(self.r)], axis=-1)

    def evec_inv(self, z, eta):
        return np.stack([eta ** (-j) / self.r for j in range(self.r)], axis=-1)


@dataclass(frozen=True)
class TwoByTwoRootK(_TwoSheeted):
    """W(z) = z^{-M} [[1, 1], [z^k, 1]]^L with k odd; eigen-data rational
    in the square root eta = z^{k/2} (principal branch)."""

    k: int
    L: int
    M: int

    tag = "root-k"
    cut_description = "negative real axis (principal z^{k/2})"

    def __post_init__(self):
        int_fields(self.tag, self)
        if self.k < 1 or self.k % 2 == 0:
            raise InvalidArgumentError("root-k: k must be odd and >= 1")
        if self.L < 1 or self.M < 1:
            raise InvalidArgumentError("root-k: need L, M >= 1")

    shift = property(lambda self: self.M)
    power = property(lambda self: self.L)

    def base(self, z):
        B = np.ones(z.shape + (2, 2), dtype=complex)
        B[..., 1, 0] = z ** self.k
        return B

    def _branch(self, z):
        return np.exp(0.5 * self.k * np.log(z))

    def lamhat(self, z, eta):
        return 1 + eta

    def evec(self, z, eta):
        return np.stack([np.ones_like(eta), eta], axis=-1)

    def evec_inv(self, z, eta):
        return np.stack([0.5 * np.ones_like(eta), 0.5 / eta], axis=-1)


@dataclass(frozen=True)
class Periodic2x1(_TwoSheeted):
    """2-periodic (in the vertical direction) tiling weight:
    A(z) = [[b0, a0], [a1 z, b1]],  W(z) = z^{-(M+N)/2} A(z)^L;
    eta = sqrt(4 a0 a1 (z - z1)), positive for z > z1."""

    a0: float
    a1: float
    b0: float
    b1: float
    L: int
    M: int
    N: int

    tag = "periodic-2x1"

    def __post_init__(self):
        int_fields(self.tag, self)
        weight_table("periodic-2x1 (a0, a1, b0, b1)",
                     [(self.a0, self.a1, self.b0, self.b1)], (1, 4))
        if (self.M + self.N) % 2 != 0:
            raise InvalidArgumentError("periodic-2x1: M + N must be even")
        if self.L < 1:
            raise InvalidArgumentError("periodic-2x1: need L >= 1")

    shift = property(lambda self: (self.M + self.N) // 2)
    power = property(lambda self: self.L)

    @property
    def z1(self) -> float:
        """Branch point: the single zero of the discriminant."""
        return -((self.b0 - self.b1) ** 2) / (4 * self.a0 * self.a1)

    @property
    def cut_description(self) -> str:
        return f"real ray (-inf, {self.z1}]"

    def transition(self, ell: int, z):
        return transfer_matrix((self.a0, self.a1), (self.b0, self.b1), z)

    def _branch(self, z):
        return 2 * np.sqrt(self.a0 * self.a1) * np.sqrt(z - self.z1)

    def lamhat(self, z, eta):
        return (self.b0 + self.b1 + eta) / 2

    def evec(self, z, eta):
        return np.stack([np.ones_like(eta),
                         (self.b1 - self.b0 + eta) / (2 * self.a0)], axis=-1)

    def evec_inv(self, z, eta):
        return np.stack([(eta + self.b0 - self.b1) / (2 * eta),
                         self.a0 / eta], axis=-1)


@dataclass(frozen=True)
class Periodic2x2(_TwoSheeted):
    """2x2-periodic tiling weight: A(z) = A_0(z) A_1(z) with
    A_l = [[b_{l,0}, a_{l,0}], [a_{l,1} z, b_{l,1}]],
    W(z) = z^{-(M+N)/2} A(z)^{L/2}; eta is the square root of the
    discriminant of A (see `_branch`)."""

    a: tuple  # ((a00, a01), (a10, a11)) indexed a[l][j]
    b: tuple
    L: int
    M: int
    N: int

    tag = "periodic-2x2"

    def __post_init__(self):
        int_fields(self.tag, self)
        for name in ("a", "b"):
            object.__setattr__(self, name, weight_table(
                f"periodic-2x2 {name}", getattr(self, name), (2, 2)))
        if self.L % 2 != 0 or self.L < 2:
            raise InvalidArgumentError("periodic-2x2: L must be even >= 2")
        if (self.M + self.N) % 2 != 0:
            raise InvalidArgumentError("periodic-2x2: M + N must be even")

    shift = property(lambda self: (self.M + self.N) // 2)
    power = property(lambda self: self.L // 2)

    # --- derived spectral constants -------------------------------------
    @property
    def a_minus(self):
        return self.a[1][1] * self.a[0][0] - self.a[0][1] * self.a[1][0]

    @property
    def a_plus(self):
        return self.a[1][1] * self.a[0][0] + self.a[0][1] * self.a[1][0]

    @property
    def b_minus(self):
        return self.b[0][1] * self.b[1][1] - self.b[0][0] * self.b[1][0]

    @property
    def b_plus(self):
        return self.b[0][1] * self.b[1][1] + self.b[0][0] * self.b[1][0]

    @property
    def c0(self):
        a, b = self.a, self.b
        return ((a[0][0] * b[1][1] + a[1][0] * b[0][0])
                * (a[1][1] * b[0][1] + a[0][1] * b[1][0]))

    @property
    def c1(self):
        a, b = self.a, self.b
        return ((a[0][1] * b[1][1] + a[1][1] * b[0][0])
                * (a[1][0] * b[0][1] + a[0][0] * b[1][0]))

    @property
    def d(self):
        a, b = self.a, self.b
        return a[0][0] * b[1][1] + a[1][0] * b[0][0]

    def branch_points(self):
        """Zeros of the discriminant Delta(z)."""
        am, bm, c01 = self.a_minus, self.b_minus, self.c0 + self.c1
        if am == 0:
            return (-bm ** 2 / (2 * c01),)
        disc = c01 ** 2 - am ** 2 * bm ** 2
        if disc < 0:
            raise InconsistentParametersError(
                "periodic-2x2: (c0+c1)^2 - a_-^2 b_-^2 < 0")
        zm = (-c01 - np.sqrt(disc)) / am ** 2
        zp = (-c01 + np.sqrt(disc)) / am ** 2
        if not (zm < zp < 0):
            raise InconsistentParametersError(
                f"periodic-2x2: expected z- < z+ < 0, got {zm}, {zp}")
        return (zm, zp)

    @property
    def cut_description(self) -> str:
        bpts = self.branch_points()
        if len(bpts) == 1:
            return f"real ray (-inf, {bpts[0]}]"
        return f"real segment [{bpts[0]}, {bpts[1]}]"

    def transition(self, ell: int, z):
        return transfer_matrix(self.a[ell % 2], self.b[ell % 2], z)

    def base(self, z):
        return node_product(self.transition(0, z), self.transition(1, z))

    def _branch(self, z):
        bpts = self.branch_points()
        if len(bpts) == 1:
            return np.sqrt(2 * (self.c0 + self.c1)) * np.sqrt(z - bpts[0])
        # branch cut on [z-, z+]; ~ a_- z at infinity
        zm, zp = bpts
        return self.a_minus * np.sqrt(z - zp) * np.sqrt(z - zm)

    def lamhat(self, z, eta):
        return (self.a_plus * z + self.b_plus + eta) / 2

    def evec(self, z, eta):
        return np.stack([np.ones_like(eta),
                         (self.b_minus - self.a_minus * z + eta)
                         / (2 * self.d)], axis=-1)

    def evec_inv(self, z, eta):
        return np.stack([(self.a_minus * z + eta - self.b_minus) / (2 * eta),
                         self.d / eta], axis=-1)


@dataclass(frozen=True)
class ScalarMonomial(WeightFamily):
    """W(z) = z^{-N} I_r: a diagonal test family with trivial spectral
    data and closed-form orthogonal polynomials.  Its spectral curve is
    r disjoint copies of the plane; the sheet label is eta."""

    r: int
    N: int

    tag = "scalar-monomial"
    shift = property(lambda self: self.N)
    power = 1

    def __post_init__(self):
        int_fields(self.tag, self)
        if self.r < 1 or self.N < 1:
            raise InvalidArgumentError("scalar-monomial: need r, N >= 1")

    def base(self, z):
        return np.broadcast_to(np.eye(self.r, dtype=complex),
                               z.shape + (self.r, self.r))

    def eta(self, k, z):
        return np.full(np.shape(z), k)

    def lamhat(self, z, eta):
        return np.ones_like(z)

    def evec(self, z, eta):
        return (np.asarray(eta)[..., None]
                == np.arange(self.r)).astype(complex)

    evec_inv = evec


_FAMILIES = {cls.tag: cls for cls in
             (CyclicUniform, TwoByTwoRootK, Periodic2x1, Periodic2x2,
              ScalarMonomial)}


def family_from_json(obj: dict) -> WeightFamily:
    """Build a WeightFamily from {"family": tag, "params": {...}}, the
    form `to_json` writes: the params are the family's dataclass fields,
    each once by name (the matrix size is `r`).  A missing or unknown
    parameter raises InvalidArgumentError naming it, and so does a bad
    value (see `int_fields` and `weight_table`)."""
    if not isinstance(obj, dict) or "family" not in obj:
        raise InvalidArgumentError("weight config must have a 'family' key")
    tag = obj["family"]
    if tag not in _FAMILIES:
        raise UnsupportedFamilyError(f"unknown family tag {tag!r}; "
                                     f"known: {sorted(_FAMILIES)}")
    params = dict(obj.get("params", {}))
    names = [f.name for f in fields(_FAMILIES[tag])]
    for name in [*names, *params]:
        if name not in names or name not in params:
            raise InvalidArgumentError(
                f"{tag}: {'unknown' if name in params else 'missing'} "
                f"parameter {name!r}; the parameters are {names}")
    return _FAMILIES[tag](**params)


def check_spectral(family: WeightFamily, z: complex) -> float:
    """Max residual over the eigen-relations at a point z off the cuts:
    W e_k = lam_k e_k, biorthogonality of rows/columns, completeness."""
    r = family.r
    W = np.asarray(family.weight(z))
    points = [family.point(k, z) for k in range(r)]
    E = np.stack([family.evec(*pt) for pt in points], axis=-1)
    Einv = np.stack([family.evec_inv(*pt) for pt in points], axis=-2)
    lams = np.array([family.lam(*pt) for pt in points])
    res = 0.0
    for k in range(r):
        res = max(res, np.max(np.abs(W @ E[..., :, k] - lams[k] * E[..., :, k])))
    res = max(res, np.max(np.abs(Einv @ E - np.eye(r))))
    res = max(res, np.max(np.abs(E @ Einv - np.eye(r))))
    return float(res)
