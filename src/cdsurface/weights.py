"""Rational matrix weight families and their sheet-indexed spectral data.

Each family W(z) is an r x r rational matrix, diagonalizable as
E(z) diag(lambda_1..lambda_r) E(z)^{-1} away from finitely many points.
The eigenvalue branches lambda_k, the eigenvector columns e_k and the
inverse-eigenvector rows are supplied in closed form per family, with a
fixed branch convention, so that the sheet labelling is coherent across
evaluations -- a generic numerical eigendecomposition would scramble the
sheets and randomize eigenvector phases.

Sheets are indexed 0..r-1.  Evaluators accept scalar or ndarray z.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (BranchCutWarning, InconsistentParametersError,
                     InvalidArgumentError, PoleError, UnsupportedFamilyError)

_CUT_WARN_DIST = 1e-8


def _asz(z):
    """Return (complex array, was_scalar)."""
    arr = np.asarray(z, dtype=complex)
    return arr, arr.ndim == 0


def _dist_to_ray(z, x0):
    """Distance from z to the real ray (-inf, x0]."""
    z = np.asarray(z, dtype=complex)
    left = np.real(z) <= x0
    return np.where(left, np.abs(np.imag(z)), np.abs(z - x0))


def _dist_to_segment(z, x0, x1):
    """Distance from z to the real segment [x0, x1]."""
    z = np.asarray(z, dtype=complex)
    x = np.clip(np.real(z), x0, x1)
    return np.abs(z - x)


@dataclass(frozen=True)
class SpectralData:
    """Closed-form eigen-data of a weight family, per sheet.

    lam(k, z): eigenvalue branch of W on sheet k.
    evec(k, z): eigenvector column (shape z.shape + (r,)).
    evec_inv(k, z): inverse-eigenvector row (same shape).
    lambda_hat(k, z): eigenvalue branch of the transition matrix A,
        or None for families without transition structure.
    """

    r: int
    lam: Callable
    evec: Callable
    evec_inv: Callable
    lambda_hat: Callable | None
    cut_description: str
    cut_distance: Callable

    def warn_if_near_cut(self, z):
        d = np.min(self.cut_distance(z))
        if d < _CUT_WARN_DIST:
            warnings.warn(
                f"evaluation within {d:.2e} of branch cut "
                f"({self.cut_description}); sheet labels unreliable",
                BranchCutWarning, stacklevel=3)


def _stack_matrix(z, entries):
    """Assemble shape z.shape + (r, r) from a nested list of entries that
    are scalars or arrays broadcastable to z.shape."""
    r = len(entries)
    out = np.empty(np.shape(z) + (r, r), dtype=complex)
    for i in range(r):
        for j in range(r):
            out[..., i, j] = entries[i][j]
    return out


class WeightFamily:
    """Common interface: r, weight(z), spectral(), transition(l, z)."""

    tag = "abstract"

    @property
    def r(self) -> int:
        raise NotImplementedError

    def weight(self, z):
        """W(z); z scalar or ndarray, result shape z.shape + (r, r)."""
        raise NotImplementedError

    def spectral(self) -> SpectralData:
        raise NotImplementedError

    def transition(self, ell: int, z):
        raise UnsupportedFamilyError(
            f"{self.tag} has no transition-matrix structure")

    def params(self) -> dict:
        raise NotImplementedError

    def to_json(self) -> dict:
        return {"family": self.tag, "params": self.params()}

    def _check_pole(self, z):
        arr, _ = _asz(z)
        if np.any(arr == 0):
            raise PoleError(f"{self.tag}: weight has a pole at z = 0")
        return arr


@dataclass(frozen=True)
class CyclicUniform(WeightFamily):
    """W(z) = z^{-R} C(z)^L with C the cyclic r x r matrix that has ones
    on the diagonal and superdiagonal and z in the bottom-left corner."""

    r_size: int
    L: int
    R: int

    tag = "cyclic"

    def __post_init__(self):
        if self.r_size < 2:
            raise InvalidArgumentError("cyclic: need r >= 2")
        if self.L < 1 or self.R < 1:
            raise InvalidArgumentError("cyclic: need L, R >= 1")

    @property
    def r(self) -> int:
        return self.r_size

    def params(self) -> dict:
        return {"r": self.r_size, "L": self.L, "R": self.R}

    def transition(self, ell: int, z):
        arr, scalar = _asz(z)
        r = self.r_size
        A = np.zeros(arr.shape + (r, r), dtype=complex)
        for j in range(r):
            A[..., j, j] = 1.0
            if j + 1 < r:
                A[..., j, j + 1] = 1.0
        A[..., r - 1, 0] = arr
        return A[()] if scalar else A

    def weight(self, z):
        arr = self._check_pole(z)
        C = self.transition(0, arr)
        C = np.asarray(C).reshape(arr.shape + (self.r_size, self.r_size))
        W = np.linalg.matrix_power(C, self.L)
        W = W * (arr ** (-self.R))[..., None, None]
        return W[()] if np.ndim(z) == 0 else W

    def spectral(self) -> SpectralData:
        r, L, R = self.r_size, self.L, self.R
        rho = np.exp(2j * np.pi / r)

        def eta(k, z):
            z, _ = _asz(z)
            return rho ** k * np.exp(np.log(z) / r)

        def lam(k, z):
            z, _ = _asz(z)
            return (1 + eta(k, z)) ** L * z ** (-R)

        def lambda_hat(k, z):
            return 1 + eta(k, z)

        def evec(k, z):
            e = eta(k, z)
            return np.stack([e ** j for j in range(r)], axis=-1)

        def evec_inv(k, z):
            e = eta(k, z)
            return np.stack([e ** (-j) / r for j in range(r)], axis=-1)

        return SpectralData(
            r=r, lam=lam, evec=evec, evec_inv=evec_inv,
            lambda_hat=lambda_hat,
            cut_description="negative real axis (principal z^{1/r})",
            cut_distance=lambda z: _dist_to_ray(z, 0.0))


@dataclass(frozen=True)
class TwoByTwoRootK(WeightFamily):
    """W(z) = z^{-M} [[1, 1], [z^k, 1]]^L with k odd; eigen-data rational
    in the square root eta = z^{k/2} (principal branch)."""

    k: int
    L: int
    M: int

    tag = "root-k"

    def __post_init__(self):
        if self.k < 1 or self.k % 2 == 0:
            raise InvalidArgumentError("root-k: k must be odd and >= 1")
        if self.L < 1 or self.M < 1:
            raise InvalidArgumentError("root-k: need L, M >= 1")

    @property
    def r(self) -> int:
        return 2

    def params(self) -> dict:
        return {"k": self.k, "L": self.L, "M": self.M}

    def weight(self, z):
        arr = self._check_pole(z)
        zk = arr ** self.k
        B = _stack_matrix(arr, [[np.ones_like(arr), np.ones_like(arr)],
                                [zk, np.ones_like(arr)]])
        W = np.linalg.matrix_power(B.reshape(arr.shape + (2, 2)), self.L)
        W = W * (arr ** (-self.M))[..., None, None]
        return W[()] if np.ndim(z) == 0 else W

    def spectral(self) -> SpectralData:
        k_exp, L, M = self.k, self.L, self.M

        def eta(k, z):
            z, _ = _asz(z)
            e = np.exp(0.5 * k_exp * np.log(z))
            return e if k == 0 else -e

        def lam(k, z):
            z, _ = _asz(z)
            return z ** (-M) * (1 + eta(k, z)) ** L

        def lambda_hat(k, z):
            return 1 + eta(k, z)

        def evec(k, z):
            e = eta(k, z)
            return np.stack([np.ones_like(e), e], axis=-1)

        def evec_inv(k, z):
            e = eta(k, z)
            return np.stack([0.5 * np.ones_like(e), 0.5 / e], axis=-1)

        return SpectralData(
            r=2, lam=lam, evec=evec, evec_inv=evec_inv,
            lambda_hat=lambda_hat,
            cut_description="negative real axis (principal z^{k/2})",
            cut_distance=lambda z: _dist_to_ray(z, 0.0))


@dataclass(frozen=True)
class Periodic2x1(WeightFamily):
    """2-periodic (in the vertical direction) tiling weight:
    A(z) = [[b0, a0], [a1 z, b1]],  W(z) = z^{-(M+N)/2} A(z)^L."""

    a0: float
    a1: float
    b0: float
    b1: float
    L: int
    M: int
    N: int

    tag = "periodic-2x1"

    def __post_init__(self):
        if min(self.a0, self.a1, self.b0, self.b1) <= 0:
            raise InvalidArgumentError("periodic-2x1: weights must be > 0")
        if (self.M + self.N) % 2 != 0:
            raise InvalidArgumentError("periodic-2x1: M + N must be even")
        if self.L < 1:
            raise InvalidArgumentError("periodic-2x1: need L >= 1")

    @property
    def r(self) -> int:
        return 2

    def params(self) -> dict:
        return {"a0": self.a0, "a1": self.a1, "b0": self.b0, "b1": self.b1,
                "L": self.L, "M": self.M, "N": self.N}

    @property
    def z1(self) -> float:
        """Branch point: the single zero of the discriminant."""
        return -((self.b0 - self.b1) ** 2) / (4 * self.a0 * self.a1)

    def transition(self, ell: int, z):
        arr, scalar = _asz(z)
        A = _stack_matrix(arr, [[self.b0 * np.ones_like(arr),
                                 self.a0 * np.ones_like(arr)],
                                [self.a1 * arr,
                                 self.b1 * np.ones_like(arr)]])
        return A[()] if scalar else A

    def weight(self, z):
        arr = self._check_pole(z)
        A = np.asarray(self.transition(0, arr)).reshape(arr.shape + (2, 2))
        W = np.linalg.matrix_power(A, self.L)
        W = W * (arr ** (-(self.M + self.N) // 2))[..., None, None]
        return W[()] if np.ndim(z) == 0 else W

    def spectral(self) -> SpectralData:
        a0, a1, b0, b1 = self.a0, self.a1, self.b0, self.b1
        L, half = self.L, (self.M + self.N) // 2
        z1 = self.z1

        def sqrt_delta(z):
            z, _ = _asz(z)
            # sqrt of Delta(z) = 4 a0 a1 (z - z1), positive for z > z1
            return 2 * np.sqrt(a0 * a1) * np.sqrt(z - z1)

        def eta(k, z):
            s = sqrt_delta(z)
            return s if k == 0 else -s

        def lambda_hat(k, z):
            return (b0 + b1 + eta(k, z)) / 2

        def lam(k, z):
            z_, _ = _asz(z)
            return z_ ** (-half) * lambda_hat(k, z) ** L

        def evec(k, z):
            e = eta(k, z)
            return np.stack([np.ones_like(e), (b1 - b0 + e) / (2 * a0)],
                            axis=-1)

        def evec_inv(k, z):
            e = eta(k, z)
            return np.stack([(e + b0 - b1) / (2 * e), a0 / e], axis=-1)

        return SpectralData(
            r=2, lam=lam, evec=evec, evec_inv=evec_inv,
            lambda_hat=lambda_hat,
            cut_description=f"real ray (-inf, {z1}]",
            cut_distance=lambda z: _dist_to_ray(z, z1))


@dataclass(frozen=True)
class Periodic2x2(WeightFamily):
    """2x2-periodic tiling weight: A(z) = A_0(z) A_1(z) with
    A_l = [[b_{l,0}, a_{l,0}], [a_{l,1} z, b_{l,1}]],
    W(z) = z^{-(M+N)/2} A(z)^{L/2}."""

    a: tuple  # ((a00, a01), (a10, a11)) indexed a[l][j]
    b: tuple
    L: int
    M: int
    N: int

    tag = "periodic-2x2"

    def __post_init__(self):
        a = tuple(tuple(float(x) for x in row) for row in self.a)
        b = tuple(tuple(float(x) for x in row) for row in self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if any(x <= 0 for row in a + b for x in row):
            raise InvalidArgumentError("periodic-2x2: weights must be > 0")
        if self.L % 2 != 0 or self.L < 2:
            raise InvalidArgumentError("periodic-2x2: L must be even >= 2")
        if (self.M + self.N) % 2 != 0:
            raise InvalidArgumentError("periodic-2x2: M + N must be even")

    @property
    def r(self) -> int:
        return 2

    def params(self) -> dict:
        return {"a": [list(row) for row in self.a],
                "b": [list(row) for row in self.b],
                "L": self.L, "M": self.M, "N": self.N}

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

    def transition(self, ell: int, z):
        arr, scalar = _asz(z)
        l = ell % 2
        al, bl = self.a[l], self.b[l]
        A = _stack_matrix(arr, [[bl[0] * np.ones_like(arr),
                                 al[0] * np.ones_like(arr)],
                                [al[1] * arr, bl[1] * np.ones_like(arr)]])
        return A[()] if scalar else A

    def weight(self, z):
        arr = self._check_pole(z)
        A0 = np.asarray(self.transition(0, arr)).reshape(arr.shape + (2, 2))
        A1 = np.asarray(self.transition(1, arr)).reshape(arr.shape + (2, 2))
        A = A0 @ A1
        W = np.linalg.matrix_power(A, self.L // 2)
        W = W * (arr ** (-(self.M + self.N) // 2))[..., None, None]
        return W[()] if np.ndim(z) == 0 else W

    def spectral(self) -> SpectralData:
        am, ap = self.a_minus, self.a_plus
        bm, bp = self.b_minus, self.b_plus
        d = self.d
        half, Lhalf = (self.M + self.N) // 2, self.L // 2
        bpts = self.branch_points()

        if am == 0:
            z1 = bpts[0]
            coef = np.sqrt(2 * (self.c0 + self.c1))

            def sqrt_delta(z):
                z, _ = _asz(z)
                return coef * np.sqrt(z - z1)

            cut_desc = f"real ray (-inf, {z1}]"

            def cut_dist(z):
                return _dist_to_ray(z, z1)
        else:
            zm, zp = bpts

            def sqrt_delta(z):
                z, _ = _asz(z)
                # branch cut on [z-, z+]; ~ a_- z at infinity
                return am * np.sqrt(z - zp) * np.sqrt(z - zm)

            cut_desc = f"real segment [{zm}, {zp}]"

            def cut_dist(z):
                return _dist_to_segment(z, zm, zp)

        def eta(k, z):
            s = sqrt_delta(z)
            return s if k == 0 else -s

        def lambda_hat(k, z):
            z_, _ = _asz(z)
            return (ap * z_ + bp + eta(k, z)) / 2

        def lam(k, z):
            z_, _ = _asz(z)
            return z_ ** (-half) * lambda_hat(k, z) ** Lhalf

        def evec(k, z):
            z_, _ = _asz(z)
            e = eta(k, z)
            return np.stack([np.ones_like(e), (bm - am * z_ + e) / (2 * d)],
                            axis=-1)

        def evec_inv(k, z):
            z_, _ = _asz(z)
            e = eta(k, z)
            return np.stack([(am * z_ + e - bm) / (2 * e), d / e], axis=-1)

        return SpectralData(
            r=2, lam=lam, evec=evec, evec_inv=evec_inv,
            lambda_hat=lambda_hat,
            cut_description=cut_desc, cut_distance=cut_dist)


@dataclass(frozen=True)
class ScalarMonomial(WeightFamily):
    """W(z) = z^{-N} I_r: a diagonal test family with trivial spectral
    data and closed-form orthogonal polynomials."""

    r_size: int
    N: int

    tag = "scalar-monomial"

    def __post_init__(self):
        if self.r_size < 1 or self.N < 1:
            raise InvalidArgumentError("scalar-monomial: need r, N >= 1")

    @property
    def r(self) -> int:
        return self.r_size

    def params(self) -> dict:
        return {"r": self.r_size, "N": self.N}

    def weight(self, z):
        arr = self._check_pole(z)
        eye = np.eye(self.r_size, dtype=complex)
        W = (arr ** (-self.N))[..., None, None] * eye
        return W[()] if np.ndim(z) == 0 else W

    def spectral(self) -> SpectralData:
        r, N = self.r_size, self.N

        def lam(k, z):
            z, _ = _asz(z)
            return z ** (-N)

        def evec(k, z):
            z, _ = _asz(z)
            out = np.zeros(z.shape + (r,), dtype=complex)
            out[..., k] = 1.0
            return out

        return SpectralData(
            r=r, lam=lam, evec=evec, evec_inv=evec,
            lambda_hat=None,
            cut_description="none",
            cut_distance=lambda z: np.full(np.shape(z), np.inf))


_FAMILIES = {cls.tag: cls for cls in
             (CyclicUniform, TwoByTwoRootK, Periodic2x1, Periodic2x2,
              ScalarMonomial)}


def family_from_json(obj: dict) -> WeightFamily:
    """Build a WeightFamily from {"family": tag, "params": {...}}."""
    if not isinstance(obj, dict) or "family" not in obj:
        raise InvalidArgumentError("weight config must have a 'family' key")
    tag = obj["family"]
    params = dict(obj.get("params", {}))
    if tag == "cyclic":
        return CyclicUniform(r_size=params["r"], L=params["L"],
                             R=params["R"])
    if tag == "root-k":
        return TwoByTwoRootK(k=params["k"], L=params["L"], M=params["M"])
    if tag == "periodic-2x1":
        return Periodic2x1(**params)
    if tag == "periodic-2x2":
        return Periodic2x2(a=tuple(map(tuple, params["a"])),
                           b=tuple(map(tuple, params["b"])),
                           L=params["L"], M=params["M"], N=params["N"])
    if tag == "scalar-monomial":
        return ScalarMonomial(r_size=params["r"], N=params["N"])
    raise UnsupportedFamilyError(f"unknown family tag {tag!r}; "
                                 f"known: {sorted(_FAMILIES)}")


# --- module-level functional interface ----------------------------------

def eval_weight(family: WeightFamily, z):
    return family.weight(z)


def eval_transition(family: WeightFamily, ell: int, z):
    return family.transition(ell, z)


def check_spectral(spectral: SpectralData, family: WeightFamily,
                   z: complex) -> float:
    """Max residual over the eigen-relations at a point z off the cuts:
    W e_k = lam_k e_k, biorthogonality of rows/columns, completeness."""
    spectral.warn_if_near_cut(z)
    r = spectral.r
    W = np.asarray(family.weight(z))
    E = np.stack([spectral.evec(k, z) for k in range(r)], axis=-1)
    Einv = np.stack([spectral.evec_inv(k, z) for k in range(r)], axis=-2)
    lams = np.array([spectral.lam(k, z) for k in range(r)])
    res = 0.0
    for k in range(r):
        res = max(res, np.max(np.abs(W @ E[..., :, k] - lams[k] * E[..., :, k])))
    res = max(res, np.max(np.abs(Einv @ E - np.eye(r))))
    res = max(res, np.max(np.abs(E @ Einv - np.eye(r))))
    return float(res)
