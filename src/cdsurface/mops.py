"""Matrix orthogonal polynomials and the matrix CD kernel.

The bilinear (non-Hermitian) pairing is <P, Q> = int_gamma P(z) W(z) Q(z) dz.
Four polynomial families are computed from the moment linear systems:

  P^L_j, P^R_j : monic degree-j, left/right orthogonal to all lower powers;
  Q^L_j, Q^R_j : degree <= j with <Q^L_j, z^k I> = <z^k I, Q^R_j> = delta_{kj} I.

The degree-N CD (reproducing) kernel is evaluated by three independent
routes: the biorthogonal sum, the Christoffel-Darboux two-term formula,
and assembly from the 2r x 2r Riemann-Hilbert matrix Y.  Existence of the
polynomials is *not* guaranteed; singular moment systems raise
SingularSystemError instead of returning NaNs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .contour import ContourQuadrature
from .errors import (InvalidArgumentError, NearContourWarning,
                     SingularSystemError)
from .weights import WeightFamily, node_product

TWO_PI_I = 2j * np.pi
EPS_SWITCH = 1e-6        # |z - w| below which the CD formula falls back
COND_MAX = 1e12
NEAR_CONTOUR_DIST = 1e-3


@dataclass(frozen=True)
class MatrixPolynomial:
    """Polynomial with r x r matrix coefficients, low degree first."""

    coeffs: np.ndarray  # shape (d+1, r, r)

    def __post_init__(self):
        object.__setattr__(self, "coeffs",
                           np.asarray(self.coeffs, dtype=complex))
        C = self.coeffs
        if C.ndim != 3 or C.shape[1] != C.shape[2] or not len(C):
            raise ValueError("coeffs must have shape (d+1, r, r), d >= 0")

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def r(self) -> int:
        return self.coeffs.shape[1]

    def __call__(self, z):
        """Horner evaluation; z scalar or ndarray -> z.shape + (r, r)."""
        z = np.asarray(z, dtype=complex)[..., None, None]
        C = self.coeffs
        if len(C) == 1:
            return np.broadcast_to(C[0], z.shape[:-2] + C.shape[1:]).copy()
        out = C[-1] * z + C[-2]
        for c in C[-3::-1]:
            out = out * z + c
        return out


def pairing(P: MatrixPolynomial, Q: MatrixPolynomial,
            family: WeightFamily, quad: ContourQuadrature) -> np.ndarray:
    """<P, Q> = int P(z) W(z) Q(z) dz by quadrature."""
    z = quad.nodes
    vals = node_product(node_product(P(z), family.weight(z)), Q(z))
    return np.tensordot(quad.weights, vals, axes=(0, 0))


def compute_moments(quad: ContourQuadrature, N: int,
                    W: np.ndarray) -> np.ndarray:
    """M_k = int z^k W(z) dz for k = 0..2N, shape (2N+1, r, r), from W
    (n, r, r), the weight at the nodes of quad."""
    z = quad.nodes
    powers = z[None, :] ** np.arange(2 * N + 1)[:, None]
    return np.einsum("kn,n,nab->kab", powers, quad.weights, W)


def _block(moments: np.ndarray, rows, cols) -> np.ndarray:
    """Assemble the block matrix [M_{rows[i] + cols[j]}]_{ij} flattened."""
    r = moments.shape[1]
    out = np.empty((len(rows) * r, len(cols) * r), dtype=complex)
    for i, ri in enumerate(rows):
        for j, cj in enumerate(cols):
            out[i * r:(i + 1) * r, j * r:(j + 1) * r] = moments[ri + cj]
    return out


def _check_singular(A, scale, what):
    """Singularity test that is robust to moment matrices which are tiny
    relative to the overall moment scale (pure condition numbers can look
    benign on a block of quadrature noise)."""
    s = np.linalg.svd(A, compute_uv=False)
    cond = s[0] / s[-1] if s[-1] > 0 else np.inf
    if not np.isfinite(cond) or s[-1] <= scale / COND_MAX:
        raise SingularSystemError(
            f"{what}: moment system of size {A.shape[0]} is numerically "
            f"singular (smallest singular value {s[-1]:.2e} vs moment scale "
            f"{scale:.2e}); the polynomials need not exist")
    return cond


class _PolyRow(tuple):
    """Tuple of MatrixPolynomial-or-None; indexing a missing degree raises
    instead of silently returning None."""

    def __getitem__(self, j):
        item = tuple.__getitem__(self, j)
        if item is None:
            raise SingularSystemError(
                f"the degree-{j} moment system was singular; this MOP "
                f"does not exist (kernel evaluation via the block-inverse "
                f"route is still available)")
        return item


@dataclass(frozen=True)
class MOPSystem:
    """Moments, the four MOP families through degree N, and the kernel
    coefficient table from the block-moment-matrix inverse.

    The degree-N reproducing kernel exists iff the N r x N r block moment
    matrix [M_{j+k}] is invertible; individual lower-degree MOPs may fail
    to exist even then (missing degrees are recorded in `missing` and
    raise on access)."""

    N: int
    r: int
    moments: np.ndarray
    PL: _PolyRow  # monic, PL[j] degree j, j = 0..N
    PR: _PolyRow
    QL: _PolyRow  # QL[j] degree <= j, j = 0..N-1
    QR: _PolyRow
    kernel_coeffs: np.ndarray  # (N r, N r): see kernel_coefficients
    conditions: dict = field(default_factory=dict)
    missing: dict = field(default_factory=dict)


def kernel_coefficients(moments: np.ndarray, N: int) -> tuple:
    """(C, cond): C, the kernel coefficients, is the inverse of the block
    moment matrix [M_{j+k}] as `np.linalg.inv` returns it, (N r, N r);
    its r x r block C_ab gives R_N(w, z) = sum_ab w^a C_ab z^b."""
    scale = float(np.max(np.abs(moments))) or 1.0
    big = _block(moments, range(N), range(N))
    cond = _check_singular(big, scale, f"degree-{N} kernel")
    return np.linalg.inv(big), cond


def solve_mops(moments: np.ndarray, N: int) -> MOPSystem:
    """Solve the moment systems for degrees up to N.

    Requires moments M_0..M_{2N-1} at least (compute_moments provides
    2N+1).  Raises SingularSystemError when the size-N block moment
    matrix is singular (no reproducing kernel); singular lower-degree
    systems are tolerated and recorded in `missing`.
    """
    r = moments.shape[1]
    eye = np.eye(r, dtype=complex)
    scale = float(np.max(np.abs(moments))) or 1.0
    conds, missing = {}, {}
    P0 = MatrixPolynomial(eye[None])
    PL, PR, QL, QR = [P0], [P0], [], []
    kernel_coeffs, conds["kernel"] = kernel_coefficients(moments, N)

    # The size-j system sum_m M_{k+m} C_m = RHS_k (k < j) gives P^R_j for
    # RHS_k = -M_{j+k} and Q^R_{j-1} for RHS_k = delta_{k,j-1} I; the left
    # families solve the blockwise transpose, which is A^T.  The size-N
    # system is the kernel's, already checked.
    for j in range(1, N + 1):
        A = _block(moments, range(j), range(j))
        try:
            conds[("P", j)] = conds[("Q", j - 1)] = conds["kernel"] \
                if j == N else _check_singular(A, scale, f"P_{j}, Q_{j - 1}")
        except SingularSystemError as exc:
            missing[("P", j)] = missing[("Q", j - 1)] = str(exc)
            for fam in (PL, PR, QL, QR):
                fam.append(None)
            continue
        rhs = np.zeros((j, r, 2 * r), dtype=complex)
        rhs[-1, :, r:] = eye
        rhs[:, :, :r] = -moments[j:2 * j]
        XR = np.linalg.solve(A, rhs.reshape(j * r, 2 * r)).reshape(j, r, -1)
        rhs[:, :, :r] = -moments[j:2 * j].transpose(0, 2, 1)
        XL = np.linalg.solve(A.T, rhs.reshape(j * r, 2 * r)).reshape(j, r, -1)
        XL = XL.transpose(0, 2, 1)
        PL.append(MatrixPolynomial(np.concatenate([XL[:, :r], eye[None]])))
        PR.append(MatrixPolynomial(np.concatenate([XR[..., :r], eye[None]])))
        QL.append(MatrixPolynomial(XL[:, r:]))
        QR.append(MatrixPolynomial(XR[..., r:]))
    return MOPSystem(N=N, r=r, moments=moments,
                     PL=_PolyRow(PL), PR=_PolyRow(PR),
                     QL=_PolyRow(QL), QR=_PolyRow(QR),
                     kernel_coeffs=kernel_coeffs,
                     conditions=conds, missing=missing)


def mop_system(family: WeightFamily, quad: ContourQuadrature,
               N: int) -> MOPSystem:
    """Convenience: moments by quadrature, then solve."""
    return solve_mops(compute_moments(quad, N, family.weight(quad.nodes)), N)


# --- CD kernel: three routes --------------------------------------------

def cd_kernel_sum(system: MOPSystem, w, z) -> np.ndarray:
    """sum_{j<N} Q^R_j(w) P^L_j(z)."""
    return sum(system.QR[j](w) @ system.PL[j](z) for j in range(system.N))


def _by_distance(w, z, formula, fallback, tail=()):
    """Per pair of the broadcast w, z: formula(w, z) if |z - w| >=
    EPS_SWITCH, else fallback(w, z), each called on its pairs only."""
    w, z = np.broadcast_arrays(np.asarray(w, complex), np.asarray(z, complex))
    near = np.abs(z - w) < EPS_SWITCH
    out = np.empty(near.shape + tail, dtype=complex)
    for part, fn in ((~near, formula), (near, fallback)):
        if part.any():
            out[part] = fn(w[part], z[part])
    return out


def cd_kernel_formula(system: MOPSystem, w, z) -> np.ndarray:
    """(z-w)^{-1} (Q^R_{N-1}(w) P^L_N(z) - P^R_N(w) Q^L_{N-1}(z)),
    falling back to the sum near the removable singularity.  w and z
    broadcast; the result has shape(broadcast) + (r, r)."""
    def formula(w, z):
        N = system.N
        num = (system.QR[N - 1](w) @ system.PL[N](z)
               - system.PR[N](w) @ system.QL[N - 1](z))
        return num / (z - w)[:, None, None]
    return _by_distance(w, z, formula,
                        lambda w, z: cd_kernel_sum(system, w, z),
                        (system.r, system.r))


def _powers(x, N):
    x = np.asarray(x, dtype=complex)
    return x[..., None] ** np.arange(N)


def cd_kernel(system: MOPSystem, w, z) -> np.ndarray:
    """R_N(w, z) from the block-moment-matrix inverse.

    This route requires only invertibility of the size-N block moment
    matrix (it works even when intermediate-degree MOPs fail to exist)
    and has no removable singularity at w = z.  w and z broadcast: pass
    w[:, None] and z[None, :] for the table on a product grid."""
    N, r = system.N, system.r
    C = system.kernel_coeffs.reshape(N, r, N, r).transpose(0, 2, 1, 3)
    return np.einsum("...a,abcd,...b->...cd", _powers(w, N), C, _powers(z, N))


def power_rows(x, N: int) -> np.ndarray:
    """(N, len(x)), contiguous: row a holds the powers x ** a."""
    return np.ascontiguousarray(_powers(x, N).T)


def moments(rows: np.ndarray, factors: np.ndarray, k: int) -> np.ndarray:
    """The moments sum_j rows[a, j] f[j] of each factor f of a double
    integral in the stack `factors`, laid out for U @ (C @ V) with the
    kernel coefficients C (see `kernel_integral`): a left factor
    (k = 0), (nw, ..., s), gives U, (prod(...), N s), and a right factor
    (k = 1), (nz, s, ...), gives V, (N s, prod(...)), with N = len(rows).
    numpy projects each factor of the stack with a BLAS call of its own,
    so its moments have the bits they have alone."""
    G, n = factors.shape[:2]
    M = rows @ factors.reshape(G, n, -1)
    if k:
        return M.reshape(G, len(rows) * factors.shape[2], -1)
    s = factors.shape[-1]
    M = M.reshape(G, len(rows), -1, s).transpose(0, 2, 1, 3)
    return M.reshape(G, -1, len(rows) * s)


def kernel_integral(coeffs: np.ndarray, w, left, z, right) -> np.ndarray:
    """sum_{k,j} left[k] R(w_k, z_j) right[j] for the kernel
    R(w, z) = sum_ab w^a C_ab z^b with coefficients `coeffs`.

    The sum is contracted through the coefficients: with the `moments`
    U_a = sum_k w_k^a left[k] and V_b = sum_j z_j^b right[j] it equals
    sum_ab U_a C_ab V_b = U @ (coeffs @ V), so no table of R over the
    (w, z) grid is formed.

    coeffs (N r, N r), as `kernel_coefficients` lays them out (C_ab is
    its r x r block (a, b)): left (nw, ..., r) and right (nz, r, ...)
    multiply R's values as matrices, also for r = 1; the result has shape
    left.shape[1:-1] + right.shape[2:]."""
    left, right = np.asarray(left), np.asarray(right)
    N = len(coeffs) // left.shape[-1]
    out = (moments(power_rows(w, N), left[None], 0)[0]
           @ (coeffs @ moments(power_rows(z, N), right[None], 1)[0]))
    return out.reshape(left.shape[1:-1] + right.shape[2:])


# --- Riemann-Hilbert assembly -------------------------------------------

def _cauchy(quad: ContourQuadrature, g_nodes: np.ndarray, z) -> np.ndarray:
    """int_gamma g(s) / (s - z) ds by quadrature; g_nodes: (n, r, r)."""
    z = np.asarray(z, dtype=complex)
    coef = quad.weights / (quad.nodes - z[..., None])
    return (coef @ g_nodes.reshape(len(g_nodes), -1)).reshape(
        z.shape + g_nodes.shape[1:])


def _warn_near(quad, z):
    d = np.min(np.abs(quad.nodes - np.asarray(z, dtype=complex)[..., None]))
    if d < NEAR_CONTOUR_DIST:
        warnings.warn(
            f"point within {d:.2e} of the contour; Cauchy-transform "
            f"quadrature loses accuracy", NearContourWarning, stacklevel=3)


def node_values(system: MOPSystem, quad: ContourQuadrature,
                W: np.ndarray) -> tuple:
    """(W, PW, Q): the MOPs that the biorthogonality and Riemann-Hilbert
    checks read, each evaluated once at the nodes of quad.  W (n, r, r) is
    the weight there, as given; PW (n, (N+2) r, r) stacks
    P^L_j W for j = 0..N, then Q^L_{N-1} W; Q (n, r, (N+1) r) stacks Q^R_k
    for k < N, then P^R_N.  If a MOP of degree < N is missing, they stack
    only what the Riemann-Hilbert assemblies read: the last 2 r of each."""
    z, N = quad.nodes, system.N
    low = () if system.missing else range(N)    # the degrees below N
    left = [system.PL[j](z) for j in (*low, N)] + [system.QL[N - 1](z)]
    right = [system.QR[k](z) for k in (*low[:-1], N - 1)] + [system.PR[N](z)]
    return (W, node_product(np.concatenate(left, axis=1), W),
            np.concatenate(right, axis=2))


def assemble_Y(system: MOPSystem, quad: ContourQuadrature, z,
               values: tuple) -> np.ndarray:
    """The 2r x 2r matrix Y(z) built from P^L_N and Q^L_{N-1}.

    quad is the contour of the Cauchy transforms.  It need not be the one
    the system was solved on: a deformation is valid while no poles of W
    are crossed, and evaluates boundary values accurately from either
    side.  values are `node_values` at the nodes of quad.
    """
    _warn_near(quad, z)
    N, r = system.N, system.r
    PN, Qm = system.PL[N], system.QL[N - 1]
    PW = values[1][:, -2 * r:]
    C = _cauchy(quad, PW, z)
    Y = np.empty(np.shape(z) + (2 * r, 2 * r), dtype=complex)
    Y[..., :r, :r] = PN(z)
    Y[..., :r, r:] = C[..., :r, :] / TWO_PI_I
    Y[..., r:, :r] = -TWO_PI_I * Qm(z)
    Y[..., r:, r:] = -C[..., r:, :]
    return Y


def assemble_Yinv(system: MOPSystem, quad: ContourQuadrature, z,
                  values: tuple) -> np.ndarray:
    """Y(z)^{-1} built directly from the right MOPs P^R_N, Q^R_{N-1};
    quad and values as for `assemble_Y`."""
    _warn_near(quad, z)
    N, r = system.N, system.r
    PN, Qm = system.PR[N], system.QR[N - 1]
    W, _, Q = values
    C = _cauchy(quad, node_product(W, Q[..., -2 * r:]), z)
    Yi = np.empty(np.shape(z) + (2 * r, 2 * r), dtype=complex)
    Yi[..., :r, :r] = -C[..., :r]
    Yi[..., :r, r:] = -C[..., r:] / TWO_PI_I
    Yi[..., r:, :r] = TWO_PI_I * Qm(z)
    Yi[..., r:, r:] = PN(z)
    return Yi


def kernel_from_Y(system: MOPSystem, quad: ContourQuadrature, w, z,
                  values: tuple) -> np.ndarray:
    """(2 pi i (z - w))^{-1} (0 I) Y^{-1}(w) Y(z) (I 0)^T; w and z
    broadcast, and all pairs read the contour data `values`,
    `node_values` at the nodes of quad."""
    r = system.r
    Yi = assemble_Yinv(system, quad, w, values)
    Y = assemble_Y(system, quad, z, values)
    d = TWO_PI_I * (np.asarray(z, dtype=complex) - w)
    return (Yi[..., r:, :] @ Y[..., :r]) / d[..., None, None]


# --- verification helpers -----------------------------------------------

def _pairs(polys, points):
    """(list of polynomials, array of points) from one MatrixPolynomial
    with a scalar point, or sequences of both of the same length."""
    if isinstance(polys, MatrixPolynomial):
        polys, points = [polys], [points]
    points = np.asarray(points, dtype=complex)
    if points.shape != (len(polys),):
        raise InvalidArgumentError(
            f"{len(polys)} polynomials need as many points, got shape "
            f"{points.shape}")
    return polys, points


def _diagonal_residual(table, polys, points) -> float:
    """max_i || table[i, :, i, :] - polys[i](points[i]) ||_max."""
    m = len(polys)
    expect = np.stack([p(x) for p, x in zip(polys, points)])
    return float(np.max(np.abs(table[np.arange(m), :, np.arange(m)]
                               - expect)))


def reproducing_residual(system: MOPSystem, quad: ContourQuadrature, P, z,
                         W: np.ndarray) -> float:
    """max_i || int P_i(w) W(w) R_N(w, z_i) dw - P_i(z_i) ||_max for
    deg P_i <= N-1: P one MatrixPolynomial and z a scalar, or sequences
    of both of the same length.  W is the weight at the nodes of quad.

    All pairs share one `kernel_integral`: the left factors are
    wts_k P_i(w_k) W(w_k) and the right ones delta_ij I, so the table
    over (i, j) holds every P_i against every z_j; its diagonal is kept."""
    P, z = _pairs(P, z)
    nodes, m, r = quad.nodes, len(P), system.r
    left = node_product(np.concatenate([p(nodes) for p in P], axis=1), W)
    left = left.reshape(-1, m, r, r) * quad.weights[:, None, None, None]
    right = np.eye(m)[:, None, :, None] * np.eye(r)[:, None]
    table = kernel_integral(system.kernel_coeffs, nodes, left, z, right)
    return _diagonal_residual(table, P, z)


def dual_reproducing_residual(system: MOPSystem, quad: ContourQuadrature,
                              Q, w, W: np.ndarray) -> float:
    """max_i || int R_N(w_i, z) W(z) Q_i(z) dz - Q_i(w_i) ||_max for
    deg Q_i <= N-1, the mirror image of `reproducing_residual`: the left
    factors are delta_ki I and the right ones wts_j W(z_j) Q_i(z_j)."""
    Q, w = _pairs(Q, w)
    nodes, m, r = quad.nodes, len(Q), system.r
    right = node_product(W, np.concatenate([q(nodes) for q in Q], axis=2))
    right = right.reshape(-1, r, m, r) * quad.weights[:, None, None, None]
    left = np.eye(m)[:, :, None, None] * np.eye(r)
    table = kernel_integral(system.kernel_coeffs, w, left, nodes, right)
    return _diagonal_residual(table, Q, w)


def biorthogonality_residual(system: MOPSystem, quad: ContourQuadrature,
                             values: tuple) -> float:
    """max_{j,k} || <P^L_j, Q^R_k> - delta_{jk} I ||_max, formed as
    `pairing` does, for every (j, k) at once, from `node_values` at the
    nodes of quad; every MOP below N must exist."""
    if system.missing:
        raise SingularSystemError(f"missing MOPs {sorted(system.missing)}")
    _, PW, Q = values
    N, r = system.N, system.r
    vals = node_product(PW[:, :N * r], Q[..., :N * r]).reshape(-1, N, r, N, r)
    # one node sum per (j, k) block, the sum `pairing` makes: a single
    # product over all blocks sums each block with other bits
    gram = [[np.tensordot(quad.weights, vals[:, j, :, k], axes=(0, 0))
             for k in range(N)] for j in range(N)]
    return float(np.max(np.abs(np.block(gram) - np.eye(N * r))))
