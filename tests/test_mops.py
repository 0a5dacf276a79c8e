import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdsurface import (CyclicUniform, MatrixPolynomial, ScalarMonomial,
                       circle_quadrature, unit_circle_quadrature)
from cdsurface import mops, sops, weights
from cdsurface.errors import SingularSystemError
from cdsurface.cli import _DEFAULT_FAMILIES

TWO_PI_I = 2j * np.pi


def values_at(system, fam, quad):
    """`mops.node_values` at the nodes of quad, with fam's weight there."""
    return mops.node_values(system, quad, fam.weight(quad.nodes))


def eye_poly(deg, r):
    coeffs = np.zeros((deg + 1, r, r), dtype=complex)
    coeffs[deg] = np.eye(r)
    return MatrixPolynomial(coeffs)


# --- polynomial values and node products --------------------------------

@pytest.mark.parametrize("degree", range(4))
def test_matrix_polynomial_call_matches_horner_loop(degree, rng):
    C = cnormal(rng, degree + 1, 2, 2)
    P = MatrixPolynomial(C)
    for z in (np.asarray(0.3 - 1.2j), cnormal(rng, 5), cnormal(rng, 3, 4)):
        expect = np.empty(z.shape + (2, 2), dtype=complex)
        for idx in np.ndindex(z.shape):
            acc = C[-1]
            for c in C[-2::-1]:
                acc = acc * z[idx] + c
            expect[idx] = acc
        assert np.array_equal(P(z), expect)


def test_matrix_polynomial_rejects_bad_shapes():
    # no coefficients would make a polynomial of degree -1 whose call fails
    for bad in (np.zeros((0, 2, 2)), np.zeros((0, 1, 1)), np.zeros((2, 2)),
                np.zeros((1, 2, 3))):
        with pytest.raises(ValueError, match="shape"):
            MatrixPolynomial(bad)


@settings(deadline=None, max_examples=60)
@given(r=st.sampled_from([1, 2, 3]), ps=st.sampled_from([(1, 2), (3, 1),
                                                          (2, 5)]),
       nodes=st.sampled_from([(), (1,), (7,), (256,)]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_node_product_matches_matmul(r, ps, nodes, seed):
    # r multiply-adds per entry against BLAS, which may use fused ones
    rng = np.random.default_rng(seed)
    p, s = ps
    A, B = cnormal(rng, *nodes, p, r), cnormal(rng, *nodes, r, s)
    out = weights.node_product(A, B)
    assert out.shape == nodes + (p, s)
    bound = 4 * np.finfo(float).eps * (np.abs(A) @ np.abs(B))
    assert np.all(np.abs(out - A @ B) <= bound)


@settings(deadline=None, max_examples=60)
@given(r=st.sampled_from([1, 2, 3]), p=st.sampled_from([0, 1, 2, 3, 4, 7]),
       nodes=st.sampled_from([(), (7,), (256,)]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_node_power_matches_matrix_power(r, p, nodes, seed):
    # each of the at most 2 log2(p) products of either side rounds
    # within 4 r eps of its |A|-power
    A = cnormal(np.random.default_rng(seed), *nodes, r, r)
    out = weights.node_power(A, p)
    assert out.shape == nodes + (r, r)
    bound = 4 * p * r * np.finfo(float).eps * np.linalg.matrix_power(
        np.abs(A), p)
    assert np.all(np.abs(out - np.linalg.matrix_power(A, p)) <= bound)


# --- pairing and moments ------------------------------------------------

def test_pairing_residue_identity(quad256):
    fam = ScalarMonomial(r=2, N=1)
    val = mops.pairing(eye_poly(0, 2), eye_poly(0, 2), fam, quad256)
    np.testing.assert_allclose(val, TWO_PI_I * np.eye(2), atol=1e-12)


def test_pairing_monomial(quad256):
    fam = ScalarMonomial(r=2, N=3)
    val = mops.pairing(eye_poly(1, 2), eye_poly(1, 2), fam, quad256)
    np.testing.assert_allclose(val, TWO_PI_I * np.eye(2), atol=1e-12)


def test_pairing_noncommutative(quad256):
    # <zI, I> != <I, zI> for the cyclic weight: W z dz picks different
    # residues on the two sides of the (matrix-valued) product
    fam = CyclicUniform(r=2, L=1, R=1)
    P, Q = eye_poly(1, 2), eye_poly(0, 2)
    lhs = mops.pairing(P, Q, fam, quad256)
    rhs = mops.pairing(Q, P, fam, quad256)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    # the genuine witness: a non-scalar constant polynomial does not
    # commute with the zeroth moment
    C = MatrixPolynomial(np.array([[[1.0, 0.0], [1.0, 1.0]]]))
    lhs = mops.pairing(C, Q, fam, quad256)
    rhs = mops.pairing(Q, C, fam, quad256)
    assert np.max(np.abs(lhs - rhs)) > 1e-3


def test_moments_scalar_monomial(quad256):
    fam = ScalarMonomial(r=1, N=2)
    m = mops.compute_moments(quad256, 2, fam.weight(quad256.nodes))
    expect = np.zeros((5, 1, 1), dtype=complex)
    expect[1, 0, 0] = TWO_PI_I
    np.testing.assert_allclose(m, expect, atol=1e-12)


def test_moments_cyclic_residues(quad256):
    fam = CyclicUniform(r=2, L=1, R=1)
    m = mops.compute_moments(quad256, 1, fam.weight(quad256.nodes))
    # z^{k-1} [[1, 1], [z, 1]]: residues by inspection; every moment
    # with k >= 1 has a polynomial integrand and vanishes
    np.testing.assert_allclose(m[0], TWO_PI_I * np.array([[1, 1], [0, 1]]),
                               atol=1e-12)
    np.testing.assert_allclose(m[1], np.zeros((2, 2)), atol=1e-12)
    np.testing.assert_allclose(m[2], np.zeros((2, 2)), atol=1e-12)


def test_moment_quadrature_convergence(families, quad128, quad256):
    for name, fam in families.items():
        m1 = mops.compute_moments(quad128, 2, fam.weight(quad128.nodes))
        m2 = mops.compute_moments(quad256, 2, fam.weight(quad256.nodes))
        assert np.max(np.abs(m1 - m2)) < 1e-12, name


# --- the four MOP families ----------------------------------------------

def test_monomial_weight_closed_form(quad256):
    fam = ScalarMonomial(r=2, N=2)
    system = mops.mop_system(fam, quad256, 2)
    z = 1.7 - 0.3j
    np.testing.assert_allclose(system.PL[2](z), z ** 2 * np.eye(2),
                               atol=1e-12)
    np.testing.assert_allclose(system.QL[1](z), np.eye(2) / TWO_PI_I,
                               atol=1e-12)


def test_scalar_hand_solution(quad256):
    # w = z^{-2}(1+z): the monic degree-1 condition reads
    # 0 = (2 pi i)^{-1} oint (z + c0)(1+z) z^{-2} dz = c0 + 1,
    # so p_1(z) = z - 1
    nodes = quad256.nodes
    moms = np.stack([
        np.sum(quad256.weights * nodes ** k * (1 + nodes) / nodes ** 2)
        .reshape(1, 1) for k in range(3)])
    system = mops.solve_mops(moms, 1)
    np.testing.assert_allclose(system.PL[1].coeffs[:, 0, 0], [-1.0, 1.0],
                               atol=1e-12)


def reference_mops(moments, sizes):
    """{(name, j): coefficients} of P_j and Q_{j-1} for each size j, from
    one np.linalg.solve per family on the block moment matrix, the left
    families through the blockwise transpose."""
    r = moments.shape[1]
    mT = moments.transpose(0, 2, 1)
    out = {}
    for j in sizes:
        A, AT = (mops._block(m, range(j), range(j)) for m in (moments, mT))
        unit = np.zeros((j * r, r))
        unit[-r:] = np.eye(r)
        out["PR", j] = np.linalg.solve(A, -moments[j:2 * j].reshape(-1, r))
        out["PL", j] = np.linalg.solve(AT, -mT[j:2 * j].reshape(-1, r))
        out["QR", j - 1] = np.linalg.solve(A, unit)
        out["QL", j - 1] = np.linalg.solve(AT, unit)
    for (name, j), X in out.items():
        X = X.reshape(-1, r, r)
        out[name, j] = X.transpose(0, 2, 1) if name[1] == "L" else X
    return out


# each family at the largest degree, up to 3, where its kernel exists;
# scalar-monomial's P_1 and Q_0 are missing there
SOLVE_DEGREES = {"cyclic-r3": 1, "root-k3": 1}
SOLVE_CASES = [(name, make(), SOLVE_DEGREES.get(name, 2))
               for name, make in _DEFAULT_FAMILIES]
SOLVE_CASES.append(("cyclic-r3-L4R3", CyclicUniform(r=3, L=4, R=3), 3))


@pytest.mark.parametrize("name, fam, N", SOLVE_CASES,
                         ids=[f"{c[0]}-N{c[2]}" for c in SOLVE_CASES])
def test_solve_mops_one_factorization_per_size(name, fam, N, quad256,
                                               monkeypatch):
    # sizes 1..N each serve P_j and Q_{j-1} on both sides; size N is the
    # kernel's system, whose one check serves both: N singularity checks
    # per solve
    moments = mops.compute_moments(quad256, N, fam.weight(quad256.nodes))
    calls = []
    check = mops._check_singular

    def counted(A, *args):
        calls.append(A.shape)
        return check(A, *args)

    monkeypatch.setattr(mops, "_check_singular", counted)
    system = mops.solve_mops(moments, N)
    assert len(calls) == N
    assert system.conditions[("P", N)] == system.conditions[("Q", N - 1)] \
        == system.conditions["kernel"]
    for kind, j in system.missing:
        for side in "LR":
            with pytest.raises(SingularSystemError):
                getattr(system, kind + side)[j]
    sizes = [j for j in range(1, N + 1) if ("P", j) not in system.missing]
    for (fam_name, j), X in reference_mops(moments, sizes).items():
        got = getattr(system, fam_name)[j].coeffs
        if fam_name[0] == "P":
            assert np.array_equal(got[-1], np.eye(fam.r))
            got = got[:-1]
        assert np.max(np.abs(got - X)) <= 1e-12 * np.max(np.abs(X))


def test_biorthogonality_residual_matches_pairings(families, quad256):
    fam = families["periodic-2x1"]
    system = mops.mop_system(fam, quad256, 2)
    expect = 0.0
    for j in range(system.N):
        for k in range(system.N):
            val = mops.pairing(system.PL[j], system.QR[k], fam, quad256)
            expect = max(expect, float(np.max(np.abs(
                val - (np.eye(2) if j == k else 0)))))
    assert mops.biorthogonality_residual(
        system, quad256, values_at(system, fam, quad256)) == expect


def test_biorthogonality(quad256):
    # L=4, R=3 keeps every moment system through degree 3 invertible
    # (the pole order has to match the degree window)
    fam = CyclicUniform(r=2, L=4, R=3)
    system = mops.mop_system(fam, quad256, 3)
    assert mops.biorthogonality_residual(
        system, quad256, values_at(system, fam, quad256)) < 1e-10


def test_monic_leading_coefficients(quad256):
    fam = CyclicUniform(r=2, L=2, R=2)
    system = mops.mop_system(fam, quad256, 2)
    for j in range(3):
        np.testing.assert_allclose(system.PL[j].coeffs[-1], np.eye(2),
                                   atol=1e-13)
        np.testing.assert_allclose(system.PR[j].coeffs[-1], np.eye(2),
                                   atol=1e-13)


def test_transpose_symmetry(quad256):
    # if W = W^T then the left monic family is the transpose of the right
    def wsym(z):
        base = np.array([[2.0, 1.0], [1.0, 3.0]])
        return (np.asarray(z)[..., None, None] ** (-2) * base
                + np.asarray(z)[..., None, None] ** (-1) * np.eye(2))

    nodes = quad256.nodes
    moms = np.stack([np.tensordot(quad256.weights,
                                  nodes[:, None, None] ** k * wsym(nodes),
                                  axes=(0, 0)) for k in range(5)])
    system = mops.solve_mops(moms, 2)
    for j in range(3):
        np.testing.assert_allclose(
            system.PL[j].coeffs,
            np.transpose(system.PR[j].coeffs, (0, 2, 1)), atol=1e-11)


def test_weight_scaling(quad256):
    fam = CyclicUniform(r=2, L=2, R=2)
    moms = mops.compute_moments(quad256, 2, fam.weight(quad256.nodes))
    s1 = mops.solve_mops(moms, 2)
    s3 = mops.solve_mops(3.0 * moms, 2)
    w, z = 1.3 + 0.1j, 0.4 - 0.2j
    np.testing.assert_allclose(mops.cd_kernel(s3, w, z),
                               mops.cd_kernel(s1, w, z) / 3, atol=1e-12)


# --- CD kernel: three routes --------------------------------------------

def test_kernel_monomial_closed_form(quad256):
    fam = ScalarMonomial(r=2, N=2)
    system = mops.mop_system(fam, quad256, 2)
    expect = (9 - 4) / (TWO_PI_I * 1) * np.eye(2)
    # degree-0 duals of z^{-2} I do not exist (zeroth moment vanishes),
    # so the biorthogonal-sum route is unavailable here; the block and
    # CD-formula routes still give the kernel
    for route in (mops.cd_kernel, mops.cd_kernel_formula):
        np.testing.assert_allclose(route(system, 2.0, 3.0), expect,
                                   atol=1e-12)
    assert ("Q", 0) in system.missing
    with pytest.raises(SingularSystemError):
        mops.biorthogonality_residual(system, quad256,
                                      values_at(system, fam, quad256))


def test_kernel_sum_two_forms_agree(quad256, rng):
    # sum_j Q^R_j(w) P^L_j(z) equals sum_j P^R_j(w) Q^L_j(z)
    fam = CyclicUniform(r=2, L=2, R=2)
    system = mops.mop_system(fam, quad256, 2)
    for _ in range(10):
        w = 1.3 * np.exp(2j * np.pi * rng.random())
        z = 0.8 * np.exp(2j * np.pi * rng.random())
        a = mops.cd_kernel_sum(system, w, z)
        b = sum(system.PR[j](w) @ system.QL[j](z) for j in range(system.N))
        np.testing.assert_allclose(a, b, atol=1e-10)


def test_kernel_three_routes(quad256, rng):
    fam = CyclicUniform(r=2, L=2, R=2)
    system = mops.mop_system(fam, quad256, 2)
    values = values_at(system, fam, quad256)
    for _ in range(50):
        w = 1.4 * np.exp(2j * np.pi * rng.random())
        z = 0.7 * np.exp(2j * np.pi * rng.random())
        Kf = mops.cd_kernel_formula(system, w, z)
        np.testing.assert_allclose(mops.cd_kernel_sum(system, w, z), Kf,
                                   atol=1e-10)
        np.testing.assert_allclose(mops.cd_kernel(system, w, z), Kf,
                                   atol=1e-10)
        np.testing.assert_allclose(
            mops.kernel_from_Y(system, quad256, w, z, values), Kf, atol=1e-7)


def test_kernel_removable_singularity(quad256):
    fam = CyclicUniform(r=2, L=2, R=2)
    system = mops.mop_system(fam, quad256, 2)
    z = 0.9 + 0.2j
    near = mops.cd_kernel_formula(system, z + 1e-9, z)
    np.testing.assert_allclose(near, mops.cd_kernel_sum(system, z, z),
                               atol=1e-8)


def test_kernel_formula_on_arrays_falls_back_per_pair(quad256):
    fam = CyclicUniform(r=2, L=2, R=2)
    system = mops.mop_system(fam, quad256, 2)
    w = np.array([0.3, 0.4, 0.9 + 0.2j + 1e-9, 1.3j])
    z = np.array([0.3, 0.1, 0.9 + 0.2j, 0.7])
    K = mops.cd_kernel_formula(system, w, z)
    assert K.shape == (4, 2, 2)
    for k in range(4):
        assert np.array_equal(K[k], mops.cd_kernel_formula(system, w[k], z[k]))
    for k in (0, 2):  # coincident and 1e-9 apart: the sum, per pair
        assert np.array_equal(K[k], mops.cd_kernel_sum(system, w[k], z[k]))
    np.testing.assert_allclose(K, mops.cd_kernel(system, w, z), atol=1e-8)
    grid = mops.cd_kernel_formula(system, w[:, None], z[None, :])
    np.testing.assert_allclose(grid, mops.cd_kernel(system, w[:, None],
                                                    z[None, :]), atol=1e-8)


BATCH_FAMILIES = {"periodic-2x1": None, "periodic-2x2-b": None,
                  "cyclic-r3": CyclicUniform(r=3, L=2, R=2)}


@pytest.mark.parametrize("n", [256, 512])
@pytest.mark.parametrize("name", sorted(BATCH_FAMILIES))
def test_kernel_from_Y_batch_matches_pairs(families, name, n, rng):
    # the contour data are built once for the batch; every pair's
    # kernel is the number a call with that pair alone gives
    fam = BATCH_FAMILIES[name] or families[name]
    quad = unit_circle_quadrature(n)
    system = mops.mop_system(fam, quad, 2)
    w = 1.3 * np.exp(2j * np.pi * rng.random(10))
    z = 0.8 * np.exp(2j * np.pi * rng.random(10))
    values = values_at(system, fam, quad)
    batch = mops.kernel_from_Y(system, quad, w, z, values)
    assert batch.shape == (10, fam.r, fam.r)
    pairs = [mops.kernel_from_Y(system, quad, a, b, values)
             for a, b in zip(w, z)]
    assert np.array_equal(batch, pairs)
    np.testing.assert_allclose(batch, mops.cd_kernel(system, w, z),
                               atol=1e-7)


# --- Riemann-Hilbert assembly -------------------------------------------

def test_Y_unimodular_and_inverse(quad256):
    fam = CyclicUniform(r=2, L=2, R=2)
    system = mops.mop_system(fam, quad256, 2)
    z = 2.0 * np.exp(0.6j)
    values = values_at(system, fam, quad256)
    Y = mops.assemble_Y(system, quad256, z, values)
    Yi = mops.assemble_Yinv(system, quad256, z, values)
    assert abs(np.linalg.det(Y) - 1) < 1e-8
    np.testing.assert_allclose(Y @ Yi, np.eye(4), atol=1e-8)


def test_Y_asymptotics(quad256):
    fam = CyclicUniform(r=2, L=2, R=2)
    system = mops.mop_system(fam, quad256, 2)
    z = 1e3 * np.exp(0.3j)
    Y = mops.assemble_Y(system, quad256, z, values_at(system, fam, quad256))
    scale = np.diag([z ** -2, z ** -2, z ** 2, z ** 2])
    assert np.max(np.abs(Y @ scale - np.eye(4))) < 1e-2


def test_Y_jump_condition(quad256):
    # boundary values from deformed contours on either side of the unit
    # circle satisfy Y+ = Y- [[I, W], [0, I]]
    fam = CyclicUniform(r=2, L=2, R=2)
    system = mops.mop_system(fam, quad256, 2)
    inner = circle_quadrature(0, 0.8, 256)
    outer = circle_quadrature(0, 1.25, 256)
    s = np.exp(0.7j)
    Yp = mops.assemble_Y(system, outer, s, values_at(system, fam, outer))
    Ym = mops.assemble_Y(system, inner, s, values_at(system, fam, inner))
    J = np.eye(4, dtype=complex)
    J[:2, 2:] = fam.weight(s)
    assert np.max(np.abs(Yp - Ym @ J)) < 1e-6


# --- reproducing properties ---------------------------------------------

def test_reproducing_and_dual(quad256, rng):
    for fam in (CyclicUniform(r=2, L=2, R=2),
                ScalarMonomial(r=2, N=2)):
        system = mops.mop_system(fam, quad256, 2)
        W = fam.weight(quad256.nodes)
        for _ in range(20):
            C = (rng.standard_normal((2, 2, 2))
                 + 1j * rng.standard_normal((2, 2, 2)))
            P = MatrixPolynomial(C)
            z = 0.8 * np.exp(2j * np.pi * rng.random())
            assert mops.reproducing_residual(system, quad256, P, z, W) \
                < 1e-8
            assert mops.dual_reproducing_residual(system, quad256, P, z,
                                                  W) < 1e-8


@pytest.mark.parametrize("n", [256, 512])
@pytest.mark.parametrize("name", ["periodic-2x1", "periodic-2x2-b",
                                  "cyclic-r3-L2R2"])
def test_reproducing_residual_batch_matches_single(families, name, n, rng):
    # one contraction over five (P, z) pairs gives the max of the five
    # single calls; a degree-N polynomial, outside the reproduced space,
    # misses both alone and inside a batch.  Batch and single calls round
    # differently in the last product, where |U_a| |C_ab| reaches 2e3
    # and cancels to |P(z)|: on these cases they differ by up to 1.7e-13.
    fam = (CyclicUniform(r=3, L=2, R=2) if name == "cyclic-r3-L2R2"
           else families[name])
    quad = unit_circle_quadrature(n)
    system = mops.mop_system(fam, quad, 2)
    r = fam.r
    polys = [MatrixPolynomial(cnormal(rng, 2, r, r)) for _ in range(5)]
    zs = 0.9 * np.exp(2j * np.pi * rng.random(5))
    outside = MatrixPolynomial(cnormal(rng, 3, r, r))
    W = fam.weight(quad.nodes)
    for residual in (mops.reproducing_residual,
                     mops.dual_reproducing_residual):
        batch = residual(system, quad, polys, zs, W)
        singles = [residual(system, quad, P, z, W)
                   for P, z in zip(polys, zs)]
        assert abs(batch - max(singles)) <= 1e-12
        assert batch < 1e-8
        assert residual(system, quad, outside, zs[0], W) > 1e-3
        assert residual(system, quad, polys[:4] + [outside], zs, W) > 1e-3


# --- kernel integral ----------------------------------------------------

def cnormal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_kernel_integral_matrix_r2(families, quad256, rng):
    # sum_{k,j} left[k] R(w_k, z_j) right[j] against the pointwise kernel,
    # on two different circles
    system = mops.mop_system(families["periodic-2x1"], quad256, 2)
    w = 0.7 * np.exp(2j * np.pi * rng.random(7))
    z = 1.3 * np.exp(2j * np.pi * rng.random(5))
    left, right = cnormal(rng, 7, 3, 2), cnormal(rng, 5, 2, 4)
    brute = sum(left[k] @ mops.cd_kernel(system, w[k], z[j]) @ right[j]
                for k in range(7) for j in range(5))
    val = mops.kernel_integral(system.kernel_coeffs, w, left, z, right)
    assert val.shape == (3, 4)
    np.testing.assert_allclose(val, brute, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(brute)))


def test_kernel_integral_scalar_r1(quad256, rng):
    # a scalar kernel is the r = 1 case: factors (n, 1) and (n, 1, ...),
    # the result has the right factor's trailing shape
    system = sops.solve_scalar_ops(lambda z: (1 + z) ** 4 * z ** -4,
                                   quad256, 4)
    w = 0.9 * np.exp(2j * np.pi * rng.random(6))
    z = 1.1 * np.exp(2j * np.pi * rng.random(4))
    left, right = cnormal(rng, 6), cnormal(rng, 4, 2)
    brute = sum(left[k] * mops.cd_kernel(system, w[k], z[j])[0, 0]
                * right[j] for k in range(6) for j in range(4))
    val = mops.kernel_integral(system.kernel_coeffs, w, left[:, None], z,
                               right[:, None])
    assert val.shape == (2,)
    np.testing.assert_allclose(val, brute, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(brute)))


def test_kernel_integral_nodes_off_circle(families, quad256, rng):
    # scattered nodes, vector factors, brute force over the broadcast
    # product-grid tables of both kernels
    w, z = cnormal(rng, 9), 0.5 + cnormal(rng, 8)
    system = mops.mop_system(families["periodic-2x2-b"], quad256, 2)
    R = mops.cd_kernel(system, w[:, None], z[None, :])
    assert R.shape == (9, 8, 2, 2)
    left, right = cnormal(rng, 9, 2), cnormal(rng, 8, 2)
    brute = np.einsum("ka,kjab,jb->", left, R, right)
    val = mops.kernel_integral(system.kernel_coeffs, w, left, z, right)
    assert val.shape == ()
    np.testing.assert_allclose(val, brute, rtol=1e-12)

    scalar = sops.solve_scalar_ops(lambda s: s ** -3 * (2 + s), quad256, 3)
    Rs = mops.cd_kernel(scalar, w[:, None], z[None, :])[..., 0, 0]
    u, v = cnormal(rng, 9), cnormal(rng, 8)
    np.testing.assert_allclose(
        mops.kernel_integral(scalar.kernel_coeffs, w, u[:, None], z,
                             v[:, None]),
        u @ Rs @ v, rtol=1e-12)
