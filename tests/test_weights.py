import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdsurface import (CyclicUniform, InvalidArgumentError, Periodic2x1,
                       Periodic2x2, PoleError, ScalarMonomial,
                       TwoByTwoRootK, UnsupportedFamilyError,
                       check_spectral, family_from_json)
from conftest import make_families, random_offcut_points


# --- pointwise weight evaluation ----------------------------------------

def test_weight_cyclic_r2():
    fam = CyclicUniform(r=2, L=1, R=1)
    z = 0.7 + 0.4j
    expect = np.array([[1, 1], [z, 1]]) / z
    np.testing.assert_allclose(fam.weight(z), expect, atol=1e-14)


def test_weight_scalar_monomial():
    fam = ScalarMonomial(r=2, N=3)
    np.testing.assert_allclose(fam.weight(2.0), np.eye(2) / 8, atol=1e-15)


def test_weight_periodic_2x1_all_ones():
    fam = Periodic2x1(a0=1, a1=1, b0=1, b1=1, L=1, M=2, N=2)
    np.testing.assert_allclose(fam.weight(1.0), np.ones((2, 2)), atol=1e-14)


def test_weight_at_a_scalar_is_one_matrix():
    for fam in make_families().values():
        assert np.shape(fam.weight(0.7 + 0.4j)) == (fam.r, fam.r)


def test_weight_pole_error():
    for fam in make_families().values():
        with pytest.raises(PoleError):
            fam.weight(0.0)


def test_int_parameters_are_checked_when_built():
    # named at construction, not later inside `weight`
    for kwargs, name in [(dict(r=2, L=2.5, R=2), "'L'"),
                         (dict(r=2, L=True, R=2), "'L'"),
                         (dict(r=2.0, L=2, R=2), "'r'")]:
        with pytest.raises(InvalidArgumentError, match=f"cyclic: .*{name}"):
            CyclicUniform(**kwargs)
    with pytest.raises(InvalidArgumentError, match="'N'"):
        Periodic2x1(a0=1.0, a1=1.0, b0=1.0, b1=1.0, L=2, M=2, N=2.0)
    with pytest.raises(InvalidArgumentError, match="'N'"):
        ScalarMonomial(r=1, N=np.float64(2))
    fam = CyclicUniform(r=np.int64(2), L=2, R=2)
    assert type(fam.r) is int and fam == CyclicUniform(r=2, L=2, R=2)


def test_periodic_weights_must_be_finite_and_positive():
    with pytest.raises(InvalidArgumentError):
        Periodic2x1(a0=np.nan, a1=1.0, b0=1.0, b1=1.0, L=1, M=2, N=2)
    with pytest.raises(InvalidArgumentError):
        Periodic2x2(a=((1.0, np.inf), (1.0, 1.0)), b=((1.0, 1.0), (1.0, 1.0)),
                    L=2, M=2, N=2)
    with pytest.raises(InvalidArgumentError, match="periodic-2x2 a: "):
        Periodic2x2(a=((1.0, 1.0, 1.0), (1.0, 1.0)),
                    b=((1.0, 1.0), (1.0, 1.0)), L=2, M=2, N=2)


# --- transition matrices ------------------------------------------------

def test_transition_periodic_2x1():
    fam = Periodic2x1(a0=1.0, a1=0.7, b0=1.2, b1=0.5, L=2, M=2, N=2)
    z = 1.3 - 0.2j
    expect = np.array([[1.2, 1.0], [0.7 * z, 0.5]])
    np.testing.assert_allclose(fam.transition(0, z), expect,
                               atol=1e-14)


def test_transition_periodicity_2x2():
    fam = make_families()["periodic-2x2-b"]
    z = 0.8 + 0.1j
    np.testing.assert_allclose(fam.transition(2, z),
                               fam.transition(0, z), atol=1e-15)


def test_transition_uniform_rx1_at_zero():
    fam = CyclicUniform(r=2, L=2, R=1)
    np.testing.assert_allclose(fam.transition(0, 0.0),
                               np.array([[1, 1], [0, 1]]), atol=1e-15)


def test_transition_unsupported():
    with pytest.raises(UnsupportedFamilyError):
        ScalarMonomial(r=2, N=2).transition(0, 1.0)


# --- closed-form spectral data ------------------------------------------

def test_spectral_root_k1_printed_forms():
    fam = TwoByTwoRootK(k=1, L=2, M=1)
    z = 1.4 + 0.3j
    pt = fam.point(0, z)
    eta = np.sqrt(z)
    np.testing.assert_allclose(fam.evec(*pt), [1, eta], atol=1e-14)
    np.testing.assert_allclose(fam.evec_inv(*pt), [0.5, 0.5 / eta],
                               atol=1e-14)
    assert abs(fam.lam(*pt) - z ** (-1) * (1 + eta) ** 2) < 1e-14


def test_spectral_cyclic_r3_printed_forms():
    fam = CyclicUniform(r=3, L=1, R=1)
    z = 0.9 + 0.5j
    pt = fam.point(0, z)
    eta = np.exp(np.log(z) / 3)
    np.testing.assert_allclose(fam.evec(*pt), [1, eta, eta ** 2],
                               atol=1e-14)
    np.testing.assert_allclose(fam.evec_inv(*pt),
                               np.array([1, 1 / eta, 1 / eta ** 2]) / 3,
                               atol=1e-14)
    assert abs(fam.lam(*pt) - (1 + eta) / z) < 1e-14


def test_spectral_periodic_2x1_equal_b():
    # with b0 = b1 the branch point moves to 0 and
    # lambda-hat = b0 +/- sqrt(a0 a1 z)
    fam = Periodic2x1(a0=0.8, a1=1.3, b0=0.9, b1=0.9, L=2, M=2, N=2)
    z = 1.1 + 0.6j
    s = np.sqrt(0.8 * 1.3) * np.sqrt(z)
    assert abs(fam.lamhat(*fam.point(0, z)) - (0.9 + s)) < 1e-14
    assert abs(fam.lamhat(*fam.point(1, z)) - (0.9 - s)) < 1e-14


def test_spectral_periodic_2x2_derived_constants():
    fam = make_families()["periodic-2x2-b"]
    assert fam.a_minus == -1
    assert fam.b_minus == 1
    assert fam.c0 == 8
    assert fam.c1 == 9
    zm, zp = fam.branch_points()
    assert abs(zm - (-17 - np.sqrt(288))) < 1e-12
    assert abs(zp - (-17 + np.sqrt(288))) < 1e-12


def test_spectral_scalar_monomial_exact():
    fam = ScalarMonomial(r=2, N=2)
    assert check_spectral(fam, 1.3 + 0.2j) == 0.0


def test_spectral_residuals_100_random_points(rng):
    for name, fam in make_families().items():
        for z in random_offcut_points(rng, 100):
            assert check_spectral(fam, z) < 1e-12, name


def test_weight_reconstruction_from_spectral(rng):
    for name, fam in make_families().items():
        r = fam.r
        for z in random_offcut_points(rng, 5):
            pts = [fam.point(k, z) for k in range(r)]
            E = np.stack([fam.evec(*pt) for pt in pts], axis=-1)
            Ei = np.stack([fam.evec_inv(*pt) for pt in pts], axis=-2)
            lam = np.diag([fam.lam(*pt) for pt in pts])
            np.testing.assert_allclose(E @ lam @ Ei, fam.weight(z),
                                       atol=1e-10, err_msg=name)


def test_sheet_swap_continuity_across_cut():
    """Approaching the cut from opposite sides, the eigenvalue branches
    match after a sheet exchange."""
    checked = 0
    for name, fam in make_families().items():
        if fam.cut_description == "none":
            continue
        # probe ten points along each family's cut ray
        if name.startswith("periodic-2x1"):
            base = fam.z1 - np.linspace(0.2, 2.0, 10)
        elif name.startswith("periodic-2x2"):
            zm, *rest = fam.branch_points()
            base = (np.linspace(zm, rest[0], 12)[1:-1] if rest
                    else zm - np.linspace(0.2, 2.0, 10))
        else:
            base = -np.linspace(0.2, 2.0, 10)
        eps = 1e-9
        for x in base:
            lam_up = [fam.lam(*fam.point(k, x + 1j * eps))
                      for k in range(fam.r)]
            lam_dn = [fam.lam(*fam.point(k, x - 1j * eps))
                      for k in range(fam.r)]
            # every upper-side branch continues into some lower-side one
            for lu in lam_up:
                assert min(abs(lu - ld) for ld in lam_dn) < 1e-5 * (
                    1 + abs(lu))
            checked += 1
    assert checked >= 40


@settings(deadline=None, max_examples=40)
@given(rad=st.floats(0.6, 1.9), ang=st.floats(0.1, np.pi - 0.1),
       sign=st.sampled_from([-1.0, 1.0]))
def test_spectral_residual_property(rad, ang, sign):
    z = rad * np.exp(1j * sign * ang)
    for fam in make_families().values():
        assert check_spectral(fam, z) < 1e-11


# --- JSON config --------------------------------------------------------

def test_family_json_roundtrip():
    # through the JSON text too: that is what --family-json receives
    for fam in make_families().values():
        assert family_from_json(fam.to_json()) == fam
        assert family_from_json(json.loads(json.dumps(fam.to_json()))) == fam


def test_family_json_params_are_the_fields():
    for fam in make_families().values():
        assert list(fam.to_json()["params"]) == [
            f.name for f in dataclasses.fields(fam)]


def test_family_json_errors():
    with pytest.raises(InvalidArgumentError):
        family_from_json({"params": {}})
    with pytest.raises(UnsupportedFamilyError):
        family_from_json({"family": "nope"})
    # the error names the parameter: an unknown key, an int parameter
    # that is not an integer, a missing key
    cyclic = {"r": 2, "L": 2, "R": 2}
    for params, name in [({**cyclic, "x": 1}, "'x'"),
                         ({**cyclic, "L": 2.5}, "'L'"),
                         ({**cyclic, "L": float("nan")}, "'L'"),
                         ({**cyclic, "R": float("inf")}, "'R'"),
                         ({**cyclic, "L": True}, "'L'"),
                         ({"r": 2, "R": 2}, "'L'")]:
        with pytest.raises(InvalidArgumentError, match=name):
            family_from_json({"family": "cyclic", "params": params})
