"""Property tests over the (alpha, t) domain: the closed forms, the Kraus- and Choi-level functionals, and the oracle's certificate."""
import cmath
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from qtradeoff import (
    Ensemble,
    choi_functionals,
    disturbance,
    helstrom_min_disturbance,
    helstrom_probability,
    kraus_to_choi,
    maximize,
    optimal_instrument,
    success_probability,
    symmetric_pair,
    tilt_t,
    tradeoff_point,
)
from qtradeoff import oracle as oracle_module
from qtradeoff.tradeoff import _curve_rows

from conftest import curve_disturbance_reference

mpmath = pytest.importorskip("mpmath")
pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

EPS = float(np.finfo(float).eps)


def _closed_form_references(alpha, t):
    """Each closed form at 60 digits, from the exact binary values of alpha and t."""
    with mpmath.workdps(60):
        a, tm = mpmath.mpf(alpha), mpmath.mpf(t)
        gamma = mpmath.sqrt((1 - tm) * (1 + tm))
        s2, c2 = mpmath.sin(2 * a), mpmath.cos(2 * a)
        beta_t = mpmath.atan2(tm * s2, c2 ** 2 + gamma * s2 ** 2) / 2
        d_t = curve_disturbance_reference(mpmath, alpha, t)
        d_opt = curve_disturbance_reference(mpmath, alpha, 1.0)
        return {
            "P": tm * mpmath.cos(a) ** 2 + (1 - tm) / 2,
            "D": d_t,
            "beta_t": beta_t,
            "gamma": gamma,
            "helstrom_probability": mpmath.cos(a) ** 2,
            "helstrom_min_disturbance": d_opt,
            # tan 2b = tan 2a / cos 2a, with both sides multiplied by cos 2a >= 0.
            "tilt_at_full_strength": mpmath.atan2(s2, c2 ** 2) / 2,
            "tilt_t": beta_t,
            "dist": d_t / d_opt if 0 < alpha < math.pi / 4 else None,
        }


# Relative error against 60-digit mpmath over the whole domain, edges
# included. References below the smallest normal double are skipped: there D
# underflows, to 0 at a = t = 1e-300. The curve's dist = D_t / D_opt, as the
# CLI writes it, is blank at a in {0, pi/4}, and stays accurate below a of
# about 1e-162, where D_opt underflows.
@settings(derandomize=True, deadline=None, max_examples=300)
@given(alpha=st.floats(0.0, math.pi / 4), t=st.floats(0.0, 1.0))
@example(alpha=0.0, t=0.0)
@example(alpha=math.pi / 4, t=1.0)
@example(alpha=math.pi / 4 - 1e-15, t=math.nextafter(1.0, 0.0))
@example(alpha=math.nextafter(math.pi / 4, 0.0), t=1.0)
@example(alpha=1e-300, t=1e-300)
@example(alpha=1e-8, t=1e-8)
@example(alpha=1e-170, t=0.5)
@example(alpha=5e-324, t=0.3)
def test_closed_forms_against_mpmath(alpha, t):
    pt = tradeoff_point(alpha, t)
    values = {
        "P": pt.P, "D": pt.D, "beta_t": pt.beta_t, "gamma": pt.gamma,
        "helstrom_probability": helstrom_probability(alpha),
        "helstrom_min_disturbance": helstrom_min_disturbance(alpha),
        "tilt_at_full_strength": tilt_t(alpha, 1.0),
        "tilt_t": tilt_t(alpha, t),
        "dist": next(_curve_rows(alpha, (t,)))[6],
    }
    for name, reference in _closed_form_references(alpha, t).items():
        if reference is None:
            continue
        if reference == 0:
            assert values[name] == 0.0, name
        elif reference >= sys.float_info.min:
            assert abs((mpmath.mpf(values[name]) - reference) / reference) <= 1e-14, name


@settings(derandomize=True, deadline=None, max_examples=200)
@given(alpha=st.floats(0.0, math.pi / 4), t=st.floats(0.0, 1.0))
def test_kraus_disturbance_tracks_the_curve(alpha, t):
    d = disturbance(optimal_instrument(alpha, t), Ensemble.equal_pair(symmetric_pair(alpha)))
    reference = curve_disturbance_reference(mpmath, alpha, t)
    assert d >= 0.0
    assert abs(mpmath.mpf(d) - reference) <= 2 * EPS * (float(mpmath.sqrt(reference)) + EPS)


# README: the Choi route's D agrees with D_t within 2 eps; its P carries the
# rounding of the Kraus entries and of the quadratic forms.
@settings(derandomize=True, deadline=None, max_examples=200)
@given(alpha=st.floats(0.0, math.pi / 4), t=st.floats(0.0, 1.0))
def test_choi_functionals_track_the_curve(alpha, t):
    r1, r2 = (kraus_to_choi(ops) for ops in optimal_instrument(alpha, t).outcomes)
    p, d = choi_functionals(r1, r2, symmetric_pair(alpha))
    reference = curve_disturbance_reference(mpmath, alpha, t)
    assert abs(mpmath.mpf(d) - reference) <= 2 * EPS
    assert abs(p - tradeoff_point(alpha, t).P) <= 4 * EPS


# The oracle's bound holds and its gap stays at rounding inside the domain's
# edges; the largest gap seen on 20000 random points was 27 eps.
@settings(derandomize=True, deadline=None, max_examples=200)
@given(alpha=st.floats(0.01, 0.78), t=st.floats(1e-6, 0.999))
def test_oracle_certificate_holds(alpha, t):
    result = maximize(symmetric_pair(alpha), t)
    assert result.lower_bound_D <= tradeoff_point(alpha, t).D
    assert 0.0 <= result.certified_gap <= 64 * EPS


def _ldl_positive_definite(m):
    """Whether the symmetric matrix m is positive definite, by an LDL^T in exact fractions."""
    a = [[Fraction(x) for x in row] for row in m]
    for k in range(len(a)):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            for j in range(k + 1, len(a)):
                a[i][j] -= f * a[k][j]
    return True


def _symmetric(upper):
    """The symmetric 4x4 matrix with upper triangle upper, row by row."""
    m = [[0.0] * 4 for _ in range(4)]
    for (i, j), x in zip(((i, j) for i in range(4) for j in range(i, 4)), upper):
        m[i][j] = m[j][i] = x
    return m


# Entries from subnormal to 1e300 and zeros; Gram matrices fl(B^T B), with
# PSD and indefinite ones near the boundary; diagonally dominant ones, mostly
# positive definite; and exactly singular PSD ones v v^T, whose entries are
# exact products, which the strict test refuses.
_ENTRY = st.one_of(st.just(0.0), st.floats(-1e300, 1e300), st.floats(-1e-300, 1e-300))
_UPPER = st.lists(_ENTRY, min_size=10, max_size=10)
_GRAM = st.lists(st.lists(st.one_of(st.just(0.0), st.floats(-1e100, 1e100)), min_size=4, max_size=4),
                 min_size=4, max_size=4).map(
    lambda b: [[math.fsum(b[k][i] * b[k][j] for k in range(4)) for j in range(4)] for i in range(4)])
_DOMINANT = _UPPER.map(lambda upper: [[sum(abs(x) for x in row) if i == j else x for j, x in enumerate(row)]
                                      for i, row in enumerate(_symmetric(upper))])
_RANK_ONE = st.lists(st.tuples(st.integers(-2 ** 20, 2 ** 20), st.integers(-480, 480)),
                     min_size=4, max_size=4).map(
    lambda v: [[math.ldexp(m * n, e + f) for n, f in v] for m, e in v])


@settings(derandomize=True, deadline=None, max_examples=400)
@given(m=st.one_of(_UPPER.map(_symmetric), _GRAM, _DOMINANT, _RANK_ONE))
@example(m=_symmetric([5e-324, 0.0, 0.0, 0.0, 1e300, 0.0, 0.0, 1.0, 0.0, 1.0]))
@example(m=_symmetric([1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0]))
@example(m=_symmetric([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0]))
def test_exact_test_agrees_with_fraction_ldl(m):
    upper, _ = oracle_module._integers([m[i][j] for i in range(4) for j in range(i, 4)])
    assert oracle_module._positive_definite(upper) == _ldl_positive_definite(m)


# Moduli (cos th, sin th), a relative phase phi and a global phase g, with the
# alpha that the overlap 2 Re(conj(a1) b1) = sin 2th cos phi alone accepts. The
# pair is refused unless it is the one every route assumes; an accepted pair
# reaches P_t and D_t on the Kraus route, within the checks' 1e-12.
@settings(derandomize=True, deadline=None, max_examples=200)
@given(th=st.floats(0.0, math.pi / 2), phi=st.floats(-math.pi / 2, math.pi / 2),
       g=st.floats(-math.pi, math.pi))
@example(th=math.pi / 4, phi=0.7, g=0.0)
@example(th=math.pi / 2 - 0.3, phi=0.0, g=0.0)
@example(th=0.3, phi=0.0, g=0.4)
def test_ensemble_alpha_fixes_the_pair(th, phi, g):
    psi1 = cmath.exp(1j * g) * np.array([math.cos(th), cmath.exp(1j * phi) * math.sin(th)])
    alpha = math.asin(math.sin(2 * th) * math.cos(phi)) / 2
    try:
        ens = Ensemble(priors=(0.5, 0.5), states=(psi1, psi1[::-1]), alpha=alpha)
    except ValueError as err:
        assert str(err).startswith("alpha requires states[0] to be a global phase"), str(err)
        return
    inst, pt = optimal_instrument(alpha, 0.5), tradeoff_point(alpha, 0.5)
    assert abs(success_probability(inst, ens) - pt.P) <= 1e-10
    assert abs(disturbance(inst, ens) - pt.D) <= 1e-10
