"""Property tests over the (alpha, t) domain: the closed forms, the Kraus- and Choi-level functionals, and the oracle's certificate."""
import math
import sys

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
    symmetric_pair,
    tilt_t,
    tradeoff_point,
)
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
