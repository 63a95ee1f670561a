"""Property tests over the (alpha, t) domain: the Kraus- and Choi-level functionals, and the oracle's certificate."""
import math

import numpy as np
import pytest

from qtradeoff import (
    Ensemble,
    choi_functionals,
    disturbance,
    kraus_to_choi,
    maximize,
    optimal_instrument,
    symmetric_pair,
    tradeoff_point,
)

from conftest import curve_disturbance_reference

mpmath = pytest.importorskip("mpmath")
pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

EPS = float(np.finfo(float).eps)


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
