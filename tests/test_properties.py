"""Property test: the Kraus-level disturbance over the whole (alpha, t) domain."""
import math

import numpy as np
import pytest

from qtradeoff import Ensemble, disturbance, optimal_instrument, symmetric_pair

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
