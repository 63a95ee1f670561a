"""Closed forms for the optimal information-disturbance tradeoff.

Everything here is a function of the half-angle a (radians, [0, pi/4]) of the
symmetric state pair and of the control parameter t in [0, 1] that fixes the
success probability P_t = t cos^2 a + (1-t)/2. t = 0 is the identity channel
(no measurement), t = 1 is the minimum-error measurement with the least
disturbing feedback.

On the optimal curve D_t = (1 - sqrt(1 - s^2))/2 with s = (sin 4a / 2)(1 -
sqrt(1 - t^2)). Both differences 1 - sqrt(1 - x^2) are evaluated as
x^2 / (1 + sqrt(1 - x^2)), which does not cancel as x -> 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instruments import Instrument
from .qubit import ID2, SIGMA_Z, check_alpha, check_t


def _gamma(t: float) -> float:
    """sqrt(1 - t^2), with 1 - t^2 factored so that it stays accurate as t -> 1."""
    return float(np.sqrt((1.0 - t) * (1.0 + t)))


def _curve_disturbance(s: float) -> float:
    """The root (1 - sqrt(1 - s^2))/2 of D (1 - D) = s^2/4, for s in [0, 1/2]."""
    return float(s * s / (2.0 * (1.0 + np.sqrt(1.0 - s * s))))


def helstrom_probability(alpha: float) -> float:
    """Maximum achievable success probability cos^2 a."""
    return float(np.cos(check_alpha(alpha)) ** 2)


def optimal_tilt(alpha: float) -> float:
    """Feedback tilt minimizing the disturbance of the minimum-error measurement.

    Solves tan 2b = tan 2a / cos 2a on the branch 2b in [0, pi/2]; b >= a. At
    a = pi/4 both sides are infinite and arctan2 returns the limit b = pi/4.
    """
    alpha = check_alpha(alpha)
    return float(0.5 * np.arctan2(np.tan(2.0 * alpha), np.cos(2.0 * alpha)))


def tilt_disturbance(alpha: float, beta: float) -> float:
    """Disturbance of the minimum-error measurement with feedback tilt beta.

    D(b) = 1 - cos^2 a cos^2(b - a) - sin^2 a sin^2(a + b), evaluated as the
    sum of squares cos^2 a sin^2(b - a) + sin^2 a cos^2(a + b), which does not
    cancel as D -> 0.
    """
    alpha = check_alpha(alpha)
    beta = float(beta)
    return float(np.cos(alpha) ** 2 * np.sin(beta - alpha) ** 2
                 + np.sin(alpha) ** 2 * np.cos(alpha + beta) ** 2)


def helstrom_min_disturbance(alpha: float) -> float:
    """Minimum disturbance of the minimum-error measurement: (4 - sqrt(14 + 2 cos 8a))/8.

    The curve's D_t at t = 1, i.e. at s = sin 4a / 2, which does not cancel as
    a -> 0 or pi/4 as the difference form does.
    """
    return _curve_disturbance(np.sin(4.0 * check_alpha(alpha)) / 2.0)


def tilt_t(alpha: float, t: float) -> float:
    """Feedback tilt of the optimal instrument at control parameter t.

    tan 2b_t = t sin 2a / (cos^2 2a + g sin^2 2a) with g = sqrt(1 - t^2), on the
    branch 2b_t in [0, pi/2]. At t = 1 this reduces to optimal_tilt; at the
    corner a = pi/4, t = 1 the denominator vanishes and arctan2 returns pi/4.
    """
    alpha = check_alpha(alpha)
    t = check_t(t)
    num = t * np.sin(2.0 * alpha)
    den = np.cos(2.0 * alpha) ** 2 + _gamma(t) * np.sin(2.0 * alpha) ** 2
    return float(0.5 * np.arctan2(num, den))


def _feedback_unitary(beta: float) -> np.ndarray:
    """Rotation by beta taking |1> toward |2>: columns (cos b, sin b), (-sin b, cos b)."""
    c, s = np.cos(beta), np.sin(beta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _measurement_kraus(t: float) -> tuple[np.ndarray, np.ndarray]:
    # sqrt(1 - g) = t / sqrt(1 + g), which does not cancel as t -> 0.
    root = np.sqrt(1.0 + _gamma(t))
    a, b = t / (2.0 * root), root / 2.0
    return a * SIGMA_Z + b * ID2, -a * SIGMA_Z + b * ID2


def optimal_instrument(alpha: float, t: float) -> Instrument:
    """The pure two-outcome instrument achieving the optimal tradeoff at (a, t).

    E_1 = U(t) (sqrt(1-g)/2 sz + sqrt(1+g)/2 1) and E_2 = U(t)† (-sqrt(1-g)/2 sz
    + sqrt(1+g)/2 1) with g = sqrt(1-t^2) and U(t) the feedback rotation by the
    tilt of tilt_t. t = 0 gives the identity channel with a uniformly random
    outcome, t = 1 the measure-and-prepare minimum-error instrument.
    """
    alpha = check_alpha(alpha)
    t = check_t(t)
    m1, m2 = _measurement_kraus(t)
    u = _feedback_unitary(tilt_t(alpha, t))
    return Instrument(outcomes=((u @ m1,), (u.conj().T @ m2,)))


def no_feedback_instrument(alpha: float, t: float) -> Instrument:
    """Suboptimal witness: the optimal instrument with its feedback rotation removed.

    Shares the POVM (hence the success probability) of optimal_instrument but
    disturbs strictly more for 0 < a < pi/4 and t > 0.
    """
    alpha = check_alpha(alpha)
    t = check_t(t)
    m1, m2 = _measurement_kraus(t)
    return Instrument(outcomes=((m1,), (m2,)))


@dataclass(frozen=True)
class TradeoffPoint:
    """One point of the optimal curve: P = t cos^2 a + (1-t)/2 and 0 <= D <= D_opt(a)."""

    alpha: float
    t: float
    P: float
    D: float
    beta_t: float
    gamma: float


@dataclass(frozen=True)
class NormalizedPoint:
    """Information and disturbance rescaled by their t = 1 values; on the curve info = t."""

    info: float
    dist: float


def tradeoff_point(alpha: float, t: float) -> TradeoffPoint:
    """Evaluate the optimal curve at (a, t)."""
    alpha = check_alpha(alpha)
    t = check_t(t)
    gamma = _gamma(t)
    p = float(t * np.cos(alpha) ** 2 + (1.0 - t) / 2.0)
    d = _curve_disturbance(np.sin(4.0 * alpha) * t * t / (2.0 * (1.0 + gamma)))
    return TradeoffPoint(alpha=alpha, t=t, P=p, D=d, beta_t=tilt_t(alpha, t), gamma=gamma)


def normalized(alpha: float, p: float, d: float) -> NormalizedPoint:
    """Rescale (P, D) by the t = 1 optimum: info = (P - 1/2)/(P_opt - 1/2), dist = D/D_opt.

    Undefined (0/0) at a = 0 and a = pi/4; those raise.
    """
    alpha = check_alpha(alpha)
    if alpha == 0.0 or alpha == np.pi / 4:
        raise ValueError("normalization is undefined at alpha in {0, pi/4}")
    p_opt = helstrom_probability(alpha)
    d_opt = helstrom_min_disturbance(alpha)
    return NormalizedPoint(info=float((p - 0.5) / (p_opt - 0.5)), dist=float(d / d_opt))


def tradeoff_identity_residual(alpha: float, info: float, dist: float) -> float:
    """Residual of the normalized tradeoff identity.

    sqrt(D_opt dist (1 - D_opt dist)) - (sin 4a / 4)(1 - sqrt(1 - info^2));
    zero on the optimal curve and strictly positive for suboptimal instruments.
    """
    alpha = check_alpha(alpha)
    if alpha == 0.0 or alpha == np.pi / 4:
        raise ValueError("identity residual requires 0 < alpha < pi/4")
    # Ratios computed from the curve itself can overshoot the ends by round-off.
    def _unit_interval(x, name):
        x = float(x)
        if not -1e-9 <= x <= 1.0 + 1e-9:
            raise ValueError(f"{name} must lie in [0, 1], got {x!r}")
        return min(max(x, 0.0), 1.0)

    info = _unit_interval(info, "info")
    dist = _unit_interval(dist, "dist")
    d = helstrom_min_disturbance(alpha) * dist
    lhs = np.sqrt(d * (1.0 - d))
    rhs = (np.sin(4.0 * alpha) / 4.0) * info * info / (1.0 + _gamma(info))
    return float(lhs - rhs)
