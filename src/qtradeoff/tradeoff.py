"""Closed forms for the optimal information-disturbance tradeoff.

Everything here is a function of the half-angle a (radians, [0, pi/4]) of the
symmetric state pair and of the control parameter t in [0, 1] that fixes the
success probability P_t = t cos^2 a + (1-t)/2. t = 0 is the identity channel
(no measurement), t = 1 is the minimum-error measurement with the least
disturbing feedback.

On the optimal curve D_t = (1 - sqrt(1 - s^2))/2 with s = (sin 4a / 2)(1 -
sqrt(1 - t^2)). Both differences 1 - sqrt(1 - x^2) are evaluated as
x^2 / (1 + sqrt(1 - x^2)), which does not cancel as x -> 0.

The module uses the standard library's math only, so that the CLI's curve and
point commands run without importing numpy. The instrument builders import
Instrument, and with it numpy, when they are called.
"""
from __future__ import annotations

import math
import sys
from collections import namedtuple

# A real 2x2 matrix as rows: ((m00, m01), (m10, m11)).
_Matrix = tuple[tuple[float, float], tuple[float, float]]
# How far tradeoff_identity_residual lets info and dist overshoot [0, 1], by
# round-off in ratios computed from the curve, before it clamps them.
_RATIO_OVERSHOOT = 1e-9


def check_alpha(alpha: float) -> float:
    """The half-angle as a float; raises ValueError outside [0, pi/4] (NaN included)."""
    alpha = float(alpha)
    if not 0.0 <= alpha <= math.pi / 4:
        raise ValueError(f"alpha must lie in [0, pi/4], got {alpha!r}")
    return alpha


def check_t(t: float) -> float:
    """The control parameter as a float; raises ValueError outside [0, 1] (NaN included)."""
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t!r}")
    return t


def _gamma(t: float) -> float:
    """sqrt(1 - t^2), with 1 - t^2 factored so that it stays accurate as t -> 1."""
    return math.sqrt((1.0 - t) * (1.0 + t))


def _curve_disturbance(s: float) -> float:
    """The root (1 - sqrt(1 - s^2))/2 of D (1 - D) = s^2/4, for s in [0, 1/2]."""
    return s * s / (2.0 * (1.0 + math.sqrt(1.0 - s * s)))


def helstrom_probability(alpha: float) -> float:
    """Maximum achievable success probability cos^2 a."""
    return math.cos(check_alpha(alpha)) ** 2


def optimal_tilt(alpha: float) -> float:
    """Feedback tilt minimizing the disturbance of the minimum-error measurement.

    Solves tan 2b = tan 2a / cos 2a on the branch 2b in [0, pi/2]; b >= a. At
    a = pi/4 both sides are infinite and atan2 returns the limit b = pi/4.
    """
    alpha = check_alpha(alpha)
    return 0.5 * math.atan2(math.tan(2.0 * alpha), math.cos(2.0 * alpha))


def tilt_disturbance(alpha: float, beta: float) -> float:
    """Disturbance of the minimum-error measurement with feedback tilt beta.

    D(b) = 1 - cos^2 a cos^2(b - a) - sin^2 a sin^2(a + b), evaluated as the
    sum of squares cos^2 a sin^2(b - a) + sin^2 a cos^2(a + b), which does not
    cancel as D -> 0.
    """
    alpha = check_alpha(alpha)
    beta = float(beta)
    return (math.cos(alpha) ** 2 * math.sin(beta - alpha) ** 2
            + math.sin(alpha) ** 2 * math.cos(alpha + beta) ** 2)


def helstrom_min_disturbance(alpha: float) -> float:
    """Minimum disturbance of the minimum-error measurement: (4 - sqrt(14 + 2 cos 8a))/8.

    The curve's D_t at t = 1, i.e. at s = sin 4a / 2, which does not cancel as
    a -> 0 or pi/4 as the difference form does.
    """
    return _curve_disturbance(math.sin(4.0 * check_alpha(alpha)) / 2.0)


def tilt_t(alpha: float, t: float) -> float:
    """Feedback tilt of the optimal instrument at control parameter t.

    tan 2b_t = t sin 2a / (cos^2 2a + g sin^2 2a) with g = sqrt(1 - t^2), on the
    branch 2b_t in [0, pi/2]. At t = 1 this reduces to optimal_tilt; at the
    corner a = pi/4, t = 1 the denominator vanishes and atan2 returns pi/4.
    """
    alpha = check_alpha(alpha)
    t = check_t(t)
    num = t * math.sin(2.0 * alpha)
    den = math.cos(2.0 * alpha) ** 2 + _gamma(t) * math.sin(2.0 * alpha) ** 2
    return 0.5 * math.atan2(num, den)


def kraus_entries(t: float, beta: float) -> tuple[_Matrix, _Matrix]:
    """Real Kraus operators (E_1, E_2) = (U M_1, U^T M_2) of the two outcomes.

    M_1 = sqrt(1-g)/2 sz + sqrt(1+g)/2 1 and M_2 = -sqrt(1-g)/2 sz + sqrt(1+g)/2 1
    with g = sqrt(1 - t^2), and U the rotation by beta taking |1> toward |2>,
    columns (cos b, sin b) and (-sin b, cos b). t is taken as valid.
    """
    # sqrt(1 - g) = t / sqrt(1 + g), which does not cancel as t -> 0.
    root = math.sqrt(1.0 + _gamma(t))
    a, b = t / (2.0 * root), root / 2.0
    big, small = b + a, b - a
    c, s = math.cos(beta), math.sin(beta)
    return (((c * big, -s * small), (s * big, c * small)),
            ((c * small, s * big), (-s * small, c * big)))


def optimal_instrument(alpha: float, t: float) -> Instrument:
    """The pure two-outcome instrument achieving the optimal tradeoff at (a, t).

    E_1 = U(t) (sqrt(1-g)/2 sz + sqrt(1+g)/2 1) and E_2 = U(t)† (-sqrt(1-g)/2 sz
    + sqrt(1+g)/2 1) with g = sqrt(1-t^2) and U(t) the feedback rotation by the
    tilt of tilt_t. t = 0 gives the identity channel with a uniformly random
    outcome, t = 1 the measure-and-prepare minimum-error instrument.
    """
    from .instruments import Instrument

    alpha = check_alpha(alpha)
    t = check_t(t)
    e1, e2 = kraus_entries(t, tilt_t(alpha, t))
    return Instrument(outcomes=((e1,), (e2,)))


def no_feedback_instrument(alpha: float, t: float) -> Instrument:
    """Suboptimal witness: the optimal instrument with its feedback rotation removed.

    Shares the POVM (hence the success probability) of optimal_instrument but
    disturbs strictly more for 0 < a < pi/4 and t > 0.
    """
    from .instruments import Instrument

    check_alpha(alpha)
    e1, e2 = kraus_entries(check_t(t), 0.0)
    return Instrument(outcomes=((e1,), (e2,)))


class TradeoffPoint(namedtuple("TradeoffPoint", "alpha t P D beta_t gamma")):
    """One point of the optimal curve: P = t cos^2 a + (1-t)/2 and 0 <= D <= D_opt(a)."""

    __slots__ = ()


class NormalizedPoint(namedtuple("NormalizedPoint", "info dist")):
    """Information and disturbance rescaled by their t = 1 values; on the curve info = t."""

    __slots__ = ()


def tradeoff_point(alpha: float, t: float) -> TradeoffPoint:
    """Evaluate the optimal curve at (a, t)."""
    alpha = check_alpha(alpha)
    t = check_t(t)
    gamma = _gamma(t)
    p = t * math.cos(alpha) ** 2 + (1.0 - t) / 2.0
    d = _curve_disturbance(math.sin(4.0 * alpha) * t * t / (2.0 * (1.0 + gamma)))
    return TradeoffPoint(alpha=alpha, t=t, P=p, D=d, beta_t=tilt_t(alpha, t), gamma=gamma)


def curve_dist(alpha: float, t: float) -> float:
    """dist = D_t / D_opt on the optimal curve, for valid alpha and t.

    r^2 (1 + sqrt(1 - s^2)) / (1 + sqrt(1 - r^2 s^2)) with r = t^2/(1 + g) and
    s = sin 4a / 2 never divides by D_opt, which underflows below a ~ 1e-162.
    """
    r = t * t / (1.0 + _gamma(t))
    s = math.sin(4.0 * alpha) / 2.0
    return r * r * (1.0 + math.sqrt(1.0 - s * s)) / (1.0 + math.sqrt(1.0 - (r * s) ** 2))


def normalized(alpha: float, p: float, d: float) -> NormalizedPoint:
    """Rescale (P, D) by the t = 1 optimum: info = (P - 1/2)/(P_opt - 1/2), dist = D/D_opt.

    Undefined (0/0) at a = 0 and a = pi/4, and inaccurate where D_opt is
    subnormal (a below about 1.5e-154); those raise, while curve_dist does not.
    """
    alpha = check_alpha(alpha)
    d_opt = helstrom_min_disturbance(alpha)
    if d_opt < sys.float_info.min or alpha == math.pi / 4:
        raise ValueError(f"normalization is undefined at alpha {alpha!r}: "
                         "alpha in {0, pi/4}, or D_opt is subnormal")
    p_opt = helstrom_probability(alpha)
    return NormalizedPoint(info=float((p - 0.5) / (p_opt - 0.5)), dist=float(d / d_opt))


def tradeoff_identity_residual(alpha: float, info: float, dist: float) -> float:
    """Residual of the normalized tradeoff identity.

    sqrt(D_opt dist (1 - D_opt dist)) - (sin 4a / 4)(1 - sqrt(1 - info^2));
    zero on the optimal curve and strictly positive for suboptimal instruments.
    """
    alpha = check_alpha(alpha)
    if alpha == 0.0 or alpha == math.pi / 4:
        raise ValueError("identity residual requires 0 < alpha < pi/4")
    def _unit_interval(x, name):
        x = float(x)
        if not -_RATIO_OVERSHOOT <= x <= 1.0 + _RATIO_OVERSHOOT:
            raise ValueError(f"{name} must lie in [0, 1], got {x!r}")
        return min(max(x, 0.0), 1.0)

    info = _unit_interval(info, "info")
    dist = _unit_interval(dist, "dist")
    s = math.sin(4.0 * alpha) / 2.0
    d = _curve_disturbance(s) * dist
    # sqrt(D_opt) = s / sqrt(2 (1 + sqrt(1 - s^2))); D_opt is subnormal below a ~ 1.5e-154.
    lhs = s / math.sqrt(2.0 * (1.0 + math.sqrt(1.0 - s * s))) * math.sqrt(dist * (1.0 - d))
    rhs = (math.sin(4.0 * alpha) / 4.0) * info * info / (1.0 + _gamma(info))
    return lhs - rhs
