"""Closed forms for the optimal information-disturbance tradeoff.

Everything here is a function of the half-angle a (radians, [0, pi/4]) of the
symmetric state pair and of the control parameter t in [0, 1] that fixes the
success probability P_t = t cos^2 a + (1-t)/2. t = 0 is the identity channel
(no measurement), t = 1 is the minimum-error measurement with the least
disturbing feedback.

On the optimal curve D_t = (1 - sqrt(1 - s^2))/2 with s = (sin 4a / 2)(1 -
sqrt(1 - t^2)). Both differences 1 - sqrt(1 - x^2) are evaluated as
x^2 / (1 + sqrt(1 - x^2)), which does not cancel as x -> 0. Each closed form
is written once, as a private function of t, gamma = sqrt(1 - t^2) and
alpha-only terms: sin4, sin2, cos2 (sin 4a, sin 2a, cos 2a), s = sin4 / 2 (the
curve's s at t = 1), q = 1 + sqrt(1 - s^2), p_opt and d_opt. A public function
validates its input once and computes the terms it needs; a curve computes
them once per alpha.

The module uses the standard library's math only, so that the CLI's curve and
point commands run without importing numpy. The instrument builders import
Instrument, and with it numpy, when they are called.
"""
from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Iterable, Iterator

# A real 2x2 matrix as rows: ((m00, m01), (m10, m11)).
_Matrix = tuple[tuple[float, float], tuple[float, float]]
# How far tradeoff_identity_residual lets info and dist overshoot [0, 1], by
# round-off in ratios computed from the curve, before it clamps them.
_RATIO_OVERSHOOT = 1e-9
_PI_4 = math.pi / 4


def _as_float(x, name: str) -> float:
    """x as a float; ValueError naming it unless x is a numbers.Real other than a bool.

    numbers is imported past the float fast path, so that the CLI's closed forms do not load it.
    """
    if type(x) is float:
        return x
    import numbers

    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {x!r}")
    return float(x)


def check_alpha(alpha: float) -> float:
    """The half-angle as a float; ValueError outside [0, pi/4], for NaN and what _as_float refuses."""
    alpha = alpha if type(alpha) is float else _as_float(alpha, "alpha")
    if not 0.0 <= alpha <= _PI_4:
        raise ValueError(f"alpha must lie in [0, pi/4], got {alpha!r}")
    return alpha


def _pair_entries(alpha: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """The symmetric pair's states ((cos a, sin a), (sin a, cos a)) as plain floats."""
    c, s = math.cos(alpha), math.sin(alpha)
    return (c, s), (s, c)


def check_t(t: float) -> float:
    """The control parameter as a float; ValueError outside [0, 1], for NaN and what _as_float refuses."""
    t = t if type(t) is float else _as_float(t, "t")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t!r}")
    return t


def _unit_interval(x: float, name: str) -> float:
    """x clamped to [0, 1]; raises ValueError where it overshoots by more than _RATIO_OVERSHOOT."""
    x = _as_float(x, name)
    if not -_RATIO_OVERSHOOT <= x <= 1.0 + _RATIO_OVERSHOOT:
        raise ValueError(f"{name} must lie in [0, 1], got {x!r}")
    return min(max(x, 0.0), 1.0)


def _gamma(t: float) -> float:
    """sqrt(1 - t^2), with 1 - t^2 factored so that it stays accurate as t -> 1."""
    return math.sqrt((1.0 - t) * (1.0 + t))


def _curve_disturbance(s: float) -> float:
    """The root (1 - sqrt(1 - s^2))/2 of D (1 - D) = s^2/4; D_opt at s = sin 4a / 2."""
    return s * s / (2.0 * (1.0 + math.sqrt(1.0 - s * s)))


def _p_opt(alpha: float) -> float:
    return math.cos(alpha) ** 2


def _tilt(t: float, gamma: float, sin2: float, cos2: float) -> float:
    return 0.5 * math.atan2(t * sin2, cos2 ** 2 + gamma * sin2 ** 2)


def _point(t: float, gamma: float, p_opt: float, sin4: float, sin2: float, cos2: float) -> tuple:
    """(P_t, D_t, beta_t)."""
    return (t * p_opt + (1.0 - t) / 2.0, _curve_disturbance(sin4 * t * t / (2.0 * (1.0 + gamma))),
            _tilt(t, gamma, sin2, cos2))


def _dist(t: float, gamma: float, s: float, q: float) -> float:
    r = t * t / (1.0 + gamma)
    return r * r * q / (1.0 + math.sqrt(1.0 - (r * s) ** 2))


def _residual(info: float, dist: float, s: float, q: float, d_opt: float) -> float:
    # sqrt(D_opt) = s / sqrt(2 q); D_opt is subnormal below a ~ 1.5e-154.
    lhs = s / math.sqrt(2.0 * q) * math.sqrt(dist * (1.0 - d_opt * dist))
    return lhs - (s / 2.0) * info * info / (1.0 + _gamma(info))


def helstrom_probability(alpha: float) -> float:
    """Maximum achievable success probability cos^2 a."""
    return _p_opt(check_alpha(alpha))


def tilt_disturbance(alpha: float, beta: float) -> float:
    """Disturbance of the minimum-error measurement with feedback tilt beta.

    D(b) = 1 - cos^2 a cos^2(b - a) - sin^2 a sin^2(a + b), evaluated as the
    sum of squares cos^2 a sin^2(b - a) + sin^2 a cos^2(a + b), which does not
    cancel as D -> 0.
    """
    alpha = check_alpha(alpha)
    if not math.isfinite(beta := _as_float(beta, "beta")):
        raise ValueError(f"beta must be finite, got {beta!r}")
    return (_p_opt(alpha) * math.sin(beta - alpha) ** 2
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
    branch 2b_t in [0, pi/2]. At t = 1 it is the least disturbing tilt, tan 2b =
    tan 2a / cos 2a; at the corner a = pi/4, t = 1 atan2 returns pi/4.
    """
    alpha = check_alpha(alpha)
    t = check_t(t)
    return _tilt(t, _gamma(t), math.sin(2.0 * alpha), math.cos(2.0 * alpha))


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

    Its Kraus operators are kraus_entries at the tilt of tilt_t. t = 0 gives the
    identity channel with a uniformly random outcome, t = 1 the
    measure-and-prepare minimum-error instrument.
    """
    from .instruments import Instrument

    beta = tilt_t(alpha, t)
    e1, e2 = kraus_entries(check_t(t), beta)
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
    return TradeoffPoint(alpha, t, *_point(t, gamma, _p_opt(alpha), math.sin(4.0 * alpha),
                                           math.sin(2.0 * alpha), math.cos(2.0 * alpha)), gamma)


def normalized(alpha: float, p: float, d: float) -> NormalizedPoint:
    """Rescale (P, D) by the t = 1 optimum: info = (P - 1/2)/(P_opt - 1/2), dist = D/D_opt.

    Raises at a = 0 and a = pi/4 (0/0), where D_opt is subnormal (a below about
    1.5e-154, where the curve's dist stays accurate) and when p or d is not finite.
    """
    alpha = check_alpha(alpha)
    p = p if type(p) is float else _as_float(p, "p")
    d = d if type(d) is float else _as_float(d, "d")
    if not (math.isfinite(p) and math.isfinite(d)):
        raise ValueError(f"p and d must be finite, got {p!r} and {d!r}")
    d_opt = _curve_disturbance(math.sin(4.0 * alpha) / 2.0)
    if d_opt < sys.float_info.min or alpha == _PI_4:
        raise ValueError(f"normalization is undefined at alpha {alpha!r}: "
                         "alpha in {0, pi/4}, or D_opt is subnormal")
    return NormalizedPoint((p - 0.5) / (_p_opt(alpha) - 0.5), d / d_opt)


def tradeoff_identity_residual(alpha: float, info: float, dist: float) -> float:
    """Residual of the normalized tradeoff identity.

    sqrt(D_opt dist (1 - D_opt dist)) - (sin 4a / 4)(1 - sqrt(1 - info^2));
    zero on the optimal curve and strictly positive for suboptimal instruments.
    """
    alpha = check_alpha(alpha)
    if alpha == 0.0 or alpha == _PI_4:
        raise ValueError("identity residual requires 0 < alpha < pi/4")
    info = _unit_interval(info, "info")
    dist = _unit_interval(dist, "dist")
    s = math.sin(4.0 * alpha) / 2.0
    return _residual(info, dist, s, 1.0 + math.sqrt(1.0 - s * s), _curve_disturbance(s))


def _curve_rows(alpha: float, ts: Iterable[float]) -> Iterator[tuple]:
    """Rows (alpha, t, P, D, beta_t, info, dist, identity_residual) of the curve, one per t.

    On the curve info = t. info, dist and the residual are None at a in
    {0, pi/4}, where the normalization is undefined.
    """
    alpha = check_alpha(alpha)
    p_opt, sin2, cos2 = _p_opt(alpha), math.sin(2.0 * alpha), math.cos(2.0 * alpha)
    sin4 = math.sin(4.0 * alpha)
    s = sin4 / 2.0
    q, d_opt = 1.0 + math.sqrt(1.0 - s * s), _curve_disturbance(s)
    degenerate = alpha == 0.0 or alpha == _PI_4
    for t in ts:
        t = check_t(t)
        gamma = _gamma(t)
        row = (alpha, t, *_point(t, gamma, p_opt, sin4, sin2, cos2))
        if degenerate:
            yield row + (None, None, None)
        else:
            dist = _dist(t, gamma, s, q)
            yield row + (t, dist, _residual(t, _unit_interval(dist, "dist"), s, q, d_opt))
