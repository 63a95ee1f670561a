"""Independent numerical check of the closed-form optimum.

For the symmetrized instrument the minimum disturbance at control parameter t
is 1 - max Tr[Sigma R1] over positive 4x4 operators R1 subject to three linear
conditions: Tr[R1] = 1, Tr[(1 (x) sx) R1] = 0 and Tr[(1 (x) sz) R1] = t.
Eliminating the trace multiplier leaves a convex Lagrange dual in two variables,

    min_y lambda_max(Sigma - y1 (1 (x) sx) - y2 (1 (x) sz)) + t y2,

and every y gives a proven upper bound on the maximum over every feasible R1,
of any rank and complex ones included, i.e. a lower bound on the disturbance
(Vandenberghe & Boyd, SIAM Rev. 38:49, 1996).

The primal is solved exactly over rank-one operators R1 = w w^T, the Choi
operators of pure instruments: w read row-major is the first outcome's Kraus
operator W. For a real w the three conditions say Tr_1 R1 = W^T W = tau =
diag((1 + t)/2, (1 - t)/2), so W = Q sqrt(tau) with Q in O(2): a feedback
rotation or reflection times the square root of a POVM element. Each of
O(2)'s two components is a circle, Q = cos(th) A + sin(th) B with
(A, B) = (1, [[0, -1], [1, 0]]) for rotations and (sz, sx) for reflections.
On a circle w^T Sigma w is a quadratic form in (cos th, sin th), so its
maximum is the top eigenpair of a 2x2 matrix; best_R1 comes from the circle
with the larger w^T Sigma w. tau comes from the constraints alone.

The solve runs on the pair's plain entries and builds no arrays: Sigma is the
two rank-one terms u_i u_i^T with u_i = Re(psi_i (x) psi_i*), so each
circle's 2x2 form takes four length-4 dot products and its maximum one
atan2. Only maximize, sigma_objective and constraint_residuals, which take or
return arrays, import numpy.

The certificate for 0 < t < 1 is the KKT point of each circle's maximum: the
(y, lambda) with Sigma w - y1 (1 (x) sx) w - y2 (1 (x) sz) w = lambda w,
solved as 4x3 least squares by modified Gram-Schmidt. A dual value needs a
proven mu >= lambda_max(M(y)), M(y) = Sigma - y1 (1 (x) sx) - y2 (1 (x) sz),
and mu I - M(y) positive definite proves it. That matrix is formed without
rounding: the pair's float entries, y and mu are scaled exactly to integers
over one power of two (float.as_integer_ratio, which cannot overflow), so
Sigma, its difference from y and the diagonal mu - m_ii are exact integers,
subnormal entries included. Sylvester's criterion is then decided exactly by
fraction-free elimination. mu starts at the KKT eigenvalue plus
_MARGIN (2 + |y1| + |y2|), a few eps times a bound on the norm of M(y), whose
2 bounds lambda_max(Sigma) <= Tr[Sigma] = 2 up to the states' normalization.
Against 40-digit eigenvalues at 974 points (the edge grid of the tests and
600 random ones) the better circle's KKT point needed at most 2.7 of the
4 eps, apart from 9 points with alpha within 1e-7 of pi/4 and t >= 0.999,
where the dual is flat and the other circle's point sets the bound. On
failure the margin doubles, up to a Gershgorin bound of M(y), which proves
itself, so the search always ends. The bound is
1 - mu - t y2 rounded downward, computed exactly; that is its only rounding.
It holds for the pair's entries as given: rounding cos a and sin a into them
is the input's, not the bound's.

At the optimum w is a top eigenvector of M(y) and the dual value equals the
objective. The better of the two circles' dual values is kept: near
alpha = pi/4 with t -> 1 the circles nearly coincide at a kink of the dual,
and one circle's KKT point lands on the wrong side of it. The other circle is
tried once, and only where its value would be better, since it can only
raise the lower bound. Were the optimum not rank one, certified_gap would
show it.

Both ends of the t range are exact. At t = 0 the identity channel
R1 = |Om><Om|/2, |Om> = |11> + |22>, is feasible with Tr[Sigma R1] = 1, and
the dual point y = (<psi1|psi2>, 0), where lambda_max(M(y)) = 1, proves it
optimal. At t = 1 the dual optimum is not attained (y2 diverges): the
constraints pin the input marginal of R1 to the pure state |1><1|, which
forces R1 = S (x) |1><1|. That face is the rank-one family itself, since
sqrt(tau) puts w on indices 0 and 2, and the family's maximum is the face's
exact optimum, its own certificate up to the rounding of Tr[Sigma R1].
"""
from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import asdict, dataclass

from .tradeoff import _as_float, check_t, tradeoff_point

FEASIBILITY_ATOL = 1e-6
SUPEROPTIMALITY_TOL = 1e-5

_EPS = sys.float_info.epsilon
# The first margin of mu over the KKT eigenvalue, in units of 2 + |y1| + |y2|.
_MARGIN = 4.0 * _EPS
# At t = 1 the face's optimum is exact, and certified_gap is this allowance for
# the rounding of Tr[Sigma R1] alone, times |Tr[Sigma R1]|.
_FACE_ROUNDING = 8.0 * _EPS

# The solve's result on plain floats. w is None at t = 0, where R1 is the identity channel.
_Solution = namedtuple("_Solution", "w achieved_D lower_bound_D certified_gap constraint_residuals")


@dataclass(frozen=True)
class OracleConfig:
    """Accepted for compatibility and ignored: the exact rank-one solution has no settings."""


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Optimum of the oracle program with its certificate.

    best_R1 = w w^T is the best real rank-one operator that meets the linear
    conditions, exact up to rounding (constraint_residuals);
    achieved_D = 1 - Tr[Sigma R1]. lower_bound_D is a proven lower bound on
    the minimum disturbance over operators of any rank, for the pair's float
    entries: 1 - mu - t y2 rounded downward, where y is a dual point (for
    0 < t < 1 a KKT point of w, at t = 0 y = (<psi1|psi2>, 0)) and
    mu >= lambda_max(M(y)) is proved by an exact integer test. Its rounding
    terms: forming M(y) and mu - m_ii, none (the integers are exact); the
    test, none; mu + t y2, exact, then rounded downward into lower_bound_D.
    certified_gap = achieved_D - lower_bound_D + |mu r_tr| + |y1 r_sx| +
    |y2 r_sz| for the dual point y and bound mu that set lower_bound_D and
    R1's residuals r in the trace, sx and sz conditions; by weak duality it is
    never negative. At t = 1, certified_gap is an allowance for the rounding
    of Tr[Sigma R1], 8 eps |Tr[Sigma R1]|, and
    lower_bound_D = achieved_D - certified_gap.
    """

    best_R1: np.ndarray
    achieved_D: float
    lower_bound_D: float
    certified_gap: float
    constraint_residuals: tuple[float, float, float, float]


def _symmetric_alpha(ens: Ensemble) -> float:
    """ens.alpha; ValueError unless ens is a symmetric pair with priors (0.5, 0.5)."""
    if ens.alpha is None:
        raise ValueError("oracle requires a symmetric pair: the ensemble's alpha is None")
    if ens.priors != (0.5, 0.5):
        raise ValueError(f"oracle requires equal priors (0.5, 0.5), got {ens.priors!r}")
    return ens.alpha


def _check_interior(alpha: float) -> None:
    if not 0.0 < alpha < math.pi / 4:
        raise ValueError("oracle requires alpha strictly inside (0, pi/4)")


def sigma_objective(ens: Ensemble) -> np.ndarray:
    """Objective operator Sigma = sum_i |psi_i><psi_i| (x) |psi_i><psi_i|*.

    Real symmetric, PSD, trace 2; 1 - Tr[Sigma R1] is the disturbance of the
    symmetrized instrument with first-outcome Choi operator R1. The projectors
    of a symmetric pair are real (a global phase cancels), so each is its own
    conjugate; the real part of their complex tensor product is the real
    product bit for bit.
    """
    from .qubit import projector, tensor

    _symmetric_alpha(ens)
    return sum(tensor(p, p).real for p in (projector(psi).real for psi in ens.states))


def constraint_residuals(r1: np.ndarray, ens: Ensemble, t: float) -> tuple[float, float, float, float]:
    """Residuals of the four linear conditions at (ens, t), for the symmetric equal-prior pair.

    Returns (psd deficit, Tr[R1] - 1, Tr[(1 (x) sx) R1], Tr[(1 (x) sz) R1] - t);
    the psd deficit is the amount by which the smallest eigenvalue dips below
    zero. The sz target (2 P_t - 1)/cos 2a simplifies to t exactly, but the
    division degenerates at a = pi/4, which is rejected. R1 must be a 4x4
    Hermitian matrix; a real one is evaluated in real arithmetic.
    """
    import numpy as np

    from .qubit import ID2, SIGMA_X, SIGMA_Z, is_hermitian, tensor

    if _symmetric_alpha(ens) == math.pi / 4:
        raise ValueError("constraints degenerate at alpha = pi/4 (cos 2a = 0)")
    r1 = np.asarray(r1)
    if r1.shape != (4, 4) or not is_hermitian(r1):
        raise ValueError("R1 must be a 4x4 Hermitian matrix")
    psd = max(0.0, -float(np.linalg.eigvalsh(r1)[0]))
    # The constraint operators 1 (x) sx and 1 (x) sz.
    ops = np.stack([tensor(ID2, SIGMA_X).real, tensor(ID2, SIGMA_Z).real])
    sx, sz = np.real(np.einsum("kij,ji->k", ops, r1))
    # Summed pairwise, as np.trace sums a complex diagonal, so that a real R1 and
    # its complex copy give the same bits.
    d = np.real(np.diagonal(r1))
    return psd, float((d[0] + d[1]) + (d[2] + d[3])) - 1.0, float(sx), float(sz) - float(t)


def _rank_one_terms(states) -> list[tuple[float, float, float, float]]:
    """u_i = Re(psi_i (x) psi_i*), so that Sigma = sum_i u_i u_i^T.

    u_i read as a 2x2 matrix is the projector |psi_i><psi_i|, real for a
    symmetric pair (a global phase cancels), and for a real rank-one P the
    entries P[i,j] P[k,l] of P (x) P equal P[i,k] P[j,l].
    """
    return [((a * a.conjugate()).real, (a * b.conjugate()).real, (b * a.conjugate()).real,
             (b * b.conjugate()).real) for a, b in states]


def _dot(x, y) -> float:
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2] + x[3] * y[3]


def _objective(u, w) -> float:
    """w^T Sigma w = sum_i (u_i . w)^2."""
    return sum(_dot(ui, w) ** 2 for ui in u)


def _integers(values) -> tuple[list[int], int]:
    """(n, k) with n_i = 2^k x_i exactly, for floats x and the least k >= 0."""
    ratios = [x.as_integer_ratio() for x in values]
    # Each denominator is a power of two.
    big = max(d for _, d in ratios)
    return [n * (big // d) for n, d in ratios], big.bit_length() - 1


def _floor(n: int, d: int) -> float:
    """The largest float <= n / d, for d > 0; int division rounds n / d correctly."""
    x = n / d
    p, q = x.as_integer_ratio()
    return math.nextafter(x, -math.inf) if p * d > n * q else x


def _exact_sigma(states) -> tuple[tuple[int, ...], int]:
    """(S, k): the upper triangle of 2^k Sigma, row by row, as integers formed exactly from the pair's entries.

    Re(x conj(z)) = Re x Re z + Im x Im z, so u_i, and Sigma from it, are
    polynomials in the entries' real and imaginary parts. u_i[1] = u_i[2],
    so Sigma has six distinct entries.
    """
    (a1, b1), (a2, b2) = states
    (p, q, r, s, e, f, g, h), k = _integers((a1.real, a1.imag, b1.real, b1.imag,
                                              a2.real, a2.imag, b2.real, b2.imag))
    x0, x1, x3 = p * p + q * q, p * r + q * s, r * r + s * s
    z0, z1, z3 = e * e + f * f, e * g + f * h, g * g + h * h
    s00, s01, s03 = x0 * x0 + z0 * z0, x0 * x1 + z0 * z1, x0 * x3 + z0 * z3
    s11, s13, s33 = x1 * x1 + z1 * z1, x1 * x3 + z1 * z3, x3 * x3 + z3 * z3
    return (s00, s01, s01, s03, s11, s11, s13, s11, s13, s33), 4 * k


def _dual_matrix(sigma, y: tuple[float, float], mu: float) -> tuple[tuple[int, ...], int]:
    """(A, K): the upper triangle of 2^K (mu I - M(y)), row by row, as integers, exactly.

    On the index 2i + k, 1 (x) sx swaps k, adding y1 at (0, 1) and (2, 3), and
    1 (x) sz is diag(1, -1, 1, -1).
    """
    s, k = sigma
    (y1, y2, m), q = _integers((*y, mu))
    if q > k:
        s = [x << (q - k) for x in s]
    else:
        y1, y2, m = y1 << (k - q), y2 << (k - q), m << (k - q)
    s00, s01, s02, s03, s11, s12, s13, s22, s23, s33 = s
    return (m + y2 - s00, y1 - s01, -s02, -s03, m - y2 - s11, -s12, -s13,
            m + y2 - s22, y1 - s23, m - y2 - s33), max(k, q)


def _positive_definite(a) -> bool:
    """Whether the symmetric 4x4 integer matrix with upper triangle a, row by row, is positive definite.

    Decided exactly, by Sylvester's criterion and fraction-free elimination.
    Eliminating without division, the pivots are d1, d2, d1 d3 and
    d1^2 d2 d4 for the leading principal minors d_k, so each in turn has the
    sign of its minor. Bareiss's exact divisions by the previous pivot (Math.
    Comp. 22:565, 1968) would only shorten the integers, which at 4x4 costs
    more than it saves.
    """
    a00, a01, a02, a03, a11, a12, a13, a22, a23, a33 = a
    if a00 <= 0:
        return False
    b11, b12, b13 = a11 * a00 - a01 * a01, a12 * a00 - a01 * a02, a13 * a00 - a01 * a03
    if b11 <= 0:
        return False
    b22, b23, b33 = a22 * a00 - a02 * a02, a23 * a00 - a02 * a03, a33 * a00 - a03 * a03
    c22 = b22 * b11 - b12 * b12
    if c22 <= 0:
        return False
    c23, c33 = b23 * b11 - b12 * b13, b33 * b11 - b13 * b13
    return c33 * c22 - c23 * c23 > 0


def _gershgorin(sigma, y: tuple[float, float]) -> float:
    """A float strictly above max_j (m_jj + sum_{i != j} |m_ij|) for M(y), exact entries.

    For mu at it, mu I - M(y) is strictly diagonally dominant with a positive
    diagonal, so positive definite.
    """
    (a00, a01, a02, a03, a11, a12, a13, a22, a23, a33), big = _dual_matrix(sigma, y, 0.0)
    # The rows of -2^K M(y): m_jj = -a_jj and |m_ij| = |a_ij|.
    rows = ((a00, a01, a02, a03), (a11, a01, a12, a13), (a22, a02, a12, a23), (a33, a03, a13, a23))
    g = max(abs(u) + abs(v) + abs(w) - d for d, u, v, w in rows)
    return math.nextafter(-_floor(-g, 1 << big), math.inf)


def _lower_bound(mu: float, t: float, y2: float) -> float:
    """The largest float <= 1 - mu - t y2, computed exactly."""
    (mn, md), (tn, td), (yn, yd) = mu.as_integer_ratio(), t.as_integer_ratio(), y2.as_integer_ratio()
    d = md * td * yd
    return _floor(d - mn * td * yd - tn * yn * md, d)


def _certified_dual(sigma, y: tuple[float, float], lam: float, t: float, beat: float | None = None):
    """(lower bound on the disturbance, y, mu) for a proven mu >= lambda_max(M(y)).

    mu starts at lam + _MARGIN (2 + |y1| + |y2|). Without beat, the margin
    doubles until mu I - M(y) is positive definite, or until mu reaches
    _gershgorin's bound, which needs no test. With beat, mu is tried once, and
    only if its bound would exceed beat; None when it does not or fails.
    """
    margin = _MARGIN * (2.0 + abs(y[0]) + abs(y[1]))
    mu = lam + margin
    if beat is not None:
        lower = _lower_bound(mu, t, y[1])
        if lower > beat and _positive_definite(_dual_matrix(sigma, y, mu)[0]):
            return lower, y, mu
        return None
    cap = None
    while not _positive_definite(_dual_matrix(sigma, y, mu)[0]):
        cap = _gershgorin(sigma, y) if cap is None else cap
        margin *= 2.0
        mu = lam + margin
        if mu >= cap:
            mu = cap
            break
    return _lower_bound(mu, t, y[1]), y, mu


def _circle_points(u, t: float) -> list[tuple[float, float, float, float]]:
    """w = vec((cos th A + sin th B) sqrt(tau)) at the maximum of w^T Sigma w on each circle."""
    r0, r1 = math.sqrt((1.0 + t) / 2.0), math.sqrt((1.0 - t) / 2.0)
    points = []
    # vec(A sqrt(tau)) and vec(B sqrt(tau)): rotations (A, B) = (1, [[0, -1], [1, 0]]),
    # then reflections (sz, sx). a and b are orthonormal, so (cos th, sin th) -> w is an isometry.
    for a, b in (((r0, 0.0, 0.0, r1), (0.0, -r1, r0, 0.0)), ((r0, 0.0, 0.0, -r1), (0.0, r1, r0, 0.0))):
        (ua1, ub1), (ua2, ub2) = ((_dot(ui, a), _dot(ui, b)) for ui in u)
        p, q, r = ua1 * ua1 + ua2 * ua2, ua1 * ub1 + ua2 * ub2, ub1 * ub1 + ub2 * ub2
        # p c^2 + 2 q c s + r s^2 = (p + r)/2 + hypot((p - r)/2, q) cos(2 th - phi),
        # with phi = atan2(2 q, p - r), so the maximum is at th = phi/2.
        th = 0.5 * math.atan2(2.0 * q, p - r)
        c, s = math.cos(th), math.sin(th)
        points.append(tuple(c * x + s * z for x, z in zip(a, b)))
    return points


def _kkt_point(u, w) -> tuple[tuple[float, float], float]:
    """(y, lambda) for which w is an eigenvector of M(y) with eigenvalue lambda, in the least-squares sense.

    Solves [(1 (x) sx) w, (1 (x) sz) w, w] (y1, y2, lambda) = Sigma w by
    modified Gram-Schmidt on the augmented 4x4 matrix, which is backward
    stable for least squares (Björck, Numerical Methods for Least Squares
    Problems, SIAM 1996); plain Gram-Schmidt is not.
    """
    w0, w1, w2, w3 = w
    g1, g2 = _dot(u[0], w), _dot(u[1], w)
    cols = [[w1, w0, w3, w2], [w0, -w1, w2, -w3], list(w), [g1 * x + g2 * z for x, z in zip(*u)]]
    r = [[0.0] * 4 for _ in range(3)]
    for k in range(3):
        norm = math.sqrt(_dot(cols[k], cols[k]))
        q = [x / norm for x in cols[k]]
        r[k][k] = norm
        for j in range(k + 1, 4):
            r[k][j] = _dot(q, cols[j])
            cols[j] = [x - r[k][j] * z for x, z in zip(cols[j], q)]
    lam = r[2][3] / r[2][2]
    y2 = (r[1][3] - r[1][2] * lam) / r[1][1]
    y1 = (r[0][3] - r[0][1] * y2 - r[0][2] * lam) / r[0][0]
    return (y1, y2), lam


def _residuals(w, t: float) -> tuple[float, float, float, float]:
    """constraint_residuals of R1 = w w^T, read off w: R1 is PSD, and its diagonal is w_m^2."""
    d0, d1, d2, d3 = (x * x for x in w)
    return 0.0, (d0 + d1) + (d2 + d3) - 1.0, 2.0 * (w[0] * w[1] + w[2] * w[3]), (d0 - d1) + (d2 - d3) - t


def _solve(states, t: float) -> _Solution:
    """The optimum at a checked t for the pair's entries ((a1, b1), (a2, b2)), real or complex.

    Deterministic, and builds no arrays. Never consults the closed forms in `tradeoff`.
    """
    u = _rank_one_terms(states)
    if t == 0.0:
        # Exact: Sigma - <psi1|psi2> (1 (x) sx) <= 1, so this y certifies R1.
        w = None
        # |Om> = e_0 + e_3, so Tr[Sigma R1] = sum_i (u_i . Om)^2 / 2.
        objective = 0.5 * sum((ui[0] + ui[3]) ** 2 for ui in u)
        residuals = (0.0, 0.0, 0.0, 0.0)
        (a1, b1), (a2, b2) = states
        dual = _certified_dual(_exact_sigma(states), ((a1.conjugate() * a2 + b1.conjugate() * b2).real, 0.0),
                               1.0, t)
    else:
        first, second = ((_objective(u, p), p) for p in _circle_points(u, t))
        # A tie keeps the rotation.
        (objective, w), (_, other) = (second, first) if second[0] > first[0] else (first, second)
        residuals = _residuals(w, t)
        dual = None
        # At t = 1 the family is the face, whose optimum is its own certificate up to rounding.
        if t < 1.0:
            sigma = _exact_sigma(states)
            dual = _certified_dual(sigma, *_kkt_point(u, w), t)
            dual = _certified_dual(sigma, *_kkt_point(u, other), t, beat=dual[0]) or dual
    achieved = 1.0 - objective
    if dual is not None:
        lower, y, mu = dual
        # Weak duality at y: Tr[Sigma R1] <= mu + t y2 + mu r_tr + y1 r_sx + y2 r_sz.
        gap = achieved - lower + (abs(mu * residuals[1]) + abs(y[0] * residuals[2])
                                  + abs(y[1] * residuals[3]))
    else:
        gap = _FACE_ROUNDING * abs(objective)
        lower = achieved - gap
    return _Solution(w, achieved, lower, gap, residuals)


def maximize(ens: Ensemble, t: float, cfg: OracleConfig | None = None) -> OracleResult:
    """Maximize Tr[Sigma R1] over the constraint set; achieved_D = 1 - best objective.

    Deterministic: identical arguments give bit-identical results. cfg is
    accepted and ignored. Never consults the closed forms in `tradeoff`.
    """
    import numpy as np

    _check_interior(_symmetric_alpha(ens))
    solution = _solve(ens._states, check_t(t))
    if solution.w is None:
        # |Om><Om|/2 with |Om> = e_0 + e_3 (choi.OMEGA).
        r1 = np.array([[0.5, 0.0, 0.0, 0.5], [0.0] * 4, [0.0] * 4, [0.5, 0.0, 0.0, 0.5]])
    else:
        r1 = np.outer(solution.w, solution.w)
    return OracleResult(
        best_R1=r1,
        achieved_D=solution.achieved_D,
        lower_bound_D=solution.lower_bound_D,
        certified_gap=solution.certified_gap,
        constraint_residuals=solution.constraint_residuals,
    )


@dataclass(frozen=True)
class VerificationPoint:
    t: float
    oracle_D: float
    closed_D: float
    gap: float
    max_residual: float
    lower_bound_D: float
    certified_gap: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    alpha: float
    tolerance: float
    points: tuple[VerificationPoint, ...]
    max_gap: float
    all_passed: bool
    superoptimality_margin: float
    no_superoptimality: bool

    def as_dict(self) -> dict:
        payload = asdict(self)
        payload["points"] = list(payload["points"])
        return payload


def verify_closed_form(ens: Ensemble, t_grid, tol: float = 1e-4) -> VerificationReport:
    """Run the oracle over a t grid and compare with the closed-form curve.

    A point passes when |D_oracle - D_t| <= tol and every constraint residual
    is <= FEASIBILITY_ATOL. The report also certifies that the oracle never
    lands more than SUPEROPTIMALITY_TOL below D_t, a true lower bound on D.
    """
    return _verification(_symmetric_alpha(ens), ens._states, t_grid, tol)


def _verification(alpha: float, states, t_grid, tol) -> VerificationReport:
    """verify_closed_form on the pair's entries, so that it builds no arrays."""
    t_grid = [check_t(t) for t in t_grid]
    if not t_grid:
        raise ValueError("t grid must be nonempty")
    if not (math.isfinite(tol := _as_float(tol, "tol")) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    _check_interior(alpha)
    points = []
    for t in t_grid:
        result = _solve(states, t)
        closed = tradeoff_point(alpha, t).D
        gap = abs(result.achieved_D - closed)
        max_res = max(abs(r) for r in result.constraint_residuals)
        points.append(VerificationPoint(
            t=t,
            oracle_D=result.achieved_D,
            closed_D=closed,
            gap=gap,
            max_residual=max_res,
            lower_bound_D=result.lower_bound_D,
            certified_gap=result.certified_gap,
            passed=bool(gap <= tol and max_res <= FEASIBILITY_ATOL),
        ))
    margin = max(0.0, max(p.closed_D - p.oracle_D for p in points))
    return VerificationReport(
        alpha=alpha,
        tolerance=tol,
        points=tuple(points),
        max_gap=max(p.gap for p in points),
        all_passed=all(p.passed for p in points),
        superoptimality_margin=margin,
        no_superoptimality=margin <= SUPEROPTIMALITY_TOL,
    )
