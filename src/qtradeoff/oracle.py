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
maximum is the top eigenpair of a 2x2 matrix; best_R1 comes from the better
circle. tau comes from the constraints alone.

The certificate for 0 < t < 1 is the KKT point of each circle's maximum: the
(y, lambda) with Sigma w - y1 (1 (x) sx) w - y2 (1 (x) sz) w = lambda w,
solved by 4x3 least squares. At the optimum w is a top eigenvector of M(y)
and the dual value equals the objective. The lesser of the two circles' dual
values is kept: near alpha = pi/4 with t -> 1 the circles nearly coincide at
a kink of the dual, and one circle's KKT point lands on the wrong side of it.
Were the optimum not rank one, certified_gap would show it.

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
from dataclasses import asdict, dataclass

import numpy as np

from .choi import OMEGA
from .qubit import ID2, SIGMA_X, SIGMA_Z, StatePair, is_hermitian, projector, tensor
from .tradeoff import check_t, tradeoff_point

FEASIBILITY_ATOL = 1e-6
SUPEROPTIMALITY_TOL = 1e-5

# Constraint operators 1 (x) sx and 1 (x) sz; their multipliers are the dual variables.
_DUAL_OPS = np.stack([tensor(ID2, SIGMA_X).real, tensor(ID2, SIGMA_Z).real])
# The two components of O(2), Q = cos(th) A + sin(th) B: rotations, then reflections.
_CIRCLES = ((ID2.real, np.array([[0.0, -1.0], [1.0, 0.0]])), (SIGMA_Z.real, SIGMA_X.real))
_EPS = np.finfo(float).eps
# Forming M(y), its eigh and the sum lambda_max + t y2 each round by a small
# multiple of eps * max|lambda| (measured up to 1.75 against 40-digit mpmath),
# which near t = 1 (|y| ~ 1e5) reaches 1e-11. The dual value is raised by this
# allowance so that it stays a proven upper bound on Tr[Sigma R1].
_DUAL_ROUNDING = 8.0 * _EPS


@dataclass(frozen=True)
class OracleConfig:
    """Accepted for compatibility and ignored: the exact rank-one solution has no settings."""


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Optimum of the oracle program with its certificate.

    best_R1 = w w^T is the best real rank-one operator that meets the linear
    conditions, exact up to rounding (constraint_residuals);
    achieved_D = 1 - Tr[Sigma R1]. lower_bound_D is a proven lower bound on
    the minimum disturbance over operators of any rank, with an allowance for
    eigenvalue rounding: for 0 < t < 1 the dual value at a KKT point of w, at
    t = 0 the dual value at y = (<psi1|psi2>, 0). certified_gap =
    achieved_D - lower_bound_D + |lambda_max r_tr| + |y1 r_sx| + |y2 r_sz| for
    the dual point y that set the bound and R1's residuals r in the trace, sx
    and sz conditions; by weak duality it is never negative. At t = 1,
    certified_gap is the rounding allowance 8 eps |Tr[Sigma R1]| and
    lower_bound_D = achieved_D - certified_gap.
    """

    best_R1: np.ndarray
    achieved_D: float
    lower_bound_D: float
    certified_gap: float
    constraint_residuals: tuple[float, float, float, float]


def sigma_objective(pair: StatePair) -> np.ndarray:
    """Objective operator Sigma = sum_i |psi_i><psi_i| (x) |psi_i><psi_i|*.

    Real symmetric, PSD, trace 2; 1 - Tr[Sigma R1] is the disturbance of the
    symmetrized instrument with first-outcome Choi operator R1. The projectors
    of a StatePair are real (a global phase cancels), so each is its own
    conjugate; the real part of their complex tensor product is the real
    product bit for bit.
    """
    return sum(tensor(p, p).real for p in (projector(pair.psi1).real, projector(pair.psi2).real))


def constraint_residuals(r1: np.ndarray, pair: StatePair, t: float) -> tuple[float, float, float, float]:
    """Residuals of the four linear conditions at (pair, t).

    Returns (psd deficit, Tr[R1] - 1, Tr[(1 (x) sx) R1], Tr[(1 (x) sz) R1] - t);
    the psd deficit is the amount by which the smallest eigenvalue dips below
    zero. The sz target (2 P_t - 1)/cos 2a simplifies to t exactly, but the
    division degenerates at a = pi/4, which is rejected. R1 must be a 4x4
    Hermitian matrix; a real one is evaluated in real arithmetic.
    """
    if float(pair.alpha) == np.pi / 4:
        raise ValueError("constraints degenerate at alpha = pi/4 (cos 2a = 0)")
    r1 = np.asarray(r1)
    if r1.shape != (4, 4) or not is_hermitian(r1):
        raise ValueError("R1 must be a 4x4 Hermitian matrix")
    psd = max(0.0, -float(np.linalg.eigvalsh(r1)[0]))
    sx, sz = np.real(np.einsum("kij,ji->k", _DUAL_OPS, r1))
    # Summed pairwise, as np.trace sums a complex diagonal, so that a real R1 and
    # its complex copy give the same bits.
    d = np.real(np.diagonal(r1))
    return psd, float((d[0] + d[1]) + (d[2] + d[3])) - 1.0, float(sx), float(sz) - float(t)


def _spectrum(sig: np.ndarray, y: tuple[float, float]) -> tuple[list[float], np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of M(y) = Sigma - y1 (1 (x) sx) - y2 (1 (x) sz)."""
    lam, v = np.linalg.eigh(sig - np.dot(y, _DUAL_OPS.reshape(2, 16)).reshape(4, 4))
    return lam.tolist(), v


def _certified_dual(lam: list[float], y: tuple[float, float], t: float):
    """(dual value raised by its rounding allowance, y, lambda_max) at y."""
    return lam[-1] + t * y[1] + _DUAL_ROUNDING * max(lam[-1], -lam[0]), y, lam[-1]


def _circle_maxima(sig: np.ndarray, t: float) -> list[tuple[float, np.ndarray]]:
    """(w^T Sigma w, w) at the maximum on each circle w = vec((cos th A + sin th B) sqrt(tau))."""
    root = np.sqrt([(1.0 + t) / 2.0, (1.0 - t) / 2.0])
    maxima = []
    for a_mat, b_mat in _CIRCLES:
        # a and b are orthonormal, so (cos th, sin th) -> w is an isometry.
        a, b = (a_mat * root).ravel(), (b_mat * root).ravel()
        sa, sb = sig @ a, sig @ b
        p, q, r = float(a @ sa), float(a @ sb), float(b @ sb)
        # p c^2 + 2 q c s + r s^2 = (p + r)/2 + hypot((p - r)/2, q) cos(2 th - phi),
        # with phi = atan2(2 q, p - r), so the maximum is at th = phi/2.
        th = 0.5 * math.atan2(2.0 * q, p - r)
        maxima.append((0.5 * (p + r) + math.hypot(0.5 * (p - r), q), math.cos(th) * a + math.sin(th) * b))
    return maxima


def _kkt_dual(sig: np.ndarray, w: np.ndarray, t: float):
    """_certified_dual at the y for which w is an eigenvector of M(y), in the least-squares sense."""
    lhs = np.stack([_DUAL_OPS[0] @ w, _DUAL_OPS[1] @ w, w], axis=1)
    (y1, y2, _), *_ = np.linalg.lstsq(lhs, sig @ w, rcond=None)
    y = (float(y1), float(y2))
    return _certified_dual(_spectrum(sig, y)[0], y, t)


def maximize(pair: StatePair, t: float, cfg: OracleConfig | None = None) -> OracleResult:
    """Maximize Tr[Sigma R1] over the constraint set; achieved_D = 1 - best objective.

    Deterministic: identical arguments give bit-identical results. cfg is
    accepted and ignored. Never consults the closed forms in `tradeoff`.
    """
    alpha = float(pair.alpha)
    if not 0.0 < alpha < np.pi / 4:
        raise ValueError("oracle requires alpha strictly inside (0, pi/4)")
    t = check_t(t)
    sig = sigma_objective(pair)

    if t == 0.0:
        # Exact: Sigma - <psi1|psi2> (1 (x) sx) <= 1, so this y certifies R1.
        r1 = np.outer(OMEGA, OMEGA).real / 2.0
        y = (float(np.vdot(pair.psi1, pair.psi2).real), 0.0)
        duals = [_certified_dual(_spectrum(sig, y)[0], y, t)]
    else:
        maxima = _circle_maxima(sig, t)
        w = max(maxima, key=lambda m: m[0])[1]
        r1 = np.outer(w, w)
        # At t = 1 the family is the face, whose optimum is its own certificate up to rounding.
        duals = [_kkt_dual(sig, u, t) for _, u in maxima] if t < 1.0 else []
    objective = float(np.sum(sig * r1))
    achieved = 1.0 - objective
    residuals = constraint_residuals(r1, pair, t)
    if duals:
        dual, y, lam_max = min(duals, key=lambda d: d[0])
        lower = 1.0 - dual
        # Weak duality at y: Tr[Sigma R1] <= dual + lambda_max r_tr + y1 r_sx + y2 r_sz.
        gap = achieved - lower + float(np.abs(np.array([lam_max, *y]) * residuals[1:]).sum())
    else:
        gap = _DUAL_ROUNDING * abs(objective)
        lower = achieved - gap
    return OracleResult(
        best_R1=r1,
        achieved_D=achieved,
        lower_bound_D=lower,
        certified_gap=gap,
        constraint_residuals=residuals,
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


def verify_closed_form(pair: StatePair, t_grid, tol: float = 1e-4) -> VerificationReport:
    """Run the oracle over a t grid and compare with the closed-form curve.

    A point passes when |D_oracle - D_t| <= tol and every constraint residual
    is <= FEASIBILITY_ATOL. The report also certifies that the oracle never
    lands more than SUPEROPTIMALITY_TOL below D_t, a true lower bound on D.
    """
    t_grid = [check_t(t) for t in t_grid]
    if not t_grid:
        raise ValueError("t grid must be nonempty")
    if isinstance(tol, (bool, str)) or not (math.isfinite(tol := float(tol)) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    points = []
    for t in t_grid:
        result = maximize(pair, t)
        closed = tradeoff_point(pair.alpha, t).D
        gap = abs(result.achieved_D - closed)
        max_res = float(np.max(np.abs(result.constraint_residuals)))
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
        alpha=float(pair.alpha),
        tolerance=tol,
        points=tuple(points),
        max_gap=max(p.gap for p in points),
        all_passed=all(p.passed for p in points),
        superoptimality_margin=margin,
        no_superoptimality=margin <= SUPEROPTIMALITY_TOL,
    )
