"""Independent numerical check of the closed-form optimum.

For the symmetrized instrument the minimum disturbance at control parameter t
is 1 - max Tr[Sigma R1] over positive 4x4 operators R1 subject to three linear
conditions: Tr[R1] = 1, Tr[(1 (x) sx) R1] = 0 and Tr[(1 (x) sz) R1] = t.
Eliminating the trace multiplier leaves a convex Lagrange dual in two variables,

    min_y lambda_max(Sigma - y1 (1 (x) sx) - y2 (1 (x) sz)) + t y2,

and every y gives a proven upper bound on the maximum, i.e. a lower bound on the
disturbance (Vandenberghe & Boyd, SIAM Rev. 38:49, 1996). The solver minimizes
the entropic smoothing g_mu(y) = mu log Tr exp(M(y)/mu) + t y2 by damped Newton
in a trust region, continuing mu from 1e-1 down to 1e-9. One eigendecomposition
of M(y) per dual point yields g_mu and the exact dual value in scalar
arithmetic; the gradient and Hessian are formed only at accepted points, and
the Gibbs state exp(M/mu)/Tr only at stage ends. The Gibbs state is positive by
construction, has unit trace, and its remaining constraint residuals are minus
the gradient. A Gibbs state is the primal answer; the least dual value seen is
the certificate.

Both ends of the t range are solved exactly instead. At t = 0 the identity
channel R1 = |Om><Om|/2, |Om> = |11> + |22>, is feasible with Tr[Sigma R1] = 1,
and the dual point y = (<psi1|psi2>, 0), where lambda_max(M(y)) = 1, proves it
optimal. At t = 1 the dual optimum is not attained (y2 diverges): the
constraints pin the input marginal of R1 to the pure state |1><1|, which forces
R1 = S (x) |1><1| and reduces the program to maximizing Tr[S M] over 2x2
density matrices S, i.e. to the top eigenvalue of M[i,j] = Sigma[2i, 2j].
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .choi import OMEGA
from .qubit import ID2, SIGMA_X, SIGMA_Z, StatePair, min_eigenvalue_hermitian, projector, tensor
from .tradeoff import tradeoff_point

FEASIBILITY_ATOL = 1e-6
SUPEROPTIMALITY_TOL = 1e-5

# Constraint operators 1 (x) sx and 1 (x) sz; their multipliers are the dual variables.
_DUAL_OPS = np.stack([tensor(ID2, SIGMA_X).real, tensor(ID2, SIGMA_Z).real])
_SMOOTHING_SCHEDULE = tuple(10.0 ** -k for k in range(1, 10))
_NEWTON_STEPS_PER_STAGE = 60
_ARMIJO = 1e-4
_EPS = np.finfo(float).eps
# Forming M(y), its eigh and the sum lambda_max + t y2 each round by a small
# multiple of eps * max|lambda| (measured up to 1.75 against 40-digit mpmath),
# which near t = 1 (|y| ~ 1e5) reaches 1e-11. The dual value is raised by this
# allowance so that it stays a proven upper bound on Tr[Sigma R1].
_DUAL_ROUNDING = 8.0 * _EPS


@dataclass(frozen=True)
class OracleConfig:
    """Accepted for compatibility and ignored: the dual Newton solver has no settings."""


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Optimum of the oracle program with its certificate.

    best_R1 is positive with unit trace and meets the two remaining linear
    conditions to within constraint_residuals; achieved_D = 1 - Tr[Sigma R1].
    lower_bound_D is a proven lower bound on the minimum disturbance, with an
    allowance for eigenvalue rounding. certified_gap = achieved_D - lower_bound_D
    + |lambda_max r_tr| + |y1 r_sx| + |y2 r_sz| for the dual point y that set the
    bound and R1's residuals r in the trace, sx and sz conditions; by weak
    duality it is never negative.
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
    division degenerates at a = pi/4, which is rejected.
    """
    if float(pair.alpha) == np.pi / 4:
        raise ValueError("constraints degenerate at alpha = pi/4 (cos 2a = 0)")
    r1 = np.asarray(r1, dtype=complex)
    psd = max(0.0, -min_eigenvalue_hermitian(r1))
    sx, sz = np.real(np.einsum("kij,ji->k", _DUAL_OPS, r1))
    return psd, float(np.real(np.trace(r1))) - 1.0, float(sx), float(sz) - float(t)


def _face_solution(sig: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact optimum on the t = 1 face R1 = S (x) |1><1|."""
    vals, vecs = np.linalg.eigh(sig[0::2, 0::2])
    s = np.outer(vecs[:, -1], vecs[:, -1])
    return tensor(s, np.diag([1.0, 0.0])).real, float(vals[-1])


def _spectrum(sig: np.ndarray, y: tuple[float, float]) -> tuple[list[float], np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of M(y) = Sigma - y1 (1 (x) sx) - y2 (1 (x) sz)."""
    lam, v = np.linalg.eigh(sig - np.dot(y, _DUAL_OPS.reshape(2, 16)).reshape(4, 4))
    return lam.tolist(), v


def _smoothed(lam: list[float], y: tuple[float, float], t: float, mu: float) -> tuple[float, list[float]]:
    """g_mu at y and the Gibbs weights p of exp(M/mu)/Tr in M's eigenbasis."""
    w = [math.exp((x - lam[-1]) / mu) for x in lam]
    total = sum(w)
    return lam[-1] + mu * math.log(total) + t * y[1], [x / total for x in w]


def _derivatives(lam: list[float], v: np.ndarray, p: list[float], t: float, mu: float):
    """Gradient (g1, g2) and Hessian (h11, h12, h22) of g_mu, in scalar arithmetic.

    The gradient is (0, t) minus the constraint values Tr[A_k gibbs] = sum_i p_i
    b_k[i, i], with b_k the constraint operators in M's eigenbasis. The Hessian
    is the Daleckii-Krein form of the second derivative of mu log Tr exp(M/mu):
    the covariance of the diagonals under p divided by mu, plus divided
    differences (p_i - p_j)/(lam_i - lam_j) on the off-diagonal entries.
    """
    b1, b2 = (v.T @ _DUAL_OPS @ v).tolist()
    d1 = [b1[i][i] for i in range(4)]
    d2 = [b2[i][i] for i in range(4)]
    m1 = sum(pi * di for pi, di in zip(p, d1))
    m2 = sum(pi * di for pi, di in zip(p, d2))
    h11 = sum(pi * (a - m1) * (a - m1) for pi, a in zip(p, d1)) / mu
    h12 = sum(pi * (a - m1) * (b - m2) for pi, a, b in zip(p, d1, d2)) / mu
    h22 = sum(pi * (b - m2) * (b - m2) for pi, b in zip(p, d2)) / mu
    for i in range(3):
        for j in range(i + 1, 4):
            # (p_i - p_j)/(lam_i - lam_j) = max(p_i, p_j) (1 - exp(-x))/x / mu with
            # x = |lam_i - lam_j|/mu, which neither cancels nor overflows; the
            # pair (j, i) contributes the same again.
            x = (lam[j] - lam[i]) / mu
            k = 2.0 * max(p[i], p[j]) * (-math.expm1(-x) / x if x > 0.0 else 1.0) / mu
            h11 += k * b1[i][j] * b1[i][j]
            h12 += k * b1[i][j] * b2[i][j]
            h22 += k * b2[i][j] * b2[i][j]
    return (-m1, t - m2), (h11, h12, h22)


def _newton_step(grad, hess) -> tuple[float, float]:
    """Solve hess @ step = -grad by Cramer's rule; -grad where hess is singular."""
    h11, h12, h22 = hess
    det = h11 * h22 - h12 * h12
    if det == 0.0 or not math.isfinite(det):
        return -grad[0], -grad[1]
    return (h12 * grad[1] - h22 * grad[0]) / det, (h12 * grad[0] - h11 * grad[1]) / det


def _certified_dual(lam: list[float], y: tuple[float, float], t: float):
    """(dual value raised by its rounding allowance, y, lambda_max) at y."""
    return lam[-1] + t * y[1] + _DUAL_ROUNDING * max(lam[-1], -lam[0]), y, lam[-1]


def _line_search(sig, y, t, mu, g, grad, step):
    """Backtrack along step, capped to the trust region.

    Returns the accepted (y, lam, v, g, p, grad, hess) or None; derivatives are
    computed only where a trial is accepted or must be compared.
    """
    length = math.hypot(*step)
    if not 0.0 < length < math.inf:
        return None
    # Trust region: far from the optimum the Newton step of a nearly linear
    # g_mu overshoots without bound.
    scale = min(1.0, 0.5 * (1.0 + math.hypot(*y)) / length)
    step = (step[0] * scale, step[1] * scale)
    decrease = -(grad[0] * step[0] + grad[1] * step[1])

    def trial(s):
        y_new = (y[0] + s * step[0], y[1] + s * step[1])
        lam, v = _spectrum(sig, y_new)
        return (y_new, lam, v, *_smoothed(lam, y_new, t, mu))

    # Below this, g_mu cannot resolve the predicted decrease; the gradient
    # still can, so a full step must shrink it instead.
    if decrease <= 8.0 * _EPS * (1.0 + abs(g) + abs(y[0]) + abs(y[1])):
        y_new, lam, v, g_new, p = trial(1.0)
        grad_new, hess = _derivatives(lam, v, p, t, mu)
        shrinks = math.hypot(*grad_new) < math.hypot(*grad)
        return (y_new, lam, v, g_new, p, grad_new, hess) if shrinks else None
    s = 1.0
    while s > 1e-12:
        y_new, lam, v, g_new, p = trial(s)
        if g_new <= g - _ARMIJO * s * decrease:
            return (y_new, lam, v, g_new, p, *_derivatives(lam, v, p, t, mu))
        s *= 0.5
    return None


def _dual_newton(sig: np.ndarray, t: float):
    """The best stage-final Gibbs state, the least dual value seen, its dual point and lambda_max there.

    Each dual point costs one eigh of M(y); since M(y) does not depend on mu, a
    new stage starts from the last eigenpairs. Where the top-eigenvalue gap at
    the optimum is of order mu or less (at small t, where it grows as t^2, and
    near alpha = pi/4), the gradient carries rounding of order eps/mu and the
    last stage is not always the best: each stage-final Gibbs state is scored by
    the larger of its constraint residual and its distance to the dual bound.
    """
    y = (0.0, 0.0)
    lam, v = _spectrum(sig, y)
    best = _certified_dual(lam, y, t)  # the least dual value seen, its y and lambda_max
    stage_ends = []
    for mu in _SMOOTHING_SCHEDULE:
        g, p = _smoothed(lam, y, t, mu)
        grad, hess = _derivatives(lam, v, p, t, mu)
        for _ in range(_NEWTON_STEPS_PER_STAGE):
            # Steepest descent where g_mu is flat along some direction and the
            # Newton step is meaningless.
            accepted = _line_search(sig, y, t, mu, g, grad, _newton_step(grad, hess)) or \
                _line_search(sig, y, t, mu, g, grad, (-grad[0], -grad[1]))
            if accepted is None:
                break
            y, lam, v, g, p, grad, hess = accepted
            best = min(best, _certified_dual(lam, y, t), key=lambda b: b[0])
        gibbs = (v * p) @ v.T
        stage_ends.append((gibbs, max(abs(grad[0]), abs(grad[1])), float(np.sum(sig * gibbs))))
    gibbs = min(stage_ends, key=lambda e: max(e[1], abs(best[0] - e[2])))[0]
    return gibbs, *best


def maximize(pair: StatePair, t: float, cfg: OracleConfig | None = None) -> OracleResult:
    """Maximize Tr[Sigma R1] over the constraint set; achieved_D = 1 - best objective.

    Deterministic: identical arguments give bit-identical results. cfg is
    accepted and ignored. Never consults the closed forms in `tradeoff`.
    """
    t = float(t)
    alpha = float(pair.alpha)
    if not 0.0 < alpha < np.pi / 4:
        raise ValueError("oracle requires alpha strictly inside (0, pi/4)")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t!r}")
    sig = sigma_objective(pair)

    if t == 1.0:
        # The face reduction is exact: its optimum is its own certificate.
        r1, obj = _face_solution(sig)
        achieved = lower = 1.0 - obj
        weights = np.zeros(3)
    else:
        if t == 0.0:
            # Exact: Sigma - <psi1|psi2> (1 (x) sx) <= 1, so this y certifies R1.
            r1 = np.outer(OMEGA, OMEGA).real / 2.0
            y = (float(np.vdot(pair.psi1, pair.psi2).real), 0.0)
            dual, y, lam_max = _certified_dual(_spectrum(sig, y)[0], y, t)
        else:
            r1, dual, y, lam_max = _dual_newton(sig, t)
        achieved = 1.0 - float(np.sum(sig * r1))
        lower = 1.0 - dual
        weights = np.array([lam_max, *y])
    residuals = constraint_residuals(r1, pair, t)
    # Weak duality at y: Tr[Sigma R1] <= dual + lambda_max r_tr + y1 r_sx + y2 r_sz.
    # The t = 0 and t = 1 solutions meet the conditions exactly.
    slack = float(np.abs(weights * residuals[1:]).sum())
    return OracleResult(
        best_R1=r1,
        achieved_D=achieved,
        lower_bound_D=lower,
        certified_gap=achieved - lower + slack,
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
    superoptimality_margin: float = 0.0
    no_superoptimality: bool = True

    def as_dict(self) -> dict:
        payload = asdict(self)
        payload["points"] = list(payload["points"])
        return payload


def verify_closed_form(pair: StatePair, t_grid, tol: float = 1e-4) -> VerificationReport:
    """Run the oracle over a t grid and compare with the closed-form curve.

    A point passes when |D_oracle - D_t| <= tol. The report also certifies that
    the oracle never lands below the closed form by more than the solver
    witness tolerance (the closed form is a true lower bound on disturbance).
    """
    t_grid = [float(t) for t in t_grid]
    if not t_grid:
        raise ValueError("t grid must be nonempty")
    tol = float(tol)
    if not (math.isfinite(tol) and tol > 0.0):
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
