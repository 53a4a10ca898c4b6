"""Proximal building blocks: soft thresholding, FISTA, singular value
thresholding, an ADMM solver for nuclear-norm regularized least squares,
and a power-iteration Lipschitz estimator.

All solvers operate on dense float matrices (vectors are column matrices)
and are deterministic given their inputs and an explicit seed.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DataError, DimensionError, NumericalError, ParameterError


@dataclass(frozen=True)
class SmoothObjective:
    """Smooth part of a composite objective g(W) + lam * ||W||_1.

    grad maps a matrix to its gradient, lipschitz is a bound on the
    gradient's Lipschitz constant, and value (optional) evaluates g up to
    an additive constant. When value is provided, :func:`fista` runs a
    monotone safeguard so the composite objective never increases along
    the returned iterates.
    """

    grad: Callable
    lipschitz: float
    value: Optional[Callable] = None

    def __post_init__(self):
        if not np.isfinite(self.lipschitz) or self.lipschitz <= 0:
            raise ParameterError(f"lipschitz must be positive, got {self.lipschitz}")

    @classmethod
    def quadratic(cls, grad, lipschitz, shape, per_column=False):
        """Objective for a quadratic g, with value derived from grad.

        For g(W) = 1/2 <W, H W> - <B, W> + c the gradient is H W - B, so
        g(W) - g(0) = 1/2 <W, grad(W) + grad(0)>. The constant g(0) never
        changes which FISTA candidate is accepted, so this value is all the
        monotone safeguard needs. grad(0) is computed once, on a zero matrix
        of the given shape. value calls the grad given here rather than
        obj.grad, so a copy of the objective with a wrapped grad keeps the
        same value.

        With per_column, value returns one number per column of W (the
        same inner product, summed down each column), and :func:`fista`
        applies its safeguard to each column on its own. That is only
        meaningful when the columns are independent problems, i.e. H acts
        on each column separately.
        """
        g0 = grad(np.zeros(shape))
        if per_column:

            def value(W):
                return 0.5 * _column_sums(W * (grad(W) + g0))

        else:

            def value(W):
                return 0.5 * float(np.vdot(W, grad(W) + g0))

        return cls(grad=grad, lipschitz=lipschitz, value=value)


def soft_threshold(W, tau):
    """Entrywise shrinkage: sign(w) * max(|w| - tau, 0).

    The proximal operator of tau * ||.||_1. Entries with |w| <= tau map to
    exactly zero.
    """
    if tau < 0:
        raise ParameterError(f"threshold must be >= 0, got {tau}")
    W = np.asarray(W, dtype=float)
    return np.sign(W) * np.maximum(np.abs(W) - tau, 0.0)


def _column_sums(M):
    """Sum down each column of M. Each column is summed as a contiguous
    row of the transpose, so its sum does not depend on the other columns
    and a column gets the same bits in a batch as on its own."""
    return np.ascontiguousarray(M.T).sum(axis=1)


def _pick(keep, a, b):
    return a if keep else b


def fista(obj, lam, W0, max_iter=100, tol=1e-6):
    """Accelerated proximal gradient descent for g(W) + lam * ||W||_1.

    Args:
        obj: SmoothObjective with grad, lipschitz, and optionally value.
        lam: l1 weight, >= 0.
        W0: warm start (copied, never modified).
        max_iter: iteration budget.
        tol: stop when the relative iterate change
            ||W_k - W_{k-1}||_F / max(1, ||W_{k-1}||_F) drops below tol
            on an accepted step.

    Returns the final iterate. With obj.value given, candidates that would
    increase the composite objective are rejected (the previous iterate is
    kept while the momentum sequence still advances on the candidate), so
    recorded objective values are non-increasing.

    The safeguard works on blocks: the whole matrix when obj.value returns
    one number, each column when it returns one number per column. A
    column block is accepted or rejected, and stops, on its own values and
    its own relative change; once stopped it is frozen, and the solve ends
    when every block has stopped or the budget is spent. The momentum
    weight t depends only on the iteration count, so when grad and value
    compute each column by the same arithmetic in a batch as alone, each
    column of a per-column solve gets the bits a solve of that column
    alone returns.
    """
    if lam < 0:
        raise ParameterError(f"l1 weight must be >= 0, got {lam}")
    if max_iter < 1:
        raise ParameterError("max_iter must be positive")
    L = obj.lipschitz
    W = np.array(W0, dtype=float)
    Z = W
    t = 1.0
    monotone = obj.value is not None
    F = obj.value(W) if monotone else None
    if np.ndim(F) == 1:
        # one block per column: boolean masks over the columns

        def l1(M):
            return _column_sums(np.abs(M))

        def norm(M):
            return np.sqrt(_column_sums(M * M))

        select, any_live = np.where, np.ndarray.any
        live = np.ones(F.shape, dtype=bool)
    else:
        # the whole matrix is one block: plain scalars

        def l1(M):
            return np.abs(M).sum()

        norm, select, any_live = np.linalg.norm, _pick, bool
        live = np.True_
    if monotone:
        F = F + lam * l1(W)
    for k in range(1, max_iter + 1):
        G = obj.grad(Z)
        if not np.isfinite(G).all():
            raise NumericalError(f"non-finite gradient at iteration {k}")
        cand = soft_threshold(Z - G / L, lam / L)
        if monotone:
            F_cand = obj.value(cand) + lam * l1(cand)
            if not np.isfinite(F_cand).all():
                raise NumericalError(f"non-finite objective at iteration {k}")
            accepted = live & (F_cand <= F)
            W_new = select(accepted, cand, W)
            F = select(accepted, F_cand, F)
        else:
            accepted = live
            W_new = cand
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        step = W_new - W
        Z = W_new + (t / t_new) * (cand - W_new) + ((t - 1.0) / t_new) * step
        rel = norm(step) / np.maximum(1.0, norm(W))
        W, t = W_new, t_new
        live = live & ~(accepted & (rel < tol))
        if not any_live(live):
            break
    return W


def svt(M, tau):
    """Singular value thresholding: U max(S - tau, 0) V^T.

    The proximal operator of tau * ||.||_* (nuclear norm).
    """
    if tau < 0:
        raise ParameterError(f"threshold must be >= 0, got {tau}")
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {M.shape}")
    if min(M.shape) == 0:
        return M.copy()
    if not np.isfinite(M).all():
        raise DataError("matrix contains NaN or Inf")
    try:
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc
    s = np.maximum(s - tau, 0.0)
    return (U * s) @ Vt


def admm_nuclear(V, Xcoef, eta, rho, iters=100, return_residuals=False):
    """Solve min_D ||V - D Xcoef||_F^2 + eta * ||D||_* by ADMM.

    Splits on Z = D with penalty rho. Each sweep runs, in order,

        D <- (2 V Xcoef^T + rho (Z - U)) (2 Xcoef Xcoef^T + rho I)^{-1}
        Z <- svt(D + U, eta / rho)
        U <- U + D - Z

    starting from Z = U = 0, and returns Z after ``iters`` sweeps (Z always
    satisfies the thresholded structure exactly). With return_residuals the
    per-sweep consensus residuals ||D - Z||_F come back as a list.
    """
    V = np.asarray(V, dtype=float)
    Xcoef = np.asarray(Xcoef, dtype=float)
    if V.ndim != 2 or Xcoef.ndim != 2 or V.shape[1] != Xcoef.shape[1]:
        raise DimensionError(
            f"incompatible shapes {V.shape} and {Xcoef.shape} (columns must match)"
        )
    if eta < 0:
        raise ParameterError(f"eta must be >= 0, got {eta}")
    if rho <= 0:
        raise ParameterError(f"rho must be positive, got {rho} (system singular)")
    if iters < 1:
        raise ParameterError("iters must be positive")
    d = V.shape[0]
    k = Xcoef.shape[0]
    if k == 0:
        Z = np.zeros((d, 0))
        return (Z, []) if return_residuals else Z

    G = 2.0 * (Xcoef @ Xcoef.T) + rho * np.eye(k)
    VXt2 = 2.0 * (V @ Xcoef.T)
    Z = np.zeros((d, k))
    U = np.zeros((d, k))
    residuals = []
    for sweep in range(1, iters + 1):
        rhs = VXt2 + rho * (Z - U)
        try:
            D = np.linalg.solve(G, rhs.T).T
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"linear solve failed at sweep {sweep}") from exc
        Z = svt(D + U, eta / rho)
        U = U + D - Z
        if not (np.isfinite(Z).all() and np.isfinite(U).all()):
            raise NumericalError(f"non-finite iterate at sweep {sweep}")
        residuals.append(float(np.linalg.norm(D - Z)))
    return (Z, residuals) if return_residuals else Z


def power_iteration_lipschitz(apply, shape, iters=100, seed=0):
    """Estimate the largest eigenvalue of a symmetric PSD linear operator
    on matrices of the given shape, scaled by a 1% safety margin.

    ``apply`` must be linear; the estimate is the final Rayleigh quotient
    of a seeded random power iteration, floored at 1e-12 (a zero operator
    returns the floor).
    """
    if iters < 1:
        raise ParameterError("iters must be positive")
    rng = np.random.default_rng(seed)
    V = rng.standard_normal(shape)
    nv = np.linalg.norm(V)
    if nv == 0:
        raise NumericalError("degenerate random start")
    V = V / nv
    lam = 0.0
    for _ in range(iters):
        W = apply(V)
        if not np.isfinite(W).all():
            raise NumericalError("operator produced non-finite values")
        nw = np.linalg.norm(W)
        if nw < 1e-300:
            return 1e-12
        lam = float(np.vdot(V, W))
        V = W / nw
    return max(lam * 1.01, 1e-12)
