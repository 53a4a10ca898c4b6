"""Proximal building blocks: soft thresholding, FISTA, singular value
thresholding, an ADMM solver for nuclear-norm regularized least squares,
and the exact step-size rule L = lambda_max(H) of every coding solve.

All solvers operate on dense float matrices (vectors are column matrices)
and are deterministic given their inputs.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import class_means
from .errors import DataError, DimensionError, NumericalError, ParameterError


@dataclass(frozen=True)
class SmoothObjective:
    """Smooth quadratic part g of a composite objective g(W) + lam * ||W||_1.

    grad maps a matrix to its gradient, which must be affine (g is a
    quadratic), and lipschitz bounds its Lipschitz constant. raw_grad is
    the same map for the two calls :func:`fista` makes outside its
    iterations; it defaults to grad and dataclasses.replace keeps it, so a
    copy with a wrapped grad sees exactly one call per iteration.
    per_column marks the columns of W as independent problems, each its
    own safeguard block. fista never calls value.
    """

    grad: Callable
    lipschitz: float
    value: Callable | None = None
    per_column: bool = False
    raw_grad: Callable | None = None

    def __post_init__(self):
        if not np.isfinite(self.lipschitz) or self.lipschitz <= 0:
            raise ParameterError(f"lipschitz must be positive, got {self.lipschitz}")
        if self.raw_grad is None:
            object.__setattr__(self, "raw_grad", self.grad)

    @classmethod
    def quadratic(cls, H, B, lipschitz, fisher=None, per_column=False):
        """Objective of g(W) = 1/2 <W, H W> - <B, W> from its Gram pair:
        the gradient is H W - B, a product with the small matrix H.

        fisher = (lambda2, blocks, C) adds the class-mean part of the Fisher
        gradient for W made of `blocks` equal class blocks with means M_b,
        out of C classes (a sequential solve holds one block): each column
        of block b gets lambda2 (sum_b M_b / C - 2 M_b). That map is linear
        and symmetric, so g stays a quadratic with gradient -B at 0.
        """
        if fisher is None:

            def grad(W):
                return H @ W - B

        else:
            lambda2, blocks, C = fisher

            def grad(W):
                M = class_means(W, blocks)
                G = (H @ W - B).reshape(M.shape + (-1,))
                G += lambda2 * (M.sum(axis=1, keepdims=True) / C - 2.0 * M)[:, :, None]
                return G.reshape(W.shape)

        return cls(grad=grad, lipschitz=lipschitz, per_column=per_column)


def soft_threshold(W, tau):
    """Entrywise shrinkage: sign(w) * max(|w| - tau, 0).

    The proximal operator of tau * ||.||_1. Entries with |w| <= tau map to
    exactly zero.
    """
    if not tau >= 0:  # also rejects NaN
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


FISTA_TOL = 1e-6  # relative iterate change that ends every coding solve


def fista(obj, lam, W0, max_iter=100, tol=FISTA_TOL):
    """Accelerated proximal gradient descent for g(W) + lam * ||W||_1.

    Args:
        obj: SmoothObjective with a quadratic g (affine gradient).
        lam: l1 weight, >= 0.
        W0: warm start (copied, never modified).
        max_iter: iteration budget.
        tol: stop when the relative iterate change
            ||W_k - W_{k-1}||_F / max(1, ||W_{k-1}||_F) drops below tol
            on an accepted step.

    Returns the final iterate. Candidates that would increase the
    composite objective are rejected (the previous iterate is kept while
    the momentum sequence still advances on the candidate), so recorded
    objective values are non-increasing.

    Each iteration calls obj.grad once, at the candidate. As the gradient
    is affine, the rest follows by linearity: the momentum point
    Z = W_new + a (cand - W_new) + b (W_new - W) has coefficients summing
    to 1, so its gradient is the same combination of theirs, and the
    safeguard compares g(W) - g(0) = 1/2 <W, grad(W) + grad(0)>. The
    gradients at W0 and at 0 come from obj.raw_grad, once per solve.

    The safeguard works on blocks: the whole matrix, or each column when
    obj.per_column is set. A column block is accepted or rejected, and
    stops, on its own values and its own relative change; once stopped it
    is frozen, and the solve ends when every block has stopped or the
    budget is spent. The momentum weight t depends only on the iteration
    count, so when grad computes each column by the same arithmetic in a
    batch as alone, each column gets the bits a solve of it alone returns.
    """
    if not lam >= 0:  # also rejects NaN
        raise ParameterError(f"l1 weight must be >= 0, got {lam}")
    if max_iter < 1:
        raise ParameterError("max_iter must be positive")
    L = obj.lipschitz
    W = np.array(W0, dtype=float)
    GW = obj.raw_grad(W)
    G0 = obj.raw_grad(np.zeros_like(W))
    if obj.per_column:
        # one block per column: boolean masks over the columns

        def inner(A, B):
            return _column_sums(A * B)

        def l1(M):
            return _column_sums(np.abs(M))

        def norm(M):
            return np.sqrt(inner(M, M))

        select, any_live = np.where, np.ndarray.any
        live = np.ones(W.shape[1], dtype=bool)
    else:
        # the whole matrix is one block: plain scalars

        def inner(A, B):
            return float(np.vdot(A, B))

        def l1(M):
            return np.abs(M).sum()

        norm, select, any_live = np.linalg.norm, _pick, bool
        live = np.True_

    def objective(M, G):
        """g(M) - g(0) + lam ||M||_1 from the gradient G at M."""
        return 0.5 * inner(M, G + G0) + lam * l1(M)

    F = objective(W, GW)
    Z, GZ = W, GW
    t = 1.0
    for k in range(1, max_iter + 1):
        cand = soft_threshold(Z - GZ / L, lam / L)
        G = obj.grad(cand)
        if not np.isfinite(G).all():
            raise NumericalError(f"non-finite gradient at iteration {k}")
        F_cand = objective(cand, G)
        if not np.isfinite(F_cand).all():
            raise NumericalError(f"non-finite objective at iteration {k}")
        accepted = live & (F_cand <= F)
        W_new, GW_new = select(accepted, cand, W), select(accepted, G, GW)
        F = select(accepted, F_cand, F)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        a, b = t / t_new, (t - 1.0) / t_new
        step = W_new - W
        Z = W_new + a * (cand - W_new) + b * step
        GZ = GW_new + a * (G - GW_new) + b * (GW_new - GW)
        rel = norm(step) / np.maximum(1.0, norm(W))
        W, GW, t = W_new, GW_new, t_new
        live = live & ~(accepted & (rel < tol))
        if not any_live(live):
            break
    return W


def svt(M, tau):
    """Singular value thresholding: U max(S - tau, 0) V^T.

    The proximal operator of tau * ||.||_* (nuclear norm).
    """
    if not tau >= 0:  # also rejects NaN
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


ADMM_TOL = 1e-8  # absolute and relative residual tolerance of admm_nuclear


def admm_nuclear(V, Xcoef, eta, rho, iters=100, return_residuals=False):
    """Solve min_D ||V - D Xcoef||_F^2 + eta * ||D||_* by ADMM.

    Splits on Z = D with penalty rho. Each sweep runs, in order,

        D <- (2 V Xcoef^T + rho (Z - U)) G^{-1},  G = 2 Xcoef Xcoef^T + rho I
        Z <- svt(D + U, eta / rho)
        U <- U + D - Z

    starting from Z = U = 0. G is symmetric with every eigenvalue >= rho, so
    its inverse is formed once per call and each D-step is one product.

    After each sweep it takes the primal residual r = ||D - Z||_F and the
    dual residual s = rho ||Z - Z_prev||_F, and stops when both

        r <= sqrt(d k) eps + eps max(||D||_F, ||Z||_F)
        s <= sqrt(d k) eps + eps rho ||U||_F

    hold, eps = ADMM_TOL (Boyd et al., Distributed Optimization and
    Statistical Learning via ADMM, 2011, section 3.3.1), or after ``iters``
    sweeps. Returns Z, an exact svt image. With return_residuals the
    per-sweep pairs (r, s) come back as a list. With no code rows (k = 0)
    the first sweep stops with r = s = 0 and Z is d x 0.
    """
    V = np.asarray(V, dtype=float)
    Xcoef = np.asarray(Xcoef, dtype=float)
    if V.ndim != 2 or Xcoef.ndim != 2 or V.shape[1] != Xcoef.shape[1]:
        raise DimensionError(
            f"incompatible shapes {V.shape} and {Xcoef.shape} (columns must match)"
        )
    if not eta >= 0:  # also rejects NaN
        raise ParameterError(f"eta must be >= 0, got {eta}")
    if not rho > 0:
        raise ParameterError(f"rho must be positive, got {rho} (system singular)")
    if iters < 1:
        raise ParameterError("iters must be positive")
    d = V.shape[0]
    k = Xcoef.shape[0]
    try:
        Ginv = np.linalg.inv(2.0 * (Xcoef @ Xcoef.T) + rho * np.eye(k))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"ADMM system inverse failed: {exc}") from exc
    VXt2 = 2.0 * (V @ Xcoef.T)
    floor = np.sqrt(d * k) * ADMM_TOL
    Z = np.zeros((d, k))
    U = np.zeros((d, k))
    residuals = []
    for sweep in range(1, iters + 1):
        D = (VXt2 + rho * (Z - U)) @ Ginv
        Z_prev = Z
        Z = svt(D + U, eta / rho)
        U = U + D - Z
        if not (np.isfinite(Z).all() and np.isfinite(U).all()):
            raise NumericalError(f"non-finite iterate at sweep {sweep}")
        r = float(np.linalg.norm(D - Z))
        s = rho * float(np.linalg.norm(Z - Z_prev))
        residuals.append((r, s))
        if r <= floor + ADMM_TOL * max(np.linalg.norm(D), np.linalg.norm(Z)) and (
            s <= floor + ADMM_TOL * rho * np.linalg.norm(U)
        ):
            break
    return (Z, residuals) if return_residuals else Z


def power_iteration_lipschitz(G):
    """Step-size bound of a coding solve: the largest eigenvalue of the
    symmetric PSD Gram matrix G, from np.linalg.eigvalsh, floored at 1e-12
    (a zero or empty matrix returns the floor).

    Every coding site passes the H it hands SmoothObjective.quadratic, so L
    is exactly lambda_max(H). With a Fisher term it is still a bound: the
    class-mean map lambda2 (sum_b M_b / C - 2 M_b) is negative semidefinite.
    The name is kept because the benchmark tracer wraps this function by
    name; no power iteration is left.
    """
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {G.shape}")
    if not np.isfinite(G).all():
        raise NumericalError("matrix contains non-finite values")
    return max(float(np.linalg.eigvalsh(G).max(initial=0.0)), 1e-12)
