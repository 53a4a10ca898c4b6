"""Proximal building blocks: soft thresholding, FISTA, singular value
thresholding, an ADMM solver for nuclear-norm regularized least squares,
and the exact step-size rule L = lambda_max(H) of every coding solve.

All solvers operate on dense float matrices (vectors are column matrices)
and are deterministic given their inputs.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import fisher_mean_map
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
        the gradient is H W - B, a product with the small matrix H, formed
        in the product's own array (and the Fisher part added into it).

        fisher = (lambda2, blocks, C) adds the class-mean part of the Fisher
        gradient for W made of `blocks` equal class blocks out of C classes:
        the product W Q with the matrix Q of
        :func:`~lrsdl.data.fisher_mean_map`, built once here, one column
        per block, added to every column of its block. That map is linear
        and symmetric, so g stays a quadratic with gradient -B at 0.
        """
        if fisher is None:

            def grad(W):
                G = H @ W
                G -= B
                return G

        else:
            lambda2, blocks, C = fisher
            Q = fisher_mean_map(blocks, B.shape[1] // blocks, C, lambda2)

            def grad(W):
                G = H @ W
                G -= B
                per_block = G.reshape(W.shape[0], blocks, -1)
                per_block += (W @ Q)[:, :, None]
                return G

        return cls(grad=grad, lipschitz=lipschitz, per_column=per_column)


def soft_threshold(W, tau, out=None):
    """Entrywise shrinkage: sign(w) * max(|w| - tau, 0), formed as
    W - clip(W, -tau, tau), the clip as min(max(W, -tau), tau), in one
    temporary or in out (which must not share memory with W).

    The proximal operator of tau * ||.||_1. Entries with |w| <= tau map to
    exactly zero.
    """
    if not tau >= 0:  # also rejects NaN
        raise ParameterError(f"threshold must be >= 0, got {tau}")
    return _shrink(np.asarray(W, dtype=float), tau, out)


def _shrink(W, tau, out):
    """soft_threshold of a float array W by a checked tau >= 0."""
    out = np.minimum(np.maximum(W, -tau, out=out), tau, out=out)
    return np.subtract(W, out, out=out)


def _pick(keep, a, b):
    return a if keep else b


def _split_whole(accepted):
    """Indexes of the accepted and the rejected part of a one-block solve
    (None for an empty part)."""
    return (..., None) if accepted else (None, ...)


def _split_columns(accepted):
    """Indexes of the accepted and the rejected columns (None for none)."""
    kept = np.flatnonzero(accepted)
    if kept.size == accepted.size:
        return ..., None
    if kept.size == 0:
        return None, ...
    return (slice(None), kept), (slice(None), np.flatnonzero(~accepted))


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

    Returns the final iterate. A candidate that would increase the
    composite objective is rejected: the previous iterate is kept and the
    momentum restarts, Z = W and t = 1, so the next candidate is a plain
    proximal gradient step from W (the function scheme of O'Donoghue and
    Candes, Adaptive restart for accelerated gradient schemes, 2015).
    Recorded objective values are therefore non-increasing. An accepted
    candidate moves the momentum point to Z = cand + b (cand - W) with
    b = (t - 1) / t_new.

    Each iteration calls obj.grad once, at the candidate. As the gradient
    is affine, the rest follows by linearity: the coefficients of Z sum to
    1, so its gradient is the same combination of the gradients at cand
    and W, and the safeguard compares g(W) - g(0) = 1/2 <W, grad(W) +
    grad(0)>. The gradients at W0 and at 0 come from obj.raw_grad, once
    per solve. A non-finite gradient entry makes that inner product
    non-finite (0 * inf is NaN), so checking the candidate's value checks
    its gradient too.

    The safeguard works on blocks: the whole matrix, or each column when
    obj.per_column is set. A column block is accepted or rejected, restarts
    and stops on its own values and its own relative change, with its own
    momentum weight t; once stopped it is frozen, and the solve ends when
    every block has stopped or the budget is spent. A block's t depends
    only on its own accepts and rejects, so when grad computes each column
    by the same arithmetic in a batch as alone, each column gets the bits a
    solve of it alone returns.

    The loop runs in place: the iterate, the candidate, the momentum point,
    their gradients and the scratch space are allocated once per solve, and
    no array that obj.grad returns is written to. A whole-matrix solve
    therefore keeps an accepted gradient by reference, while a per-column
    solve copies the accepted columns into the gradient it holds at W. The
    shrink threshold lam / L is checked once, before the loop.
    """
    if not lam >= 0:  # also rejects NaN
        raise ParameterError(f"l1 weight must be >= 0, got {lam}")
    if max_iter < 1:
        raise ParameterError("max_iter must be positive")
    L = obj.lipschitz
    W = np.array(W0, dtype=float)
    GW = np.array(obj.raw_grad(W), dtype=float)
    G0 = obj.raw_grad(np.zeros_like(W))
    Z, GZ = W.copy(), GW.copy()
    cand, scratch = np.empty_like(W), np.empty_like(W)
    if obj.per_column:
        # one block per column: each column is summed as a contiguous row
        # of a transposed copy, so its sum does not depend on the others
        prod, rows = np.empty_like(W), np.empty(W.shape[::-1])

        def column_sums(M):
            np.copyto(rows, M.T)
            return rows.sum(axis=1)

        def inner(A, B):
            return column_sums(np.multiply(A, B, out=prod))

        def l1(M):
            return column_sums(np.abs(M, out=prod))

        sqrt, larger, select, any_live = np.sqrt, np.maximum, np.where, np.ndarray.any
        split = _split_columns

        def keep_gradient(GW, G, kept):
            GW[kept] = G[kept]
            return GW

        def finite(F):
            return np.isfinite(F).all()

        live = np.ones(W.shape[1], dtype=bool)
        t_start = np.ones(W.shape[1])
    else:
        # the whole matrix is one block: plain scalars

        def inner(A, B):
            return float(np.vdot(A, B))

        def l1(M):
            return float(np.add.reduce(np.abs(M, out=scratch), axis=None))

        def keep_gradient(GW, G, kept):
            return G  # never written to, so it is kept by reference

        sqrt, larger, select, any_live = math.sqrt, max, _pick, bool
        split, finite = _split_whole, math.isfinite
        live = np.True_
        t_start = 1.0

    def objective(M, G):
        """g(M) - g(0) + lam ||M||_1 from the gradient G at M (the inner
        product is taken before l1 may reuse scratch)."""
        return 0.5 * inner(M, np.add(G, G0, out=scratch)) + lam * l1(M)

    F = objective(W, GW)
    t = t_start
    tau = lam / L
    # a non-finite gradient entry meets a zero of the candidate as 0 * inf:
    # that NaN is caught by the finiteness check, not warned about
    with np.errstate(invalid="ignore"):
        for k in range(1, max_iter + 1):
            _shrink(np.subtract(Z, np.divide(GZ, L, out=scratch), out=scratch), tau, cand)
            G = obj.grad(cand)
            F_cand = objective(cand, G)
            if not finite(F_cand):
                raise NumericalError(f"non-finite gradient or objective at iteration {k}")
            accepted = live & (F_cand <= F)
            F = select(accepted, F_cand, F)
            t_new = 0.5 * (1.0 + sqrt(1.0 + 4.0 * t * t))
            b = (t - 1.0) / t_new
            kept, rejected = split(accepted)
            step = np.subtract(cand, W, out=scratch)
            rel = sqrt(inner(step, step)) / larger(1.0, sqrt(inner(W, W)))
            np.add(cand, np.multiply(step, b, out=Z), out=Z)
            np.add(G, np.multiply(np.subtract(G, GW, out=scratch), b, out=GZ), out=GZ)
            if rejected is not None:  # restart: Z, GZ = W, GW and t = 1
                Z[rejected] = W[rejected]
                GZ[rejected] = GW[rejected]
                cand[rejected] = W[rejected]  # cand now holds W_new
            if kept is not None:
                GW = keep_gradient(GW, G, kept)
            W, cand = cand, W
            t = select(accepted, t_new, t_start)
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

    Every iterate stays in the column space of 2 V Xcoef^T, whose dimension
    is at most k: D-steps multiply on the right, and the svt of a matrix
    keeps its column space. So the call takes one reduced QR,
    Q R = 2 V Xcoef^T, and sweeps the coordinates D = Q D~, Z = Q Z~,
    U = Q U~, which are min(d, k) x k matrices, with R in place of
    2 V Xcoef^T. Q has orthonormal columns, so Frobenius norms and the
    svt commute with it.

    After each sweep it takes the primal residual r = ||D - Z||_F and the
    dual residual s = rho ||Z - Z_prev||_F, and stops when both

        r <= sqrt(d k) eps + eps max(||D||_F, ||Z||_F)
        s <= sqrt(d k) eps + eps rho ||U||_F

    hold, eps = ADMM_TOL (Boyd et al., Distributed Optimization and
    Statistical Learning via ADMM, 2011, section 3.3.1), or after ``iters``
    sweeps. Returns Q Z~, an exact svt image. With return_residuals the
    per-sweep pairs (r, s) come back as a list. With no code rows (k = 0)
    the first sweep stops with r = s = 0 and the result is d x 0.
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
    Q, R = np.linalg.qr(2.0 * (V @ Xcoef.T))
    floor = np.sqrt(d * k) * ADMM_TOL
    Z = np.zeros(R.shape)
    U = np.zeros(R.shape)
    residuals = []
    for sweep in range(1, iters + 1):
        D = (R + rho * (Z - U)) @ Ginv
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
    Z = Q @ Z
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
