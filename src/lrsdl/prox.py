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

from .errors import POSITIVE, DimensionError, NumericalError, check_number, check_real


@dataclass(frozen=True)
class SmoothObjective:
    """Smooth quadratic part g of a composite objective g(W) + lam * ||W||_1.

    grad maps a matrix to its gradient, which must be affine (g is a
    quadratic), and lipschitz bounds its Lipschitz constant. per_column
    marks the columns of W as independent problems, each its own safeguard
    block when there are two or more. fista never calls value: it steps
    through prox points M - grad(M) / lipschitz, combined as the points are
    because grad is affine, takes g(M) - g(0) as 1/2 <M, grad(M) + grad(0)>,
    and reads the l1 term of a candidate off the clip of its shrink.

    No coding site sets value or raw_grad; both serve the benchmark tracer,
    which wraps grad and value through dataclasses.replace and counts grad
    calls as iterations. raw_grad is the map for the two calls fista makes
    outside its iterations: it defaults to grad and the replace keeps it,
    so the wrapped grad sees exactly one call per iteration.
    """

    grad: Callable
    lipschitz: float
    value: Callable | None = None
    per_column: bool = False
    raw_grad: Callable | None = None

    def __post_init__(self):
        check_number("lipschitz", self.lipschitz, POSITIVE)
        if self.raw_grad is None:
            object.__setattr__(self, "raw_grad", self.grad)

    @classmethod
    def quadratic(cls, H, B, lipschitz, fisher=None, per_column=False):
        """Objective of g(W) = 1/2 <W, H W> - <B, W> from its Gram pair:
        the gradient is H W - B, a product with the small matrix H, formed
        in the product's own array.

        fisher, a pair (Q, S) of matrices, adds the product W Q S to the
        gradient, the spread by S formed in one array kept for every call.
        That map W -> W Q S must be symmetric, so g stays a quadratic with
        gradient -B at 0.
        """
        spread = None if fisher is None else np.empty((H.shape[0], fisher[1].shape[1]))

        def grad(W):
            G = H @ W
            G -= B
            if fisher is not None:
                G += np.matmul(W @ fisher[0], fisher[1], out=spread)
            return G

        return cls(grad=grad, lipschitz=lipschitz, per_column=per_column)


def soft_threshold(W, tau):
    """Entrywise shrinkage: sign(w) * max(|w| - tau, 0), formed as
    W - clip(W, -tau, tau), the clip as min(max(W, -tau), tau), in one
    temporary.

    The proximal operator of tau * ||.||_1. Entries with |w| <= tau map to
    exactly zero. fista shrinks through the same _clip in place; tests check
    its steps against this standalone form. W holds real, finite numbers
    (errors.check_real; DataError otherwise).
    """
    check_number("tau", tau, 0)
    W = check_real(W, "array")
    clip = _clip(W, tau, None)
    return np.subtract(W, clip, out=clip)


def _clip(W, tau, out):
    """clip(W, -tau, tau) of a float array W by a checked tau >= 0."""
    return np.minimum(np.maximum(W, -tau, out=out), tau, out=out)


def _pick(keep, a, b):
    return a if keep else b


FISTA_TOL = 1e-6  # relative iterate change that ends every coding solve


def fista(obj, lam, W0, max_iter=100, tol=FISTA_TOL, check_every=1):
    """Accelerated proximal gradient descent for g(W) + lam * ||W||_1.

    Args:
        obj: SmoothObjective with a quadratic g (affine gradient).
        lam: l1 weight, finite and >= 0.
        W0: warm start of real, finite numbers (copied, never modified);
            DataError otherwise.
        max_iter: iteration budget, an integer >= 1.
        tol: stop when the relative iterate change
            ||W_k - W_{k-1}||_F / max(1, ||W_{k-1}||_F) drops below tol
            on an accepted step; finite and >= 0.
        check_every: test the stop rule only on iterations k that are
            multiples of it, an integer >= 1; a block then stops on one
            of those iterations or at the budget.

    Returns the final iterate. A candidate that would increase the
    composite objective is rejected: the previous iterate is kept and the
    momentum restarts, Z = W and t = 1, so the next candidate is a plain
    proximal gradient step from W (the function scheme of O'Donoghue and
    Candes, Adaptive restart for accelerated gradient schemes, 2015).
    Recorded objective values are therefore non-increasing. An accepted
    candidate moves the momentum point to Z = cand + b (cand - W) with
    b = (t - 1) / t_new.

    The loop carries prox points P(M) = M - grad(M) / L in place of
    gradients: the iterate W with P(W), and P(Z) for a momentum point Z it
    never forms. The gradient is affine and the coefficients of Z sum to
    1, so P(Z) = P(cand) + b (P(cand) - P(W)), and a restart sets
    P(Z) = P(W). The candidate is the shrink P(Z) - clip(P(Z), -tau, tau)
    with tau = lam / L, and its clip gives the l1 term as well: the clip
    is tau sign(cand) wherever cand is nonzero, so lam ||cand||_1 =
    L <cand, clip>. The safeguard compares g(M) - g(0) + lam ||M||_1,
    with g(M) - g(0) = 1/2 <M, grad(M) + grad(0)>; only the warm start's
    l1 norm is summed directly, as <W0, sign(W0)>. Each iteration calls
    obj.grad once, at the candidate, and the gradients at W0 and at 0 come
    from obj.raw_grad, once per solve. A non-finite gradient entry makes
    the candidate's value non-finite (0 * inf is NaN), so checking that
    value checks the gradient too.

    The safeguard works on blocks: the whole matrix, or each column when
    obj.per_column is set and W has two or more columns (one column is one
    block either way). A column block is accepted or rejected, restarts
    and stops on its own values and its own relative change, with its own
    momentum weight t. A column that stops is written once into the
    result array, which only column-block solves allocate, and is no
    longer restored: it keeps stepping with the batch, its values unread,
    so the restart copies run only when a column is rejected on its own
    values. The solve ends when every block has stopped or the budget is
    spent, and columns still live at the budget are written last. The
    whole block ends the loop when it stops and returns W. A column
    block's inner products are summed by np.einsum, each column on its
    own, and its scalars are length-N vectors; the whole block keeps
    Python floats and bools. Both share one restart, a masked copy of P(W)
    into P(Z) and of W into the candidate where the block is rejected, and
    one stop rule. A block's t depends only on its own accepts and
    rejects, and the stop is tested on the same iterations in a batch as
    alone, so when grad computes each column by the same arithmetic in a
    batch as alone, each column takes the steps a solve of it alone
    takes, bar a safeguard test tied in its last bit.

    The loop runs in place: the iterates, prox points and scratch space,
    and a column-block solve's result, are allocated once per solve. Each
    array obj.grad returns is read within its iteration, then neither kept
    nor written to. The shrink threshold lam / L is checked once, before
    the loop.
    """
    check_number("lam", lam, 0)
    check_number("max_iter", max_iter, 1, integer=True)
    check_number("tol", tol, 0)
    check_number("check_every", check_every, 1, integer=True)
    L = obj.lipschitz
    W = check_real(W0, "warm start").copy()
    GW = obj.raw_grad(W)
    G0 = obj.raw_grad(np.zeros_like(W))
    cand, clip, scratch = (np.empty_like(W) for _ in range(3))
    if obj.per_column and W.ndim == 2 and W.shape[1] > 1:
        # one block per column, each column summed on its own

        def inner(A, B):
            return np.einsum("ij,ij->j", A, B)

        sqrt, larger, select, finite = np.sqrt, np.maximum, np.where, np.isfinite
        all_of, any_of = np.ndarray.all, np.ndarray.any
        live = np.ones(W.shape[1], dtype=bool)
        no_stop = np.zeros(W.shape[1], dtype=bool)
        t_start = np.ones(W.shape[1])
        out = np.empty_like(W)  # each column is written once, when it stops
    else:
        # the whole matrix is one block: plain Python scalars and bools

        def inner(A, B):
            return float(np.vdot(A, B))

        sqrt, larger, select, finite = math.sqrt, max, _pick, math.isfinite
        all_of = any_of = bool
        no_stop = False
        t_start = 1.0
        out = None  # the solve ends when the block stops and returns W

    F = 0.5 * inner(W, np.add(GW, G0, out=scratch)) + lam * inner(W, np.sign(W, out=clip))
    P_W = np.subtract(W, np.divide(GW, L, out=scratch))
    P_Z = P_W.copy()
    del GW  # the loop keeps prox points, not gradients
    t = t_start
    tau = lam / L
    # a non-finite gradient entry meets a zero of the candidate as 0 * inf:
    # that NaN is caught by the finiteness check, not warned about
    with np.errstate(invalid="ignore"):
        for k in range(1, max_iter + 1):
            np.subtract(P_Z, _clip(P_Z, tau, clip), out=cand)
            G = obj.grad(cand)
            F_cand = 0.5 * inner(cand, np.add(G, G0, out=scratch)) + L * inner(cand, clip)
            if not all_of(finite(F_cand)):
                raise NumericalError(f"non-finite gradient or objective at iteration {k}")
            accepted = F_cand <= F
            F = select(accepted, F_cand, F)
            t_new = 0.5 * (1.0 + sqrt(1.0 + 4.0 * t * t))
            b = (t - 1.0) / t_new
            stopped = no_stop
            if k % check_every == 0:  # the stop test
                step = np.subtract(cand, W, out=scratch)
                rel = sqrt(inner(step, step)) / larger(1.0, sqrt(inner(W, W)))
                stopped = accepted & (rel < tol)
            P_C = np.subtract(cand, np.divide(G, L, out=scratch), out=scratch)
            np.add(P_C, np.multiply(np.subtract(P_C, P_W, out=P_Z), b, out=P_Z), out=P_Z)
            if not all_of(accepted):  # restart: P(Z) = P(W) and t = 1
                rejected = np.logical_not(accepted)
                np.copyto(P_Z, P_W, where=rejected)
                np.copyto(P_C, P_W, where=rejected)
                np.copyto(cand, W, where=rejected)  # so the swaps below keep W, P(W)
            W, cand = cand, W
            P_W, scratch = P_C, P_W
            t = select(accepted, t_new, t_start)
            if any_of(stopped):
                if out is None:
                    break
                stopped &= live  # the columns that stop here
                np.copyto(out, W, where=stopped)
                live ^= stopped
                if not live.any():
                    break
    if out is None:
        return W
    np.copyto(out, W, where=live)  # the columns still live at the budget
    return out


def svt(M, tau):
    """Singular value thresholding: U max(S - tau, 0) V^T.

    The proximal operator of tau * ||.||_* (nuclear norm).
    """
    check_number("tau", tau, 0)
    M = check_real(M, "matrix")
    if M.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {M.shape}")
    if min(M.shape) == 0:
        return M.copy()
    try:
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc
    s = np.maximum(s - tau, 0.0)
    return (U * s) @ Vt


ADMM_TOL = 1e-8  # absolute and relative residual tolerance of admm_nuclear


def admm_nuclear(V, Xcoef, eta, rho, iters=100):
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
    sweeps. Returns (Z, residuals, converged): Z = Q Z~, an exact svt image,
    the per-sweep pairs (r, s) as a list, and whether the tolerance was met,
    which it may be on the last allowed sweep. With no code rows (k = 0) the
    first sweep stops with r = s = 0, converged, and Z is d x 0.
    """
    V = check_real(V, "target V")
    Xcoef = check_real(Xcoef, "codes Xcoef")
    if V.ndim != 2 or Xcoef.ndim != 2 or V.shape[1] != Xcoef.shape[1]:
        raise DimensionError(
            f"incompatible shapes {V.shape} and {Xcoef.shape} (columns must match)"
        )
    check_number("eta", eta, 0)
    check_number("rho", rho, POSITIVE)
    check_number("iters", iters, 1, integer=True)
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
        converged = bool(
            r <= floor + ADMM_TOL * max(np.linalg.norm(D), np.linalg.norm(Z))
            and s <= floor + ADMM_TOL * rho * np.linalg.norm(U)
        )
        if converged:
            break
    return Q @ Z, residuals, converged


def power_iteration_lipschitz(G):
    """Step-size bound of a coding solve: the largest eigenvalue of the
    symmetric PSD Gram matrix G, from np.linalg.eigvalsh, floored at 1e-12
    (a zero or empty matrix returns the floor).

    Every coding site passes the H it hands SmoothObjective.quadratic, so L
    is exactly lambda_max(H). The name is kept because the benchmark
    tracer wraps this function by name; no power iteration is left.
    """
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {G.shape}")
    if not np.isfinite(G).all():
        raise NumericalError("matrix contains non-finite values")
    return max(float(np.linalg.eigvalsh(G).max(initial=0.0)), 1e-12)
