"""Objective terms and gradients for the joint sparse-coding problems.

The discriminative fidelity for class c is

    r_c(X) = ||Ys_c - D X_c||^2 + ||Ys_c - D_c X_c^c||^2
             + sum_{i != c} ||D_i X_c^i||^2

where Ys is the data with the shared-dictionary reconstruction subtracted
(Ys = Y - D_shared X0). Stacking all three pieces row-wise gives a single
least-squares system whose normal matrix is D^T D plus a block-diagonal of
the per-class Grams; build_augmented_gram forms that Gram pair so the big
stacked matrices are never materialized.

The Fisher-style penalty on the codes is

    f(X) = sum_c (||X_c - M_c||^2 - ||M_c - M||^2) + ||X||^2

with M_c / M the tiled class / global code means, plus ||X0 - M0||^2 for
the shared codes.

The shared layer fits one target, V = Y - 1/2 D M(X) (residual_matrices):
the two residuals Ybar = Y - D X and Ytilde = Y - D blockdiag(X) that hold
D0 X0 sum to 2 V, so the shared codes solve the Gram pair G = 2 D0^T D0,
B = 2 D0^T V and the shared dictionary fits V. With k0 = 0 the shared
arrays are empty and every shared term is an exact zero.

Each coding problem's Gram pair (H, B) is formed by one function that its
solver calls (gram_class_codes, gram_shared_codes, gram_test_code); the
gradient checks' grad_* helpers are H X - B of the same pairs.
"""

from dataclasses import dataclass

import numpy as np

from .data import block_diagonal, check_class_layout, class_means, fisher_mean_map
from .errors import DimensionError, NumericalError


def build_augmented_gram(dicts, shifted, n_c):
    """Class-code Gram pair (M(D^T D), M(D^T Ys)) for shifted data Ys (class
    contiguous), M(A) = A + blockdiag(A) (:func:`~lrsdl.data.block_diagonal`)."""
    shifted = np.asarray(shifted, dtype=float)
    if shifted.shape != (dicts.d, dicts.C * n_c):
        raise DimensionError(
            f"shifted data shape {shifted.shape} does not match "
            f"({dicts.d}, {dicts.C * n_c})"
        )
    D = dicts.D
    gram = D.T @ D
    corr = D.T @ shifted
    return gram + block_diagonal(gram, dicts.C), corr + block_diagonal(corr, dicts.C)


def gram_class_codes(dicts, shifted, n_c, lambda2):
    """Class-code Gram pair (H, B) = (M(D^T D) + 2 lambda2 I, M(D^T Ys)):
    the fidelity pair of :func:`build_augmented_gram` with the 2 lambda2 X
    part of the Fisher gradient joining H. The rest of that gradient, the
    class-mean part, is the product X Q with Q from
    :func:`~lrsdl.data.fisher_mean_map`."""
    G, corr = build_augmented_gram(dicts, shifted, n_c)
    return G + 2.0 * lambda2 * np.eye(dicts.K), corr


def _pair_gradient(pair, X):
    """H X - B of a Gram pair (H, B) at codes X of B's shape."""
    H, B = pair
    X = np.asarray(X, dtype=float)
    if X.shape != B.shape:
        raise DimensionError(f"codes shape {X.shape} != {B.shape}")
    return H @ X - B


def grad_fidelity(gram, X):
    """Gradient of the summed fidelity's smooth quadratic in the codes X,
    for gram = build_augmented_gram(...)."""
    return _pair_gradient(gram, X)


def grad_fisher(X, labels):
    """Gradient of f(X): 4 X + 2 M - 4 [M_1 .. M_C], that is 4 X plus the
    class-mean product X Q, Q = :func:`~lrsdl.data.fisher_mean_map` with
    lambda2 = 2.

    The class/global means are recomputed from X, so the gradient
    differentiates through them. The labels must be in the class layout.
    """
    X = np.asarray(X, dtype=float)
    C = check_class_layout(labels, X.shape[1])
    K, N = X.shape
    mean_part = X @ fisher_mean_map(C, N // C, C, 2.0)
    G = (4.0 * X).reshape(K, C, N // C) + mean_part[:, :, None]
    return G.reshape(K, N)


def _fisher_value(X, C):
    """fisher_value for codes in the class layout with C classes."""
    K, N = X.shape
    m, cm = X.mean(axis=1), class_means(X, C)
    within = float(np.sum((X.reshape(K, C, N // C) - cm[:, :, None]) ** 2))
    between = (N // C) * float(np.sum((cm - m[:, None]) ** 2))
    return within - between + float(np.sum(X * X))


def fisher_value(X, labels):
    """f(X) itself (the X part of the code penalty, no lambda factor)."""
    X = np.asarray(X, dtype=float)
    return _fisher_value(X, check_class_layout(labels, X.shape[1]))


def _gram_form(G, corr, mean, lambda2):
    """Gram pair (H, B) of 1/2 <X, G X> - <corr, X> + lambda2/2 ||X_p - mean||^2,
    a least-squares fit plus a pull of the last p = len(mean) code rows
    toward mean (broadcast over the columns of corr):
    H = G + lambda2 [0 0; 0 I] and B = corr + lambda2 [0; mean]."""
    n, p = G.shape[0], np.shape(mean)[0]
    H = np.array(G, dtype=float)
    H[n - p :, n - p :] += lambda2 * np.eye(p)
    B = np.array(corr, dtype=float)
    B[n - p :] += lambda2 * mean
    return H, B


def gram_shared_codes(D0, V, m0, lambda2):
    """Shared-code Gram pair: G = 2 D0^T D0 and corr = 2 D0^T V for the
    target V of :func:`residual_matrices`, pulled toward the code mean m0,
    a (k0, 1) column or a (k0, N) tile."""
    k0 = D0.shape[1]
    if V.shape[0] != D0.shape[0] or np.shape(m0) not in ((k0, 1), (k0, V.shape[1])):
        raise DimensionError(f"shapes D0={D0.shape} V={V.shape} m0={np.shape(m0)}")
    return _gram_form(2.0 * (D0.T @ D0), 2.0 * (D0.T @ V), m0, lambda2)


def grad_shared_codes(D0, Ysum, X0, M0, lambda2):
    """2 D0^T D0 X0 - D0^T Ysum + lambda2 (X0 - M0) for Ysum = Ybar + Ytilde
    = 2 V: H X0 - B of :func:`gram_shared_codes` (halving Ysum is exact)."""
    return _pair_gradient(gram_shared_codes(D0, 0.5 * Ysum, M0, lambda2), X0)


def gram_test_code(dicts, Y, m0, lambda2):
    """Test-coding Gram pair of 1/2 ||y - D_total x||^2 + lambda2/2 ||x0 - m0||^2
    for one sample Y (d,) or each column of a batch Y (d, N):
    G = D_total^T D_total and corr = D_total^T Y, so H acts on each column
    separately and one product serves all samples."""
    Y, m0 = np.asarray(Y, dtype=float), np.asarray(m0, dtype=float)
    Dt = dicts.D_total
    if Y.ndim not in (1, 2) or Y.shape[0] != dicts.d or m0.shape != (dicts.k0,):
        raise DimensionError(
            f"samples of shape {Y.shape} or shared mean of shape {m0.shape} "
            f"do not match dictionary {Dt.shape}"
        )
    m0 = m0.reshape((-1,) + (1,) * (Y.ndim - 1))
    return _gram_form(Dt.T @ Dt, Dt.T @ Y, m0, lambda2)


def grad_test_code(dicts, y, xbar, m0, lambda2):
    """H xbar - B of :func:`gram_test_code`: the test-coding gradient at the
    code xbar of one sample y (d,), or at codes (K + k0, N) of a batch."""
    return _pair_gradient(gram_test_code(dicts, y, m0, lambda2), xbar)


def residual_matrices(data, dicts, coefs):
    """The shared-layer target V = Y - 1/2 D M(X), M(X) = X + blockdiag(X):
    the mean of Ybar = Y - D X and Ytilde = Y - D blockdiag(X), whose
    class-c columns are Y_c - D_c X_c^c. One product with D."""
    _check_shapes(data, dicts, coefs)
    return data.Y - 0.5 * (dicts.D @ (coefs.X + block_diagonal(coefs.X, data.C)))


def fidelity_value(shifted, dicts, X, n_c):
    """1/2 sum_c r_c(X) evaluated against shifted data Ys."""
    shifted = np.asarray(shifted, dtype=float)
    C = dicts.C
    if shifted.shape != (dicts.d, C * n_c) or X.shape[0] != dicts.K:
        raise DimensionError("shifted data or codes do not match the dictionaries")
    total = float(np.sum((shifted - dicts.D @ X) ** 2))
    own = 0.0
    cross = 0.0
    for i in range(1, C + 1):
        Wi = dicts.class_dict(i) @ X[dicts.row_block(i), :]
        cols = slice((i - 1) * n_c, i * n_c)
        Wii = Wi[:, cols]
        own += float(np.sum((shifted[:, cols] - Wii) ** 2))
        cross += float(np.sum(Wi * Wi)) - float(np.sum(Wii * Wii))
    return 0.5 * (total + own + cross)


@dataclass(frozen=True)
class ObjectiveTerms:
    """Additive pieces of the training objective."""

    fidelity: float
    l1: float
    fisher: float
    nuclear: float

    @property
    def total(self):
        return self.fidelity + self.l1 + self.fisher + self.nuclear


def _check_shapes(data, dicts, coefs):
    if dicts.d != data.d or dicts.C != data.C:
        raise DimensionError(
            f"dictionary ({dicts.d}, C={dicts.C}) does not match data "
            f"({data.d}, C={data.C})"
        )
    if coefs.K != dicts.K or coefs.k0 != dicts.k0:
        raise DimensionError(
            f"codes (K={coefs.K}, k0={coefs.k0}) do not match dictionaries "
            f"(K={dicts.K}, k0={dicts.k0})"
        )
    if coefs.N != data.N or coefs.n_c != data.n_c:
        raise DimensionError("code columns do not match the dataset")


def nuclear_term(D0, eta):
    """eta ||D0||_*; NumericalError when the SVD fails or it is non-finite."""
    try:
        svals = np.linalg.svd(D0, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("nuclear term: SVD failed") from exc
    nuclear = eta * float(svals.sum())
    if not np.isfinite(nuclear):
        raise NumericalError("nuclear term is non-finite")
    return nuclear


def objective_terms(data, dicts, coefs, hyper):
    """Evaluate every objective term literally from its definition."""
    _check_shapes(data, dicts, coefs)
    shifted = data.Y - dicts.shared_dict @ coefs.X0
    fidelity = fidelity_value(shifted, dicts, coefs.X, data.n_c)
    if not np.isfinite(fidelity):
        raise NumericalError("fidelity term is non-finite")

    l1 = hyper.lambda1 * (float(np.abs(coefs.X).sum()) + float(np.abs(coefs.X0).sum()))
    if not np.isfinite(l1):
        raise NumericalError("l1 term is non-finite")

    X0 = coefs.X0
    f = _fisher_value(coefs.X, data.C)
    f += float(np.sum((X0 - X0.mean(axis=1)[:, None]) ** 2))
    fisher = 0.5 * hyper.lambda2 * f
    if not np.isfinite(fisher):
        raise NumericalError("fisher term is non-finite")

    nuclear = nuclear_term(dicts.shared_dict, hyper.eta)
    return ObjectiveTerms(fidelity=fidelity, l1=l1, fisher=fisher, nuclear=nuclear)


def lrsdl_objective(data, dicts, coefs, hyper):
    """Total training objective (sum of the four terms)."""
    return objective_terms(data, dicts, coefs, hyper).total
