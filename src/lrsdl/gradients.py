"""Objective terms and gradients for the joint sparse-coding problems.

The discriminative fidelity for class c is

    r_c(X) = ||Ys_c - D X_c||^2 + ||Ys_c - D_c X_c^c||^2
             + sum_{i != c} ||D_i X_c^i||^2

where Ys is the data with the shared-dictionary reconstruction subtracted
(Ys = Y - D_shared X0). Stacking all three pieces row-wise gives a single
least-squares system whose normal matrix is D^T D plus a block-diagonal of
the per-class Grams; AugmentedGram holds that structure so the big stacked
matrices are never materialized.

The Fisher-style penalty on the codes is

    f(X) = sum_c (||X_c - M_c||^2 - ||M_c - M||^2) + ||X||^2

with M_c / M the tiled class / global code means, plus ||X0 - M0||^2 for
the shared codes.

The shared layer fits one target, V = Y - 1/2 D M(X) (residual_matrices):
the two residuals Ybar = Y - D X and Ytilde = Y - D blockdiag(X) that hold
D0 X0 sum to 2 V, so the shared codes solve the Gram pair G = 2 D0^T D0,
B = 2 D0^T V and the shared dictionary fits V. With k0 = 0 the shared
arrays are empty and every shared term is an exact zero.
"""

from dataclasses import dataclass

import numpy as np

from .data import block_diagonal, check_class_layout, class_means
from .errors import DimensionError, NumericalError


@dataclass(frozen=True)
class AugmentedGram:
    """Normal-equation pieces of the stacked fidelity system.

    With M(A) = A + blockdiag(A) (the C equal diagonal blocks of A, see
    :func:`~lrsdl.data.block_diagonal`), combined is M(D^T D) (K x K,
    symmetric) and corr is M(D^T Ys): D^T Ys plus, in row block c and
    column block c, an extra D_c^T Ys_c.
    """

    combined: np.ndarray
    corr: np.ndarray


def build_augmented_gram(dicts, shifted, n_c):
    """Assemble the AugmentedGram for shifted data (class contiguous)."""
    shifted = np.asarray(shifted, dtype=float)
    if shifted.shape != (dicts.d, dicts.C * n_c):
        raise DimensionError(
            f"shifted data shape {shifted.shape} does not match "
            f"({dicts.d}, {dicts.C * n_c})"
        )
    D = dicts.D
    gram = D.T @ D
    corr = D.T @ shifted
    return AugmentedGram(
        combined=gram + block_diagonal(gram, dicts.C),
        corr=corr + block_diagonal(corr, dicts.C),
    )


def grad_fidelity(gram, X):
    """Gradient of the summed fidelity's smooth quadratic in the codes:
    (D^T D + blockdiag) X minus the assembled correlation."""
    X = np.asarray(X, dtype=float)
    if X.shape != gram.corr.shape:
        raise DimensionError(f"codes shape {X.shape} != {gram.corr.shape}")
    return gram.combined @ X - gram.corr


def grad_fisher(X, labels):
    """Gradient of f(X): 4 X + 2 M - 4 [M_1 .. M_C].

    The class/global means are recomputed from X, so the gradient
    differentiates through them. The labels must be in the class layout.
    """
    X = np.asarray(X, dtype=float)
    C = check_class_layout(labels, X.shape[1])
    K, N = X.shape
    G = (4.0 * X + 2.0 * X.mean(axis=1)[:, None]).reshape(K, C, N // C)
    return (G - 4.0 * class_means(X, C)[:, :, None]).reshape(K, N)


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


def gram_form(G, corr, mean, lambda2):
    """Gram form (H, B) of a least-squares fit plus a lambda2 pull of the
    last p code rows toward a mean (p = len(mean); mean broadcasts over the
    columns of corr):

        1/2 <X, G X> - <corr, X> + lambda2/2 ||X_p - mean||^2

    where G = w A^T A and corr = A^T Y come from a dictionary A, data Y
    and a weight w. Its gradient is H X - B with

        H = G + lambda2 [0 0; 0 I],  B = corr + lambda2 [0; mean],

    so a solve needs only products with the small matrix H.
    """
    n, p = G.shape[0], np.shape(mean)[0]
    H = np.array(G, dtype=float)
    H[n - p :, n - p :] += lambda2 * np.eye(p)
    B = np.array(corr, dtype=float)
    B[n - p :] += lambda2 * mean
    return H, B


def grad_shared_codes(D0, Ysum, X0, M0, lambda2):
    """Gradient of the shared-code quadratic:

        2 D0^T D0 X0 - D0^T (Ybar + Ytilde) + lambda2 (X0 - M0)

    where Ysum = Ybar + Ytilde = 2 V is the sum of the two residual
    matrices and M0 is the (frozen) tiled shared-code mean. It is H X0 - B
    for the :func:`gram_form` of G = 2 D0^T D0 and corr = D0^T Ysum.
    """
    D0 = np.asarray(D0, dtype=float)
    X0 = np.asarray(X0, dtype=float)
    Ysum = np.asarray(Ysum, dtype=float)
    M0 = np.asarray(M0, dtype=float)
    if D0.shape[1] != X0.shape[0] or Ysum.shape != (D0.shape[0], X0.shape[1]):
        raise DimensionError(
            f"incompatible shapes D0={D0.shape} X0={X0.shape} Ysum={Ysum.shape}"
        )
    if M0.shape != X0.shape:
        raise DimensionError(f"mean tile shape {M0.shape} != codes {X0.shape}")
    H, B = gram_form(2.0 * (D0.T @ D0), D0.T @ Ysum, M0, lambda2)
    return H @ X0 - B


def grad_test_code(dicts, y, xbar, m0, lambda2):
    """Gradient at the code xbar of the test-coding smooth part for one
    sample y (d,), or, summed over its columns, a batch y (d, N) with codes
    xbar (K + k0, N):

        1/2 ||y - D_total x||^2 + lambda2/2 ||x0 - m0||^2

    It is H xbar - B for the :func:`gram_form` of G = D_total^T D_total and
    corr = D_total^T y:

        H = D_total^T D_total + lambda2 [0 0; 0 I],
        B = D_total^T y + lambda2 [0; m0 1^T],

    so H acts on each column separately and one product serves all samples.
    """
    y = np.asarray(y, dtype=float)
    m0 = np.asarray(m0, dtype=float)
    Dt = dicts.D_total
    if y.ndim not in (1, 2) or y.shape[0] != dicts.d or m0.shape != (dicts.k0,):
        raise DimensionError(
            f"samples of shape {y.shape} or shared mean of shape {m0.shape} "
            f"do not match dictionary {Dt.shape}"
        )
    H, B = gram_form(
        Dt.T @ Dt, Dt.T @ y, m0.reshape((-1,) + (1,) * (y.ndim - 1)), lambda2
    )
    return H @ np.asarray(xbar, dtype=float) - B


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

    try:
        svals = np.linalg.svd(dicts.shared_dict, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("nuclear term: SVD failed") from exc
    nuclear = hyper.eta * float(svals.sum())
    if not np.isfinite(nuclear):
        raise NumericalError("nuclear term is non-finite")
    return ObjectiveTerms(fidelity=fidelity, l1=l1, fisher=fisher, nuclear=nuclear)


def lrsdl_objective(data, dicts, coefs, hyper):
    """Total training objective (sum of the four terms)."""
    return objective_terms(data, dicts, coefs, hyper).total
