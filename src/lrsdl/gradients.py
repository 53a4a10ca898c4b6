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
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, NumericalError


def _check_labels(labels):
    """Return (C, n_c) for an equal-size label vector, else DomainError."""
    labels = np.asarray(labels, dtype=int)
    C = int(labels.max())
    counts = np.bincount(labels, minlength=C + 1)[1:]
    if (counts == 0).any() or len(set(counts.tolist())) != 1:
        raise DomainError(f"unequal or empty class sizes {counts.tolist()}")
    return C, int(counts[0])


def _column_means(X, labels):
    """Global mean (K,) and per-class means (K x C) of code columns."""
    labels = np.asarray(labels, dtype=int)
    C, n_c = _check_labels(labels)
    contiguous = np.array_equal(labels, np.repeat(np.arange(1, C + 1), n_c))
    if contiguous:
        class_means = X.reshape(X.shape[0], C, n_c).mean(axis=2)
    else:
        class_means = np.empty((X.shape[0], C))
        for c in range(1, C + 1):
            class_means[:, c - 1] = X[:, labels == c].mean(axis=1)
    return X.mean(axis=1), class_means


@dataclass(frozen=True)
class AugmentedGram:
    """Normal-equation pieces of the stacked fidelity system.

    gram is D^T D (K x K), class_grams the per-class D_c^T D_c blocks, and
    corr the assembled dictionary/data correlation: D^T Ys plus, in row
    block c and column block c, an extra D_c^T Ys_c.
    """

    gram: np.ndarray
    class_grams: tuple
    corr: np.ndarray
    k_c: int
    n_c: int
    combined: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # gram plus the block diagonal, materialized once; K is desk scale
        combined = np.array(self.gram)
        combined = 0.5 * (combined + combined.T)
        for i, Gc in enumerate(self.class_grams):
            rows = slice(i * self.k_c, (i + 1) * self.k_c)
            combined[rows, rows] += 0.5 * (Gc + Gc.T)
        object.__setattr__(self, "combined", combined)

    @property
    def C(self):
        return len(self.class_grams)

    def apply(self, X):
        """(D^T D + blockdiag(D_c^T D_c)) @ X for a K x m matrix X."""
        return self.combined @ X


def build_augmented_gram(dicts, shifted, n_c):
    """Assemble the AugmentedGram for shifted data (class contiguous)."""
    shifted = np.asarray(shifted, dtype=float)
    if shifted.shape != (dicts.d, dicts.C * n_c):
        raise DimensionError(
            f"shifted data shape {shifted.shape} does not match "
            f"({dicts.d}, {dicts.C * n_c})"
        )
    D = dicts.D
    corr = D.T @ shifted
    class_grams = []
    for c in range(1, dicts.C + 1):
        Dc = dicts.class_dict(c)
        class_grams.append(Dc.T @ Dc)
        rows = dicts.row_block(c)
        cols = slice((c - 1) * n_c, c * n_c)
        corr[rows, cols] += Dc.T @ shifted[:, cols]
    return AugmentedGram(
        gram=D.T @ D,
        class_grams=tuple(class_grams),
        corr=corr,
        k_c=dicts.k_c,
        n_c=n_c,
    )


def grad_fidelity(gram, X):
    """Gradient of the summed fidelity's smooth quadratic in the codes:
    (D^T D + blockdiag) X minus the assembled correlation."""
    X = np.asarray(X, dtype=float)
    if X.shape != gram.corr.shape:
        raise DimensionError(f"codes shape {X.shape} != {gram.corr.shape}")
    return gram.apply(X) - gram.corr


def grad_fisher(X, labels):
    """Gradient of f(X): 4 X + 2 M - 4 [M_1 .. M_C].

    The class/global means are recomputed from X, so the gradient
    differentiates through them.
    """
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if labels.shape != (X.shape[1],):
        raise DimensionError("labels length does not match code columns")
    m, class_means = _column_means(X, labels)
    return 4.0 * X + 2.0 * m[:, None] - 4.0 * class_means[:, labels - 1]


def fisher_value(X, labels):
    """f(X) itself (the X part of the code penalty, no lambda factor)."""
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels, dtype=int)
    _, n_c = _check_labels(labels)
    m, class_means = _column_means(X, labels)
    within = float(np.sum((X - class_means[:, labels - 1]) ** 2))
    between = n_c * float(np.sum((class_means - m[:, None]) ** 2))
    return within - between + float(np.sum(X * X))


def grad_shared_codes(D0, Ysum, X0, M0, lambda2):
    """Gradient of the shared-code quadratic:

        2 D0^T D0 X0 - D0^T (Ybar + Ytilde) + lambda2 (X0 - M0)

    where Ysum = Ybar + Ytilde is the sum of the two residual matrices and
    M0 is the (frozen) tiled shared-code mean.
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
    return 2.0 * (D0.T @ (D0 @ X0)) - D0.T @ Ysum + lambda2 * (X0 - M0)


def build_test_gram(dicts, Y, m0, lambda2):
    """Gram form (H, B) of the test-coding smooth part for one sample y
    (d,) or, summed over its columns y, a batch Y (d, N):

        1/2 ||y - D_total x||^2 + lambda2/2 ||x0 - m0||^2

    Its gradient in the code x (or code matrix X, one column per sample)
    is H X - B with

        H = D_total^T D_total + lambda2 [0 0; 0 I],
        B = D_total^T Y + lambda2 [0; m0 1^T],

    so H acts on each column separately and one product serves all samples.
    """
    Y = np.asarray(Y, dtype=float)
    m0 = np.asarray(m0, dtype=float)
    Dt = dicts.D_total
    if Y.ndim not in (1, 2) or Y.shape[0] != dicts.d or m0.shape != (dicts.k0,):
        raise DimensionError(
            f"samples of shape {Y.shape} or shared mean of shape {m0.shape} "
            f"do not match dictionary {Dt.shape}"
        )
    K = dicts.K
    H = Dt.T @ Dt
    H[K:, K:] += lambda2 * np.eye(dicts.k0)
    B = Dt.T @ Y
    B[K:] += lambda2 * m0.reshape((-1,) + (1,) * (Y.ndim - 1))
    return H, B


def grad_test_code(dicts, y, xbar, m0, lambda2):
    """Gradient D_total^T (D_total x - y) + lambda2 [0; x0 - m0] of the
    test-coding smooth part at one code, from :func:`build_test_gram`."""
    H, B = build_test_gram(dicts, y, m0, lambda2)
    return H @ np.asarray(xbar, dtype=float) - B


def residual_matrices(data, dicts, coefs):
    """(Ybar, Ytilde): Ybar = Y - D X, Ytilde_c = Y_c - D_c X_c^c."""
    _check_shapes(data, dicts, coefs)
    Ybar = data.Y - dicts.D @ coefs.X
    Ytilde = np.empty_like(data.Y)
    for c in range(1, dicts.C + 1):
        cols = data.class_columns(c)
        Ytilde[:, cols] = data.Y[:, cols] - dicts.class_dict(c) @ coefs.block(c, c)
    return Ybar, Ytilde


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

    f = fisher_value(coefs.X, data.labels)
    if coefs.k0:
        m0 = coefs.X0.mean(axis=1)
        f += float(np.sum((coefs.X0 - m0[:, None]) ** 2))
    fisher = 0.5 * hyper.lambda2 * f
    if not np.isfinite(fisher):
        raise NumericalError("fisher term is non-finite")

    if dicts.k0:
        try:
            svals = np.linalg.svd(dicts.shared_dict, compute_uv=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("nuclear term: SVD failed") from exc
        nuclear = hyper.eta * float(svals.sum())
    else:
        nuclear = 0.0
    if not np.isfinite(nuclear):
        raise NumericalError("nuclear term is non-finite")
    return ObjectiveTerms(fidelity=fidelity, l1=l1, fisher=fisher, nuclear=nuclear)


def lrsdl_objective(data, dicts, coefs, hyper):
    """Total training objective (sum of the four terms)."""
    return objective_terms(data, dicts, coefs, hyper).total
