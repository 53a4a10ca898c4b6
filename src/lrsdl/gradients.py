"""Objective terms and gradients for the joint sparse-coding problems.

The discriminative fidelity for class c is

    r_c(X) = ||Ys_c - D X_c||^2 + ||Ys_c - D_c X_c^c||^2
             + sum_{i != c} ||D_i X_c^i||^2

where Ys is the data with the shared-dictionary reconstruction subtracted
(Ys = Y - D_shared X0). Stacking all three pieces row-wise gives a single
least-squares system whose normal matrix is M(D^T D), M(A) = A + blockdiag(A)
(data.block_diagonal); every fidelity quantity, the Gram pairs, the shared
target V and the traced fidelity_value, is read off M, so the big stacked
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

Each coding problem's Gram pair (H, B) is formed by one function that its
solver calls (build_augmented_gram, gram_shared_codes, gram_test_code);
fista runs its gradient H X - B as the closure of SmoothObjective.quadratic.
Like residual_matrices and fidelity_value, each builder is handed the class
sizes, reads the rest off its arrays and checks nothing: its callers run
after check_shapes (learner._code_classes, objective_terms) or classify.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .data import block_diagonal, class_means
from .errors import DimensionError, NumericalError


def build_augmented_gram(dicts, shifted, sizes, lambda2):
    """Class-code Gram pair (H, B) = (M(D^T D) + 2 lambda2 I, M(D^T Ys)) for
    shifted data Ys in class column blocks of `sizes`, M(A) = A + blockdiag(A):
    the fidelity pair plus the 2 lambda2 X part of the Fisher gradient, whose
    class-mean part is X Q S (:func:`~lrsdl.data.fisher_mean_map`)."""
    D = dicts.D
    gram = D.T @ D
    corr = D.T @ shifted
    G = gram + block_diagonal(gram, [dicts.k_c] * dicts.C)
    # on the diagonal only: an overflowing 2 lambda2 leaves the rest finite
    G[np.diag_indices_from(G)] += 2.0 * lambda2
    return G, corr + block_diagonal(corr, sizes)


def fisher_value(X, sizes):
    """f(X) itself (the X part of the code penalty, no lambda factor) for codes
    X in the class layout `sizes`, each ||m_c - m||^2 weighed by n_c."""
    m, cm = X.mean(axis=1), class_means(X, sizes)
    within = float(np.sum((X - np.repeat(cm, sizes, axis=1)) ** 2))
    between = float(np.sum(np.sum((cm - m[:, None]) ** 2, axis=0) * sizes))
    return within - between + float(np.sum(X * X))


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
    target V of :func:`residual_matrices`, pulled toward the (k0, 1) code
    mean column m0."""
    return _gram_form(2.0 * (D0.T @ D0), 2.0 * (D0.T @ V), m0, lambda2)


def gram_test_code(dicts, Y, m0, lambda2):
    """Test-coding Gram pair of 1/2 ||y - D_total x||^2 + lambda2/2 ||x0 - m0||^2
    for each column y of a batch Y (d, N), one sample being a (d, 1) batch:
    G = D_total^T D_total and corr = D_total^T Y, so H acts on each column
    separately and one product serves all samples."""
    Dt = dicts.D_total
    return _gram_form(Dt.T @ Dt, Dt.T @ Y, m0[:, None], lambda2)


def residual_matrices(data, dicts, coefs):
    """The shared-layer target V = Y - 1/2 D M(X), M(X) = X + blockdiag(X):
    the mean of Ybar = Y - D X and Ytilde = Y - D blockdiag(X), whose
    class-c columns are Y_c - D_c X_c^c. One product with D."""
    return data.Y - 0.5 * (dicts.D @ (coefs.X + block_diagonal(coefs.X, data.sizes)))


def fidelity_value(shifted, dicts, X, sizes):
    """1/2 sum_c r_c(X) against shifted data Ys in class column blocks of `sizes`:
    1/2 (||Ys - D X||^2 + ||Ys - D B||^2 + <R, blockdiag(D^T D) R>) with
    B = blockdiag(X), the own codes X_c^c, and R = X - B, so the last term
    sums ||D_i X_c^i||^2 over i != c as squares, with no cancellation."""
    D, B = dicts.D, block_diagonal(X, sizes)
    R = X - B
    total = float(np.sum((shifted - D @ X) ** 2)) + float(np.sum((shifted - D @ B) ** 2))
    own = block_diagonal(D.T @ D, [dicts.k_c] * dicts.C)
    return 0.5 * (total + float(np.sum(R * (own @ R))))


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


def check_shapes(data, dicts, coefs):
    """Raise DimensionError unless data, dictionaries and codes agree in
    d, C, K = C k_c, k0 and N, which with the data's sizes fix the code blocks."""
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
    if coefs.N != data.N:
        raise DimensionError(f"{coefs.N} code columns do not match {data.N} samples")


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
    """Every objective term, literally from its definition: the one window
    on a fit, which calls it once per completed outer iteration and traces
    its terms. NumericalError names the first non-finite term."""
    check_shapes(data, dicts, coefs)
    X, X0 = coefs.X, coefs.X0
    f = fisher_value(X, data.sizes) + float(np.sum((X0 - X0.mean(axis=1)[:, None]) ** 2))
    terms = ObjectiveTerms(
        fidelity=fidelity_value(data.Y - dicts.shared_dict @ X0, dicts, X, data.sizes),
        l1=hyper.lambda1 * (float(np.abs(X).sum()) + float(np.abs(X0).sum())),
        fisher=0.5 * hyper.lambda2 * f,
        nuclear=nuclear_term(dicts.shared_dict, hyper.eta),
    )
    for name, value in asdict(terms).items():
        if not np.isfinite(value):
            raise NumericalError(f"{name} term is non-finite")
    return terms
