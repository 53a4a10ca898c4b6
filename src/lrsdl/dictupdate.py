"""Dictionary updates: per-class quadratic problems solved by ODL column
sweeps, and the shared dictionary solved by nuclear-norm ADMM.

The class-c subproblem collects every fidelity term containing D_c into

    min_D  tr(D^T D A) - 2 tr(D^T B)   s.t. column norms <= 1

with A the code Gram and B the data correlation, the pair odl_update takes
as plain arrays and checks; both are read off one Gram pair for all classes
(class_dict_gram, which trusts the shapes its caller checked). The shared
dictionary fits the shared-layer target V = Y - 1/2 D M(X)
(gradients.residual_matrices) with a nuclear-norm penalty,

    min_D0  ||V - D0 X0||_F^2 + eta ||D0||_*,

the same V whose Gram pair B = 2 D0^T V drives the shared codes. This is
the training objective up to terms without D0 (the two residuals holding
D0 X0 average to V), so update_shared_dict keeps the current D0 when its
candidate scores higher. With k0 = 0 every shared array is empty and the
step returns a d x 0 matrix.
"""

import logging
import math

import numpy as np

from .data import block_diagonal
from .errors import DimensionError, NumericalError
from .gradients import nuclear_term
from .prox import admm_nuclear

log = logging.getLogger(__name__)

DEAD_ATOM_TOL = 1e-10
ODL_SWEEPS = 2  # column sweeps per class dictionary refit
ADMM_RHO = 1.0  # ADMM penalty of the shared-dictionary update


def class_dict_gram(coefs, shifted, sizes):
    """Gram pair (F, E) of the class-dictionary step for shifted data Ys and
    codes in C equal row blocks and the class column blocks of `sizes`:

        F = M(X X^T),  E = Ys M(X)^T,  M(A) = A + blockdiag(A),

    so the summed fidelity is tr(F D^T D) - 2 tr(E D^T) plus a constant in
    D. With every other class dictionary held fixed, class c's problem is
    the odl_update pair A = F_cc, B = E_c - sum_{i != c} D_i F_ic.
    """
    X, C = coefs.X, len(sizes)
    XXt = X @ X.T
    MX = X + block_diagonal(X, sizes)
    return XXt + block_diagonal(XXt, [X.shape[0] // C] * C), shifted @ MX.T


def _quad_value(A, B, D):
    """tr(D^T D A) - 2 tr(D^T B), the class-dictionary subproblem."""
    return float(np.sum((D @ A) * D) - 2.0 * np.sum(D * B))


def count_dead_atoms(A):
    """Atoms whose code energy, the diagonal of the code Gram A, is too small."""
    return int(np.sum(np.diag(A) <= DEAD_ATOM_TOL))


def odl_update(A, B, D_init):
    """ODL_SWEEPS block-coordinate column sweeps for
    min tr(D^T D A) - 2 tr(D^T B) over d x k dictionaries D with column
    norms <= 1, for a k x k code Gram A and a d x k correlation B.

    Each column j with code energy A_jj above DEAD_ATOM_TOL moves to

        u = (B_j - D A_j) / A_jj + d_j,   d_j = u / max(||u||, 1)

    dead atoms are left untouched. The inner objective must not increase
    across sweeps (checked, since the update is exact per column), and a
    non-finite A, B or D_init raises NumericalError through its start value.
    """
    D = np.array(D_init, dtype=float)
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    if D.ndim != 2 or B.shape != D.shape or A.shape != (D.shape[1],) * 2:
        raise DimensionError(f"A {A.shape}, B {B.shape} do not fit dictionary {D.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        prev = _quad_value(A, B, D)
    if not np.isfinite(prev):
        raise NumericalError("dictionary subproblem is non-finite at the start")
    for _ in range(ODL_SWEEPS):
        for j in range(D.shape[1]):
            ajj = A[j, j]
            if ajj <= DEAD_ATOM_TOL:
                continue
            u = (B[:, j] - D @ A[:, j]) / ajj + D[:, j]
            nu = math.sqrt(float(u.dot(u)))
            if nu == 0:
                continue
            D[:, j] = u / max(nu, 1.0)
        cur = _quad_value(A, B, D)
        if cur > prev + 1e-10 * max(1.0, abs(prev)):
            raise NumericalError("dictionary sweep increased its objective")
        prev = cur
    return D


def _shared_value(V, X0, D, eta):
    """||V - D X0||_F^2 + eta ||D||_*, the shared-dictionary subproblem."""
    with np.errstate(over="ignore", invalid="ignore"):
        fit = float(np.sum((V - D @ X0) ** 2))
    if not np.isfinite(fit):
        raise NumericalError("shared-dictionary fit is non-finite")
    return fit + nuclear_term(D, eta)


def update_shared_dict(V, X0, D0, eta, iters):
    """Refit the shared dictionary to the target V under a nuclear-norm
    penalty (ADMM, penalty ADMM_RHO), rescale any column with norm above 1
    back to the unit sphere (rank preserving), and return the current D0
    instead when that candidate has the higher subproblem value. Logs, at
    debug level, the ADMM sweeps used, whether the solve met its tolerance
    (admm_nuclear's verdict, also on the last allowed sweep) or stopped on
    the ``iters`` cap, the final residuals, and whether the candidate was
    kept."""
    cand, residuals, converged = admm_nuclear(V, X0, eta, ADMM_RHO, iters)
    norms = np.linalg.norm(cand, axis=0)
    cand = cand / np.where(norms > 1.0, norms, 1.0)
    kept = _shared_value(V, X0, cand, eta) <= _shared_value(V, X0, D0, eta)
    r, s = residuals[-1]
    stop = "tolerance" if converged else "cap"
    log.debug(
        "shared-dictionary ADMM: %d of %d sweeps, stopped on %s, r=%.3g s=%.3g, candidate %s",
        len(residuals), iters, stop, r, s, "kept" if kept else "rejected",
    )
    return cand if kept else D0
