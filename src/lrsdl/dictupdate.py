"""Dictionary updates: per-class quadratic problems solved by ODL column
sweeps, and the shared dictionary solved by nuclear-norm ADMM.

The class-c subproblem collects every fidelity term containing D_c into

    min_D  tr(D^T D A) - 2 tr(D^T B)   s.t. column norms <= 1

with A the code Gram and B the data correlation (QuadDictProblem); both
are read off one Gram pair for all classes (class_dict_gram). The
shared dictionary fits the shared-layer target V = Y - 1/2 D M(X)
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
from dataclasses import dataclass

import numpy as np

from .data import block_diagonal
from .errors import DataError, DimensionError, NumericalError, ParameterError
from .gradients import nuclear_term
from .prox import admm_nuclear

log = logging.getLogger(__name__)

DEAD_ATOM_TOL = 1e-10
ODL_SWEEPS = 2  # column sweeps per class dictionary refit
ADMM_RHO = 1.0  # ADMM penalty of the shared-dictionary update


@dataclass(frozen=True)
class QuadDictProblem:
    """Quadratic dictionary subproblem min tr(D^T D A) - 2 tr(D^T B)."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionError(f"A must be square, got {A.shape}")
        if B.ndim != 2 or B.shape[1] != A.shape[0]:
            raise DimensionError(f"B shape {B.shape} does not match A {A.shape}")
        if (A.size and not np.isfinite(A).all()) or (
            B.size and not np.isfinite(B).all()
        ):
            raise DataError("subproblem matrices contain NaN or Inf")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    def objective(self, D):
        return float(np.sum((D @ self.A) * D) - 2.0 * np.sum(D * self.B))


def class_dict_gram(coefs, shifted):
    """Gram pair (F, E) of the class-dictionary step for shifted data Ys:

        F = M(X X^T),  E = Ys M(X)^T,  M(A) = A + blockdiag(A),

    so the summed fidelity is tr(F D^T D) - 2 tr(E D^T) plus a constant in
    D. With every other class dictionary held fixed, class c's problem is
    the QuadDictProblem with A = F_cc and B = E_c - sum_{i != c} D_i F_ic.
    """
    shifted = np.asarray(shifted, dtype=float)
    if shifted.ndim != 2 or shifted.shape[1] != coefs.N:
        raise DimensionError(
            f"shifted data shape {shifted.shape} does not match {coefs.N} code columns"
        )
    X = coefs.X
    XXt = X @ X.T
    MX = X + block_diagonal(X, coefs.C)
    return XXt + block_diagonal(XXt, coefs.C), shifted @ MX.T


def count_dead_atoms(problem):
    """Atoms whose code energy is too small to update."""
    return int(np.sum(np.diag(problem.A) <= DEAD_ATOM_TOL))


def odl_update(problem, D_init, sweeps=ODL_SWEEPS):
    """Block-coordinate column sweeps for the quadratic subproblem.

    Each column j with code energy A_jj above DEAD_ATOM_TOL moves to

        u = (B_j - D A_j) / A_jj + d_j,   d_j = u / max(||u||, 1)

    dead atoms are left untouched. The inner objective must not increase
    across sweeps (checked, since the update is exact per column).
    """
    if sweeps < 1:
        raise ParameterError("sweeps must be positive")
    D = np.array(D_init, dtype=float)
    A, B = problem.A, problem.B
    if D.shape != B.shape:
        raise DimensionError(f"dictionary shape {D.shape} != B {B.shape}")
    if D.size and not np.isfinite(D).all():
        raise NumericalError("initial dictionary contains NaN or Inf")
    prev = problem.objective(D)
    for _ in range(sweeps):
        for j in range(D.shape[1]):
            ajj = A[j, j]
            if ajj <= DEAD_ATOM_TOL:
                continue
            u = (B[:, j] - D @ A[:, j]) / ajj + D[:, j]
            nu = math.sqrt(float(u.dot(u)))
            if nu == 0:
                continue
            D[:, j] = u / max(nu, 1.0)
        cur = problem.objective(D)
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
    debug level, the ADMM sweeps used, whether the solve stopped on its
    tolerance or ran all ``iters`` sweeps, the final residuals, and whether
    the candidate was kept."""
    cand, residuals = admm_nuclear(V, X0, eta, ADMM_RHO, iters, return_residuals=True)
    norms = np.linalg.norm(cand, axis=0)
    cand = cand / np.where(norms > 1.0, norms, 1.0)
    kept = _shared_value(V, X0, cand, eta) <= _shared_value(V, X0, D0, eta)
    r, s = residuals[-1]
    stop = "tolerance" if len(residuals) < iters else "cap"
    log.debug(
        "shared-dictionary ADMM: %d of %d sweeps, stopped on %s, r=%.3g s=%.3g, candidate %s",
        len(residuals), iters, stop, r, s, "kept" if kept else "rejected",
    )
    return cand if kept else D0
