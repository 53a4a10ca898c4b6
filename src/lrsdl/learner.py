"""Training loop: joint sparse coding plus dictionary updates.

The trainer alternates three blocks. First all coefficients are refreshed
with an accelerated proximal solve (either jointly over every class at
once, or class by class for the baseline coder). Then each class
dictionary is refit with rank-one column sweeps, and finally the shared
dictionary is refit under its nuclear-norm penalty. Every block is a
descent step on the same objective, so the traced objective value never
increases from one outer iteration to the next.
"""

import logging
import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .data import (
    CoefBundle,
    Dataset,
    DictionaryBundle,
    HyperParams,
    IterationRecord,
    LearnedModel,
    block_diagonal,
    check_integer,
    class_means,
    mean_stats,
    normalize_columns,
)
from .dictupdate import (
    QuadDictProblem,
    class_dict_gram,
    count_dead_atoms,
    odl_update,
    update_shared_dict,
)
from .errors import NumericalError, ParameterError
from .gradients import (
    _check_shapes,
    build_augmented_gram,
    gram_shared_codes,
    objective_terms,
    residual_matrices,
)
from .prox import SmoothObjective, fista, power_iteration_lipschitz

log = logging.getLogger(__name__)

ODL_SWEEPS = 2  # column sweeps per class dictionary refit
SEQ_PASSES = 3  # visits of every class block per sequential coding round
ADMM_RHO = 1.0  # ADMM penalty of the shared-dictionary update


@dataclass(frozen=True)
class TrainConfig:
    """Everything fit() needs besides the data itself."""

    hyper: HyperParams = field(default_factory=HyperParams)
    k_c: int = 10
    k0: int = 0

    def __post_init__(self):
        check_integer("k_c", self.k_c, 1)
        check_integer("k0", self.k0, 0)


def initialize(data, config, seed):
    """Random-sample class dictionaries and an SVD-based shared dictionary.

    Class atoms are drawn from the class's own training columns (without
    replacement when k_c <= n_c) and renormalized. The shared dictionary
    starts from the top left-singular vectors of the full data matrix,
    which are unit-norm already.
    """
    k_c, k0 = config.k_c, config.k0
    if k0 > min(data.d, data.N):
        raise ParameterError(
            f"k0={k0} exceeds min(d, N)={min(data.d, data.N)}"
        )
    if k_c > data.n_c:
        log.warning(
            "k_c=%d exceeds the %d samples per class; sampling atoms with replacement",
            k_c,
            data.n_c,
        )
    rng = np.random.default_rng(seed)
    class_dicts = []
    for c in range(1, data.C + 1):
        block = data.class_block(c)
        idx = rng.choice(data.n_c, size=k_c, replace=k_c > data.n_c)
        atoms = block[:, idx].copy()
        norms = np.linalg.norm(atoms, axis=0)
        for j in np.flatnonzero(norms == 0.0):
            v = rng.standard_normal(data.d)
            atoms[:, j] = v / np.linalg.norm(v)
        norms = np.linalg.norm(atoms, axis=0)
        class_dicts.append(atoms / norms)
    if k0 > 0:
        U, _, _ = np.linalg.svd(data.Y, full_matrices=False)
        shared = np.ascontiguousarray(U[:, :k0])
    else:
        shared = np.zeros((data.d, 0))
    dicts = DictionaryBundle(class_dicts=tuple(class_dicts), shared_dict=shared)
    coefs = CoefBundle.zeros(data.C, k_c, k0, data.n_c)
    return dicts, coefs


def _solve_shared_codes(data, dicts, coefs, hyper):
    """Refit the shared coefficients with the class coefficients of coefs
    held fixed; returns coefs with X0 replaced (unchanged when k0 = 0).

    The smooth part is the gram_shared_codes pair of the shared-layer
    target V (residual_matrices). The mean-pull target m0 is frozen at the
    warm start X0, which keeps the subproblem a strict majorizer of the
    full objective in X0.
    """
    if dicts.k0 == 0:
        return coefs
    V = residual_matrices(data, dicts, coefs)
    m0 = coefs.X0.mean(axis=1)[:, None]
    H, B = gram_shared_codes(dicts.shared_dict, V, m0, hyper.lambda2)
    obj = SmoothObjective.quadratic(H, B, power_iteration_lipschitz(H))
    X0new = fista(obj, hyper.lambda1, coefs.X0, max_iter=hyper.fista_iters)
    return CoefBundle(X=coefs.X, X0=X0new, k_c=coefs.k_c, n_c=coefs.n_c)


def _class_code_gram(data, dicts, coefs, lambda2):
    """Gram pair and step size (H, corr, L) of the class-code quadratic:
    H = M(D^T D) + 2 lambda2 I, the 2 lambda2 X part of the Fisher gradient
    joining the Gram matrix, and L = lambda_max(H)."""
    _check_shapes(data, dicts, coefs)
    shifted = data.Y - dicts.shared_dict @ coefs.X0
    G, corr = build_augmented_gram(dicts, shifted, data.n_c)
    H = G + 2.0 * lambda2 * np.eye(dicts.K)
    return H, corr, power_iteration_lipschitz(H)


def sparse_code_train(data, dicts, coefs, hyper):
    """One coding round: refit all class coefficients jointly, then X0.

    The mean-separation term is differentiated exactly (the column means
    are functions of the iterate), so the solve keeps the full objective
    non-increasing. Its gradient 2 lambda2 X + lambda2 (m - 2 M_c) is
    linear: the 2 lambda2 X part joins the Gram matrix and the mean part is
    the quadratic's Fisher term.
    """
    C, lam2 = data.C, hyper.lambda2
    H, corr, L = _class_code_gram(data, dicts, coefs, lam2)
    obj = SmoothObjective.quadratic(H, corr, L, fisher=(lam2, C, C))
    Xnew = fista(obj, hyper.lambda1, coefs.X, max_iter=hyper.fista_iters)
    coefs = CoefBundle(X=Xnew, X0=coefs.X0, k_c=dicts.k_c, n_c=data.n_c)
    return _solve_shared_codes(data, dicts, coefs, hyper)


def sparse_code_sequential(data, dicts, coefs, hyper):
    """Baseline coder: cycle class-by-class solves instead of one joint solve.

    Each class block gets fista_iters/SEQ_PASSES iterations per visit so
    the total per-column iteration budget matches the joint coder.
    Cross-class coupling (the shared Gram off-diagonal and the mean terms)
    is only refreshed between visits, which is what the joint solver avoids:
    a block's solve is the one-block case of the joint quadratic, with the
    other classes' mean sum S frozen in B as -(lambda2 / C) S.
    """
    C, lam2 = data.C, hyper.lambda2
    budget = max(1, math.ceil(hyper.fista_iters / SEQ_PASSES))
    H, corr, L = _class_code_gram(data, dicts, coefs, lam2)

    X = coefs.X.copy()
    cmeans = class_means(X, C)

    for _ in range(SEQ_PASSES):
        for c in range(1, C + 1):
            cols = coefs.class_columns(c)
            other_sum = cmeans.sum(axis=1) - cmeans[:, c - 1]
            B = corr[:, cols] - (lam2 / C) * other_sum[:, None]
            obj = SmoothObjective.quadratic(H, B, L, fisher=(lam2, 1, C))
            Wnew = fista(obj, hyper.lambda1, X[:, cols], max_iter=budget)
            X[:, cols] = Wnew
            cmeans[:, c - 1] = Wnew.mean(axis=1)

    coefs = CoefBundle(X=X, X0=coefs.X0, k_c=dicts.k_c, n_c=data.n_c)
    return _solve_shared_codes(data, dicts, coefs, hyper)


def _update_class_dicts(data, dicts, coefs):
    """One round of per-class dictionary refits.

    Classes are visited in order, each against the latest dictionaries of
    the others (Gauss-Seidel), all from one Gram pair (class_dict_gram).
    Column norms stay at <= 1.
    """
    shifted = data.Y - dicts.shared_dict @ coefs.X0
    F, E = class_dict_gram(coefs, shifted)
    cross = F - block_diagonal(F, dicts.C)  # F with its own-class blocks zeroed
    D = np.array(dicts.D)
    dead = 0
    for c in range(1, dicts.C + 1):
        rows = dicts.row_block(c)
        prob = QuadDictProblem(A=F[rows, rows], B=E[:, rows] - D @ cross[:, rows])
        dead += count_dead_atoms(prob)
        D[:, rows] = odl_update(prob, D[:, rows], sweeps=ODL_SWEEPS)
    if dead:
        log.debug("skipped %d dead atoms in dictionary sweep", dead)
    return DictionaryBundle(
        class_dicts=tuple(np.hsplit(D, dicts.C)), shared_dict=dicts.shared_dict
    )


def fit(data, config, coder="joint", iteration_callback=None):
    """Train a model. Feature columns are unit-normalized before anything else.

    Returns a LearnedModel whose trace holds one record per completed
    outer iteration. A numerical failure mid-run
    aborts the loop and returns the last completed iterate with
    aborted=True instead of raising.
    """
    if coder not in ("joint", "sequential"):
        raise ParameterError(f"unknown coder {coder!r}")
    hyper = config.hyper
    Yn = normalize_columns(data.Y, warn=True)
    data = Dataset(
        Y=Yn, labels=data.labels, C=data.C, n_c=data.n_c, permutation=data.permutation
    )
    dicts, coefs = initialize(data, config, hyper.seed)

    records = []
    aborted = False
    start = perf_counter()
    for it in range(1, hyper.outer_iters + 1):
        prev = (dicts, coefs)
        try:
            if coder == "joint":
                coefs = sparse_code_train(data, dicts, coefs, hyper)
            else:
                coefs = sparse_code_sequential(data, dicts, coefs, hyper)
            dicts = _update_class_dicts(data, dicts, coefs)
            terms = objective_terms(data, dicts, coefs, hyper)
            if config.k0 > 0:
                V = residual_matrices(data, dicts, coefs)
                shared = update_shared_dict(
                    V, coefs.X0, hyper.eta, ADMM_RHO, hyper.admm_iters
                )
                cand = DictionaryBundle(class_dicts=dicts.class_dicts, shared_dict=shared)
                after = objective_terms(data, cand, coefs, hyper)
                # the unit-norm cap can push the fit back up; keep the old
                # shared dictionary when that happens
                if after.total <= terms.total:
                    dicts, terms = cand, after
        except NumericalError as exc:
            log.warning("aborting at iteration %d: %s", it, exc)
            dicts, coefs = prev
            aborted = True
            break
        records.append(
            IterationRecord(
                iteration=it,
                objective=terms.total,
                fidelity=terms.fidelity,
                l1=terms.l1,
                fisher=terms.fisher,
                nuclear=terms.nuclear,
                seconds=perf_counter() - start,
            )
        )
        if iteration_callback is not None:
            iteration_callback(it, data, dicts, coefs)

    means = mean_stats(coefs, data.labels)
    return LearnedModel(
        dict_bundle=dicts,
        mean_stats=means,
        hyper=hyper,
        trace=tuple(records),
        aborted=aborted,
    )


@dataclass(frozen=True)
class BenchResult:
    joint_model: LearnedModel
    sequential_model: LearnedModel


def bench_joint_vs_sequential(data, config):
    """Train twice, once per coder, under the same config and budget.

    The sequential run gets the same total inner-iteration budget as the
    joint one (see sparse_code_sequential).
    """
    if config.k0 != 0:
        raise ParameterError("coder benchmark requires k0=0")
    joint = fit(data, config, coder="joint")
    other = fit(data, config, coder="sequential")
    return BenchResult(joint_model=joint, sequential_model=other)
