"""Training loop: joint sparse coding plus dictionary updates.

The trainer alternates three blocks. One loop (_code_classes) refreshes the
class coefficients by accelerated proximal solves over groups of classes:
all C at once for the joint coder, one at a time for the baseline coder.
Then each class dictionary is refit with rank-one column sweeps, and the
shared dictionary under its nuclear-norm penalty (update_shared_dict keeps
the current one when its candidate fits worse). Every block is a descent
step on the same objective, so the objective, evaluated once per outer
iteration after the three blocks, never increases between iterations.
"""

import logging
import math
from dataclasses import asdict, dataclass, field, replace
from time import perf_counter

import numpy as np

from .data import (
    CoefBundle,
    DictionaryBundle,
    HyperParams,
    IterationRecord,
    LearnedModel,
    block_diagonal,
    class_means,
    fisher_mean_map,
    mean_stats,
    normalize_columns,
)
from .dictupdate import class_dict_gram, count_dead_atoms, odl_update, update_shared_dict
from .errors import NumericalError, ParameterError, check_number
from .gradients import (
    build_augmented_gram,
    check_shapes,
    gram_shared_codes,
    objective_terms,
    residual_matrices,
)
from .prox import SmoothObjective, fista, power_iteration_lipschitz

log = logging.getLogger(__name__)

SEQ_PASSES = 3  # visits of every class block per sequential coding round


@dataclass(frozen=True)
class TrainConfig:
    """Everything fit() needs besides the data itself."""

    hyper: HyperParams = field(default_factory=HyperParams)
    k_c: int = 10
    k0: int = 0

    def __post_init__(self):
        check_number("k_c", self.k_c, 1, integer=True)
        check_number("k0", self.k0, 0, integer=True)


def initialize(data, config):
    """Random-sample class dictionaries and an SVD-based shared dictionary.

    Class atoms are drawn from the class's own training columns (without
    replacement from a class of k_c or more) and renormalized. The shared
    dictionary starts from the top left-singular vectors of the full data
    matrix, which are unit-norm already. The draws use config.hyper.seed.
    When k0 > 0 each class atom a is then replaced by a - u u^T a, renormalized,
    with u the unit data mean, so what all classes share starts in D0 alone.
    An atom (near) along u, or every atom when the mean is (near) zero, stays.
    """
    k_c, k0 = config.k_c, config.k0
    if k0 > min(data.d, data.N):
        raise ParameterError(
            f"k0={k0} exceeds min(d, N)={min(data.d, data.N)}"
        )
    if k_c > min(data.sizes):
        log.warning(
            "k_c=%d exceeds the %d samples of class %d, the smallest; drawn with replacement",
            k_c, min(data.sizes), np.argmin(data.sizes) + 1,
        )
    rng = np.random.default_rng(config.hyper.seed)
    class_dicts = []
    for c in range(1, data.C + 1):
        block = data.class_block(c)
        idx = rng.choice(block.shape[1], size=k_c, replace=k_c > block.shape[1])
        atoms = block[:, idx].copy()
        norms = np.linalg.norm(atoms, axis=0)
        for j in np.flatnonzero(norms == 0.0):
            v = rng.standard_normal(data.d)
            atoms[:, j] = v / np.linalg.norm(v)
        norms = np.linalg.norm(atoms, axis=0)
        class_dicts.append(atoms / norms)
    D = np.hstack(class_dicts)
    if k0 > 0:
        U, _, _ = np.linalg.svd(data.Y, full_matrices=False)
        shared = np.ascontiguousarray(U[:, :k0])
        u = data.Y.mean(axis=1)
        if np.linalg.norm(u) > 1e-8 * np.abs(data.Y).max():  # above round-off
            u /= np.linalg.norm(u)
            P = D - np.outer(u, u @ D)
            norms = np.linalg.norm(P, axis=0)
            D = np.where(norms > 1e-8, P / np.maximum(norms, 1e-8), D)
    else:
        shared = np.zeros((data.d, 0))
    dicts = DictionaryBundle(D=D, shared_dict=shared, C=data.C)
    coefs = CoefBundle(X=np.zeros((data.C * k_c, data.N)), X0=np.zeros((k0, data.N)))
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
    return replace(coefs, X0=X0new)


def _code_classes(data, dicts, coefs, hyper, group, passes, budget):
    """Refit the class coefficients, `group` classes per FISTA call of
    `budget` iterations and `passes` visits of every group, then X0.

    Each call solves the joint class-code quadratic on its columns of one
    Gram pair, H = M(D^T D) + 2 lambda2 I and corr = M(D^T Ys) of
    build_augmented_gram, with its own class means differentiated exactly,
    so the full objective never increases. The class-mean part of the
    gradient is the product with the group's fisher_mean_map pair, built
    once here; that map is negative semidefinite, so L = lambda_max(H)
    still bounds the step. The other classes' means, frozen during the
    call, enter B as -lambda2 sum_c (n_c / N) m_c; with one group of all C
    classes that sum is exactly zero and B is corr itself.
    """
    C, lam2, sizes = data.C, hyper.lambda2, data.sizes
    check_shapes(data, dicts, coefs)
    shifted = data.Y - dicts.shared_dict @ coefs.X0
    H, corr = build_augmented_gram(dicts, shifted, sizes, lam2)
    L = power_iteration_lipschitz(H)
    share, offsets = np.asarray(sizes) / data.N, np.cumsum((0, *sizes))
    fisher = [fisher_mean_map(sizes[f : f + group], data.N, lam2) for f in range(0, C, group)]
    X = coefs.X.copy()
    cmeans = class_means(X, sizes)
    for _ in range(passes):
        for first in range(0, C, group):
            classes = slice(first, first + group)
            cols = slice(offsets[first], offsets[first + group])
            other = cmeans @ share - cmeans[:, classes] @ share[classes]
            B = corr[:, cols] - lam2 * other[:, None]
            obj = SmoothObjective.quadratic(H, B, L, fisher=fisher[first // group])
            X[:, cols] = fista(obj, hyper.lambda1, X[:, cols], max_iter=budget)
            cmeans[:, classes] = class_means(X[:, cols], sizes[classes])
    return _solve_shared_codes(data, dicts, replace(coefs, X=X), hyper)


def sparse_code_train(data, dicts, coefs, hyper):
    """One coding round: all class coefficients in one joint solve, then X0."""
    return _code_classes(data, dicts, coefs, hyper, data.C, 1, hyper.fista_iters)


def sparse_code_sequential(data, dicts, coefs, hyper):
    """Baseline coder: SEQ_PASSES rounds of class-by-class solves of
    fista_iters/SEQ_PASSES iterations each (the joint coder's per-column
    budget), then X0. Cross-class coupling is refreshed between visits only."""
    budget = max(1, math.ceil(hyper.fista_iters / SEQ_PASSES))
    return _code_classes(data, dicts, coefs, hyper, 1, SEQ_PASSES, budget)


def _update_class_dicts(data, dicts, coefs):
    """One round of per-class dictionary refits.

    Classes are visited in order, each against the latest dictionaries of
    the others (Gauss-Seidel), all from one Gram pair (class_dict_gram).
    Column norms stay at <= 1.
    """
    shifted = data.Y - dicts.shared_dict @ coefs.X0
    F, E = class_dict_gram(coefs, shifted, data.sizes)
    cross = F - block_diagonal(F, [dicts.k_c] * dicts.C)  # own-class blocks zeroed
    D = np.array(dicts.D)
    dead = 0
    for c in range(1, dicts.C + 1):
        rows = dicts.row_block(c)
        A = F[rows, rows]
        dead += count_dead_atoms(A)
        D[:, rows] = odl_update(A, E[:, rows] - D @ cross[:, rows], D[:, rows])
    if dead:
        log.debug("skipped %d dead atoms in dictionary sweep", dead)
    return replace(dicts, D=D)


def fit(data, config, coder="joint"):
    """Train a model. Feature columns are unit-normalized before anything else.

    Returns a LearnedModel whose trace holds the objective_terms of each
    completed outer iteration, one call each. A numerical failure mid-run
    aborts the loop and returns the last completed iterate with aborted=True.
    """
    if coder not in ("joint", "sequential"):
        raise ParameterError(f"unknown coder {coder!r}")
    code = sparse_code_train if coder == "joint" else sparse_code_sequential
    hyper = config.hyper
    zero = ~data.Y.any(axis=0)  # a Dataset's samples are finite
    if zero.any():
        log.warning("%d zero-norm training sample(s) left unnormalized", zero.sum())
    data = replace(data, Y=normalize_columns(data.Y))
    dicts, coefs = initialize(data, config)

    records = []
    aborted = False
    start = perf_counter()
    for it in range(1, hyper.outer_iters + 1):
        prev = (dicts, coefs)
        try:
            coefs = code(data, dicts, coefs, hyper)
            dicts = _update_class_dicts(data, dicts, coefs)
            if config.k0 > 0:
                V = residual_matrices(data, dicts, coefs)
                shared = update_shared_dict(
                    V, coefs.X0, dicts.shared_dict, hyper.eta, hyper.admm_iters
                )
                dicts = replace(dicts, shared_dict=shared)
            terms = objective_terms(data, dicts, coefs, hyper)
        except NumericalError as exc:
            log.warning("aborting at iteration %d: %s", it, exc)
            dicts, coefs = prev
            aborted = True
            break
        elapsed = perf_counter() - start
        records.append(IterationRecord(it, terms.total, seconds=elapsed, **asdict(terms)))

    means = mean_stats(coefs, data.labels)
    return LearnedModel(
        dict_bundle=dicts,
        mean_stats=means,
        hyper=hyper,
        trace=tuple(records),
        aborted=aborted,
    )


def bench_joint_vs_sequential(data, config):
    """Train twice, once per coder, under the same config and budget.

    Returns the (joint, sequential) models. The sequential run gets the
    same total inner-iteration budget as the joint one (see
    sparse_code_sequential).
    """
    if config.k0 != 0:
        raise ParameterError("coder benchmark requires k0=0")
    return fit(data, config, coder="joint"), fit(data, config, coder="sequential")
