"""Classification: sparse-code a test sample, then score each class.

A test sample is coded against the full stacked dictionary with an l1
penalty plus a pull of the shared part toward the training shared-code
mean. The shared reconstruction is subtracted out and each class is
scored by a weighted mix of its reconstruction residual and the distance
of the code to the class's training code mean. Smallest score wins.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .data import _unit_columns
from .errors import DimensionError, NumericalError, ParameterError
from .gradients import grad_test_code
from .prox import SmoothObjective, fista, power_iteration_lipschitz

log = logging.getLogger(__name__)

TEST_CODING_ITERS = 300
POWER_ITERS = 100


@dataclass(frozen=True)
class Prediction:
    """label is the 1-based argmin of per_class_scores (ties go low);
    code is the full coefficient vector, class part first."""

    label: int
    per_class_scores: np.ndarray
    code: np.ndarray


def _as_sample(y, d):
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape != (d,):
        raise DimensionError(f"sample has {y.shape[0]} features, model expects {d}")
    if not np.all(np.isfinite(y)):
        raise NumericalError("test sample contains non-finite values")
    return y


def _normalize_sample(y):
    with np.errstate(over="ignore", under="ignore"):
        nrm = np.linalg.norm(y)
    out, zero = _unit_columns(y[:, None], np.array([nrm]))
    if zero[0]:
        log.warning("zero-norm test sample left unnormalized")
    return out[:, 0]


def test_coding_lipschitz(model):
    """Step-size bound for the test-coding solves; reusable across samples."""
    Dt = model.dict_bundle.D_total
    L = power_iteration_lipschitz(
        lambda v: Dt.T @ (Dt @ v),
        (Dt.shape[1], 1),
        iters=POWER_ITERS,
        seed=model.hyper.seed,
    )
    return L + model.hyper.lambda2


def encode_test(y, model, lipschitz=None):
    """Code one sample against the stacked dictionary.

    Minimizes 1/2 ||y - D_total x||^2 + lambda2/2 ||x0 - m0||^2
    + lambda1 ||x||_1 over the stacked code x. The sample is unit
    normalized first, matching training.
    """
    dicts = model.dict_bundle
    y = _normalize_sample(_as_sample(y, dicts.d))
    m0 = model.mean_stats.shared_mean
    lam2 = model.hyper.lambda2
    K = dicts.K
    if lipschitz is None:
        lipschitz = test_coding_lipschitz(model)

    def grad(x):
        return grad_test_code(dicts, y, x, m0, lam2)

    x0 = np.zeros(K + dicts.k0)
    obj = SmoothObjective.quadratic(grad, lipschitz, x0.shape)
    return fista(
        obj,
        model.hyper.lambda1,
        x0,
        max_iter=TEST_CODING_ITERS,
        tol=model.hyper.fista_tol,
    )


def class_scores(y, model, code, w):
    """Score vector for an already-coded, already-validated sample."""
    dicts = model.dict_bundle
    y = _normalize_sample(_as_sample(y, dicts.d))
    K = dicts.K
    x, x0 = code[:K], code[K:]
    ybar = y - dicts.shared_dict @ x0
    scores = np.empty(dicts.C)
    for c in range(1, dicts.C + 1):
        resid = ybar - dicts.class_dict(c) @ x[dicts.row_block(c)]
        coef_dist = x - model.mean_stats.class_mean(c)
        scores[c - 1] = w * np.sum(resid**2) + (1.0 - w) * np.sum(coef_dist**2)
    return scores


def classify(y, model, w=None, lipschitz=None):
    """Two-stage rule: sparse code, then argmin of the class scores."""
    if w is None:
        w = model.hyper.w
    if not 0.0 <= w <= 1.0:
        raise ParameterError(f"w must lie in [0, 1], got {w}")
    code = encode_test(y, model, lipschitz=lipschitz)
    scores = class_scores(y, model, code, w)
    return Prediction(label=int(np.argmin(scores)) + 1, per_class_scores=scores, code=code)


def evaluate(test, model, w=None):
    """Accuracy and confusion matrix over a labeled test set.

    confusion[i, j] counts true class i+1 predicted as j+1; rows sum to
    the per-class test counts.
    """
    if test.d != model.d:
        raise DimensionError(
            f"test features have dimension {test.d}, model expects {model.d}"
        )
    if test.C != model.C:
        raise DimensionError(f"test set has {test.C} classes, model has {model.C}")
    L = test_coding_lipschitz(model)
    confusion = np.zeros((model.C, model.C), dtype=int)
    hits = 0
    for j in range(test.N):
        pred = classify(test.Y[:, j], model, w=w, lipschitz=L)
        true = int(test.labels[j])
        confusion[true - 1, pred.label - 1] += 1
        hits += pred.label == true
    return hits / test.N, confusion
