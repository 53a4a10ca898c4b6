"""Classification: sparse-code test samples, then score each class.

A test sample is coded against the full stacked dictionary with an l1
penalty plus a pull of the shared part toward the training shared-code
mean. The shared reconstruction is subtracted out and each class is
scored by a weighted mix of its reconstruction residual and the distance
of the code to the class's training code mean. Smallest score wins.

Every entry point takes one sample (d,) or a batch (d, N). A batch is
coded in one FISTA solve over the precomputed Gram matrix; its safeguard
accepts, rejects, restarts and stops each column on its own, so each
sample takes the steps a solve of that sample alone takes. Only round-off
differs (BLAS sums a matrix product in another order than a matrix-vector
one).
"""

import logging
from dataclasses import dataclass

import numpy as np

from .data import Dataset, _unit_columns
from .errors import DataError, DimensionError, NumericalError, ParameterError
from .gradients import gram_test_code
from .prox import SmoothObjective, fista, power_iteration_lipschitz

log = logging.getLogger(__name__)

TEST_CODING_ITERS = 300


@dataclass(frozen=True)
class Prediction:
    """label is the 1-based argmin of per_class_scores (ties go low);
    code is the full coefficient vector, class part first.

    For one sample label is an int, per_class_scores has shape (C,) and
    code (K + k0,). For a batch of N samples label is an int array (N,),
    per_class_scores has shape (C, N) and code (K + k0, N).
    """

    label: int | np.ndarray
    per_class_scores: np.ndarray
    code: np.ndarray


def _as_samples(Y, d):
    """One sample (d,) or a batch (d, N) as a validated (d, N) matrix."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim not in (1, 2) or Y.shape[0] != d:
        raise DimensionError(
            f"samples of shape {Y.shape} do not have the {d} features the model expects"
        )
    if not np.all(np.isfinite(Y)):
        raise NumericalError("test samples contain non-finite values")
    return Y.reshape(d, -1)


def _normalize_samples(Y):
    """Unit-normalized columns of Y and the mask of its zero columns."""
    with np.errstate(over="ignore", under="ignore"):
        norms = np.linalg.norm(Y, axis=0)
    return _unit_columns(Y, norms)


def test_coding_lipschitz(H):
    """Step size of the test-coding solve, lambda_max of its Gram matrix H;
    the same for every sample. A named step of its own, which the benchmark
    tracer wraps by name."""
    return power_iteration_lipschitz(H)


def encode_test(Y, model):
    """Code one sample (d,) or each column of a batch (d, N) against the
    stacked dictionary.

    For each sample y, minimizes 1/2 ||y - D_total x||^2
    + lambda2/2 ||x0 - m0||^2 + lambda1 ||x||_1 over the stacked code x.
    Samples are unit normalized first, matching training; zero samples
    are logged here, once per call. Returns a (K + k0,) code for one
    sample and a (K + k0, N) matrix for a batch, whose columns fista
    accepts, rejects, restarts and stops one by one.
    """
    dicts = model.dict_bundle
    Yn, zero = _normalize_samples(_as_samples(Y, dicts.d))
    if zero.any():
        log.warning("%d zero-norm test sample(s) left unnormalized", zero.sum())
    Yn = Yn.reshape(np.shape(Y))
    H, B = gram_test_code(
        dicts, Yn, model.mean_stats.shared_mean, model.hyper.lambda2
    )
    obj = SmoothObjective.quadratic(
        H, B, test_coding_lipschitz(H), per_column=B.ndim == 2
    )
    return fista(
        obj,
        model.hyper.lambda1,
        np.zeros(B.shape),
        max_iter=TEST_CODING_ITERS,
    )


def class_scores(Y, model, code, w):
    """Class scores of already-coded samples: (C,) for one sample (d,),
    (C, N) for a batch (d, N) with codes (K + k0, N)."""
    dicts = model.dict_bundle
    Yn, _ = _normalize_samples(_as_samples(Y, dicts.d))  # encode_test logs zero samples
    code = np.reshape(code, (dicts.K + dicts.k0, -1))
    X, X0 = code[: dicts.K], code[dicts.K :]
    Ybar = Yn - dicts.shared_dict @ X0
    scores = np.empty((dicts.C, Yn.shape[1]))
    for c in range(1, dicts.C + 1):
        resid = Ybar - dicts.class_dict(c) @ X[dicts.row_block(c)]
        coef_dist = X - model.mean_stats.class_mean(c)[:, None]
        scores[c - 1] = w * np.sum(resid**2, axis=0) + (1.0 - w) * np.sum(
            coef_dist**2, axis=0
        )
    return scores[:, 0] if np.ndim(Y) == 1 else scores


def classify(Y, model, w=None):
    """Two-stage rule for one sample (d,) or a batch (d, N): sparse code,
    then argmin of the class scores. See :class:`Prediction` for shapes."""
    if w is None:
        w = model.hyper.w
    if not 0.0 <= w <= 1.0:
        raise ParameterError(f"w must lie in [0, 1], got {w}")
    code = encode_test(Y, model)
    scores = class_scores(Y, model, code, w)
    label = np.argmin(scores, axis=0) + 1
    return Prediction(
        label=int(label) if scores.ndim == 1 else label,
        per_class_scores=scores,
        code=code,
    )


def score_predictions(labels, predicted, C):
    """Accuracy and confusion matrix of predicted against true labels.

    confusion[i, j] counts true class i+1 predicted as j+1, so rows sum
    to the per-class counts. No samples, or true labels outside 1..C,
    raise DataError.
    """
    labels = np.asarray(labels, dtype=int)
    predicted = np.asarray(predicted, dtype=int)
    if not labels.size:
        raise DataError("no labeled samples to score")
    if labels.min() < 1 or labels.max() > C:
        raise DataError(f"true labels must lie in 1..{C}")
    confusion = np.zeros((C, C), dtype=int)
    np.add.at(confusion, (labels - 1, predicted - 1), 1)
    return float(np.mean(labels == predicted)), confusion


def evaluate(test, model, w=None):
    """Accuracy and confusion matrix (see :func:`score_predictions`) over a
    labeled test set, all samples classified in one batch.

    test is a Dataset or a pair (Y, labels): samples (d, N) and their N
    labels in 1..C, in any order and with any number of samples per class
    (a Dataset needs equal class sizes).
    """
    if isinstance(test, Dataset):
        if test.C != model.C:
            raise DimensionError(f"test set has {test.C} classes, model has {model.C}")
        Y, labels = test.Y, test.labels
    else:
        Y, labels = test
        Y, labels = np.asarray(Y, dtype=float), np.asarray(labels)
        if Y.ndim != 2 or labels.shape != (Y.shape[1],):
            raise DimensionError(
                f"labels of shape {labels.shape} do not match samples of shape {Y.shape}"
            )
        if not np.issubdtype(labels.dtype, np.integer):
            raise DataError(f"labels must be integers, got dtype {labels.dtype}")
    if Y.shape[0] != model.d:
        raise DimensionError(
            f"test features have dimension {Y.shape[0]}, model expects {model.d}"
        )
    pred = classify(Y, model, w=w)
    return score_predictions(labels, pred.label, model.C)
