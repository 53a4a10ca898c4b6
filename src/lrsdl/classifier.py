"""Classification: sparse-code test samples, then score each class.

A test sample is coded against the full stacked dictionary with an l1
penalty plus a pull of the shared part toward the training shared-code
mean. The shared reconstruction is subtracted out and each class is
scored by a weighted mix of its reconstruction residual and the distance
of the code to the class's training code mean. Smallest score wins.

classify takes one sample (d,) or a batch (d, N), and it alone checks and
unit normalizes it; encode_test and class_scores are its steps on that
(d, N) batch, and score_predictions checks labels (errors.check_labels).
Test coding codes one sample as a batch of one column, in one FISTA solve
over the precomputed Gram matrix; in a batch of two or more, the safeguard
accepts, rejects, restarts and stops each column on its own, so each sample
takes the steps a solve of it alone takes. Only round-off differs (BLAS sums
a matrix product in another order than a matrix-vector one). A column stops
on the first accepted step that lowers its objective by at most
prox.FISTA_TOL relative, read off the values the safeguard compares, so it
stops on the same iteration in a batch as alone.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .data import Dataset, normalize_columns
from .errors import DataError, DimensionError, check_labels, check_number, check_real
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


def _unit_samples(Y, d):
    """One sample (d,) or a batch (d, N), checked, as a unit-normalized (d, N)
    batch; zero samples stay zero and are logged, once per call."""
    Y = np.asarray(Y)
    if Y.ndim not in (1, 2) or Y.shape[0] != d:
        raise DimensionError(
            f"samples of shape {Y.shape} do not have the {d} features the model expects"
        )
    Y = check_real(Y, "test samples").reshape(d, -1)
    zero = ~Y.any(axis=0)  # the samples are finite
    if zero.any():
        log.warning("%d zero-norm test sample(s) left unnormalized", zero.sum())
    return normalize_columns(Y)


def test_coding_lipschitz(H):
    """Step size of the test-coding solve, lambda_max of its Gram matrix H;
    the same for every sample. A named step of its own, which the benchmark
    tracer wraps by name."""
    return power_iteration_lipschitz(H)


def encode_test(Yn, model):
    """(K + k0, N) codes of the unit-normalized batch Yn (d, N): one FISTA
    solve that minimizes, for each column y, 1/2 ||y - D_total x||^2
    + lambda2/2 ||x0 - m0||^2 + lambda1 ||x||_1 over the stacked code x."""
    dicts = model.dict_bundle
    H, B = gram_test_code(dicts, Yn, model.mean_stats.shared_mean, model.hyper.lambda2)
    obj = SmoothObjective.quadratic(H, B, test_coding_lipschitz(H), per_column=True)
    return fista(obj, model.hyper.lambda1, np.zeros(B.shape), max_iter=TEST_CODING_ITERS)


def class_scores(Yn, model, code, w):
    """(C, N) class scores of the unit-normalized batch Yn (d, N) coded as
    code (K + k0, N)."""
    dicts = model.dict_bundle
    X, X0 = code[: dicts.K], code[dicts.K :]
    Ybar = Yn - dicts.shared_dict @ X0
    scores = np.empty((dicts.C, Yn.shape[1]))
    for c in range(1, dicts.C + 1):
        resid = Ybar - dicts.class_dict(c) @ X[dicts.row_block(c)]
        coef_dist = X - model.mean_stats.class_mean(c)[:, None]
        scores[c - 1] = w * np.sum(resid**2, axis=0) + (1.0 - w) * np.sum(
            coef_dist**2, axis=0
        )
    return scores


def classify(Y, model, w=None):
    """Two-stage rule for one sample (d,) or a batch (d, N), unit normalized
    as in training: sparse code, then argmin of the class scores. See
    :class:`Prediction` for shapes."""
    w = model.hyper.w if w is None else w
    check_number("w", w, 0, 1)
    Yn = _unit_samples(Y, model.d)
    code = encode_test(Yn, model)
    scores = class_scores(Yn, model, code, w)
    label = np.argmin(scores, axis=0) + 1
    if np.ndim(Y) == 1:
        return Prediction(int(label[0]), scores[:, 0], code[:, 0])
    return Prediction(label, scores, code)


def score_predictions(labels, predicted, C):
    """Accuracy and confusion matrix of predicted against true labels.

    confusion[i, j] counts true class i+1 predicted as j+1, so rows sum
    to the per-class counts. True labels that are not 1-D or not shaped
    like the predictions raise DimensionError; no samples, or true or
    predicted labels that fail errors.check_labels with C, raise DataError.
    """
    labels, predicted = np.asarray(labels), np.asarray(predicted)
    if labels.ndim != 1 or labels.shape != predicted.shape:
        raise DimensionError(
            f"labels of shape {labels.shape} for predictions of shape {predicted.shape}"
        )
    if not labels.size:
        raise DataError("no labeled samples to score")
    check_labels(labels, "true labels", C)
    check_labels(predicted, "predicted labels", C)
    confusion = np.zeros((C, C), dtype=int)
    np.add.at(confusion, (labels - 1, predicted - 1), 1)
    return float(np.mean(labels == predicted)), confusion


def evaluate(test, model):
    """Accuracy and confusion matrix (see :func:`score_predictions`) over a
    labeled test set, all samples classified in one batch with the model's
    own weight w.

    test is a Dataset or a pair (Y, labels): samples (d, N) and their N
    labels in 1..C, in any order and with any number of samples per class.
    """
    if isinstance(test, Dataset):
        if test.C != model.C:
            raise DimensionError(f"test set has {test.C} classes, model has {model.C}")
        Y, labels = test.Y, test.labels
    else:
        Y, labels = test
    return score_predictions(labels, classify(Y, model).label, model.C)
