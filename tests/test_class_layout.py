"""Property tests of the class-layout helpers and the k0=0 reduction.

Codes follow the class layout: C contiguous column blocks of n_c columns,
one per class. On generated C, n_c and K (C=1 and n_c=1 included),
class_means, fisher_mean_map, grad_fisher, fisher_value and mean_stats
are checked against the per-label loop in oracles.column_means_by_class and
against finite differences, and with no shared dictionary the training
objective must equal the literal FDDL objective. A Dataset reads C and n_c
off its labels, however it is built, and rejects a bad layout when built.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrsdl.data import (
    CoefBundle,
    Dataset,
    DictionaryBundle,
    HyperParams,
    class_means,
    fisher_mean_map,
    mean_stats,
    normalize_columns,
)
from lrsdl.errors import DataError, DimensionError, DomainError
from lrsdl.gradients import fisher_value, grad_fisher, lrsdl_objective

from oracles import column_means_by_class, fd_grad, fddl_objective, rel_err

shapes = dict(C=st.integers(1, 4), n_c=st.integers(1, 4), K=st.integers(1, 5))


def layout(C, n_c, K, seed):
    """Random codes (K x C n_c) and their class-contiguous labels."""
    X = np.random.default_rng(seed).standard_normal((K, C * n_c))
    return X, np.repeat(np.arange(1, C + 1), n_c)


def literal_fisher(X, labels):
    """sum_c (||X_c - M_c||^2 - n_c ||m_c - m||^2) + ||X||^2 from the
    per-label oracle means."""
    m, means = column_means_by_class(X, labels)
    total = float(np.sum(X * X))
    for c, mc in means.items():
        cols = labels == c
        total += float(np.sum((X[:, cols] - mc[:, None]) ** 2))
        total -= cols.sum() * float(np.sum((mc - m) ** 2))
    return total


@settings(max_examples=60, deadline=None)
@given(**shapes, seed=st.integers(0, 2**32 - 1))
def test_class_means_match_per_label_loop(C, n_c, K, seed):
    X, labels = layout(C, n_c, K, seed)
    cm = class_means(X, C)
    assert cm.shape == (K, C)
    _, means = column_means_by_class(X, labels)
    for c, mc in means.items():
        np.testing.assert_allclose(cm[:, c - 1], mc, rtol=1e-13, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    C=st.integers(1, 5),
    n=st.integers(1, 6),
    K=st.integers(1, 6),
    all_classes=st.booleans(),
    # a lambda2 near the underflow threshold makes lambda2 / (n C) a
    # subnormal, which no float64 Q holds to 1e-13 relative accuracy
    lambda2=st.just(0.0) | st.floats(1e-300, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_fisher_mean_map_matches_per_label_loop(C, n, K, all_classes, lambda2, seed):
    # a joint solve holds all C class blocks, a sequential solve one
    blocks = C if all_classes else 1
    W, labels = layout(blocks, n, K, seed)
    Q = fisher_mean_map(blocks, n, C, lambda2)
    assert Q.shape == (blocks * n, blocks)
    _, means = column_means_by_class(W, labels)
    total = sum(means.values())
    want = np.column_stack([lambda2 * (total / C - 2.0 * means[b]) for b in range(1, blocks + 1)])
    scale = lambda2 * float(np.abs(W).max())
    np.testing.assert_allclose(W @ Q, want, rtol=1e-13, atol=1e-13 * scale)


@settings(max_examples=60, deadline=None)
@given(**shapes, seed=st.integers(0, 2**32 - 1))
def test_fisher_value_and_gradient(C, n_c, K, seed):
    X, labels = layout(C, n_c, K, seed)
    want = literal_fisher(X, labels)
    assert abs(fisher_value(X, labels) - want) <= 1e-11 * max(1.0, abs(want))
    # f is quadratic, so central differences are exact up to round-off
    fd = fd_grad(lambda M: fisher_value(M, labels), X, eps=1e-3)
    assert rel_err(grad_fisher(X, labels), fd) < 1e-7


@settings(max_examples=60, deadline=None)
@given(**shapes, k_c=st.integers(1, 3), k0=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_mean_stats_match_per_label_loop(C, n_c, K, k_c, k0, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((C * k_c, C * n_c))
    X0 = rng.standard_normal((k0, C * n_c))
    labels = np.repeat(np.arange(1, C + 1), n_c)
    ms = mean_stats(CoefBundle(X=X, X0=X0), labels)
    _, means = column_means_by_class(X, labels)
    for c, mc in means.items():
        np.testing.assert_allclose(ms.class_mean(c), mc, rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(ms.shared_mean, X0.mean(axis=1), rtol=1e-13, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(
    C=st.integers(1, 3),
    n_c=st.integers(1, 4),
    k_c=st.integers(1, 3),
    d=st.integers(2, 8),
    lambda1=st.floats(0.0, 1.0),
    lambda2=st.floats(0.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_no_shared_dictionary_is_fddl(C, n_c, k_c, d, lambda1, lambda2, seed):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(1, C + 1), n_c)
    data = Dataset.from_arrays(rng.standard_normal((d, C * n_c)), labels)
    class_dicts = tuple(
        normalize_columns(rng.standard_normal((d, k_c)), warn=False) for _ in range(C)
    )
    dicts = DictionaryBundle(class_dicts=class_dicts, shared_dict=np.zeros((d, 0)))
    X = rng.standard_normal((C * k_c, C * n_c))
    coefs = CoefBundle(X=X, X0=np.zeros((0, C * n_c)))
    hyper = HyperParams(lambda1=lambda1, lambda2=lambda2, eta=0.3)
    mine = lrsdl_objective(data, dicts, coefs, hyper)
    want = fddl_objective(data.Y, list(class_dicts), X, labels, lambda1, lambda2)
    assert abs(mine - want) <= 1e-10 * max(1.0, abs(want))


@pytest.mark.parametrize(
    "labels",
    [
        [1.7, 1.2, 2.9, 2.1],
        [1.0, 1.0, 2.0, 2.0],
        ["1", "1", "2", "2"],
        [1.0, np.nan, 2.0, 2.0],
        [True, True, True, True],
    ],
    ids=["fractional", "integral-float", "string", "nan", "bool"],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda X, labels: mean_stats(CoefBundle(X=X, X0=np.zeros((0, 4))), labels),
        fisher_value,
        grad_fisher,
    ],
    ids=["mean_stats", "fisher_value", "grad_fisher"],
)
def test_labels_that_are_not_integers_rejected(call, labels):
    # never truncated or parsed into a class layout
    X = np.arange(16.0).reshape(4, 4)
    with pytest.raises(DataError, match="integers"):
        call(X, np.array(labels))


@settings(max_examples=40, deadline=None)
@given(C=st.integers(1, 4), n_c=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_dataset_reads_layout_off_labels(C, n_c, seed):
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((3, C * n_c))
    labels = np.repeat(np.arange(1, C + 1), n_c)
    shuffled = rng.permutation(C * n_c)
    sorted_input = Dataset.from_arrays(Y[:, shuffled], labels[shuffled])
    direct = Dataset(Y=Y, labels=labels, permutation=np.arange(C * n_c))
    rescaled = dataclasses.replace(sorted_input, Y=2 * sorted_input.Y)
    for data in (sorted_input, direct, rescaled):
        assert (data.C, data.n_c) == (C, n_c)
        assert np.array_equal(data.labels, labels)


@pytest.mark.parametrize(
    "Y, labels, error",
    [
        (np.zeros((3, 4)), [1.7, 1.2, 2.9, 2.1], DataError),
        (np.zeros((3, 4)), [1.0, 1.0, 2.0, 2.0], DataError),
        (np.zeros((3, 4)), [True, True, True, True], DataError),
        (np.zeros((3, 4)), [1, 2], DimensionError),
        (np.zeros((3, 4)), [2, 2, 1, 1], DomainError),
        (np.zeros((3, 4)), [1, 1, 1, 2], DomainError),
        (np.array([[0.0, np.nan, 0.0, 0.0]]), [1, 1, 2, 2], DataError),
        (np.zeros(4), [1, 1, 2, 2], DimensionError),
    ],
    ids=[
        "fractional-labels",
        "integral-float-labels",
        "bool-labels",
        "short-labels",
        "unsorted-labels",
        "unequal-classes",
        "nan-sample",
        "1-d-samples",
    ],
)
def test_dataset_checks_samples_and_labels_when_built(Y, labels, error):
    # never truncated to a layout or trained on before the error
    with pytest.raises(error):
        Dataset(Y=Y, labels=labels, permutation=np.arange(4))
