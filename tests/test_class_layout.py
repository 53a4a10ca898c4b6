"""Property tests of the class-layout helpers and the k0=0 reduction.

Codes follow the class layout: C contiguous column blocks, one per class,
of n_1, ..., n_C columns. On generated layouts, each class size drawn on
its own in 1..4 (C=1 and size 1 included), class_means, fisher_mean_map,
fisher_value with its gradient 4 X plus the class-mean product X Q S, and
mean_stats are checked against the per-label loop in
oracles.column_means_by_class and against finite differences, and with no
shared dictionary the training objective must equal the literal FDDL
objective. A Dataset reads C and its class sizes off its labels, however
it is built, and rejects a bad layout when built. Every entry point that
takes labels (mean_stats, Dataset, check_class_layout, Dataset.from_arrays)
rejects the same bad labels with the same error and message.
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
    check_class_layout,
    class_means,
    fisher_mean_map,
    mean_stats,
    normalize_columns,
)
from lrsdl.errors import DataError, DimensionError, DomainError
from lrsdl.gradients import fisher_value, objective_terms

from oracles import column_means_by_class, fd_grad, fddl_objective, rel_err

class_sizes = st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple)
shapes = dict(sizes=class_sizes, K=st.integers(1, 5))


def layout(sizes, K, seed):
    """Random codes (K x N) and their class-contiguous labels, sizes[c - 1]
    columns of class c."""
    X = np.random.default_rng(seed).standard_normal((K, sum(sizes)))
    return X, np.repeat(np.arange(1, len(sizes) + 1), sizes)


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
def test_class_means_match_per_label_loop(sizes, K, seed):
    X, labels = layout(sizes, K, seed)
    cm = class_means(X, sizes)
    assert cm.shape == (K, len(sizes))
    _, means = column_means_by_class(X, labels)
    for c, mc in means.items():
        np.testing.assert_allclose(cm[:, c - 1], mc, rtol=1e-13, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=5).map(tuple),
    K=st.integers(1, 6),
    all_classes=st.booleans(),
    # a lambda2 near the underflow threshold makes lambda2 / (n N) a
    # subnormal, which no float64 Q holds to 1e-13 relative accuracy
    lambda2=st.just(0.0) | st.floats(1e-300, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_fisher_mean_map_matches_per_label_loop(sizes, K, all_classes, lambda2, seed):
    # a joint solve holds all C class blocks, a sequential solve the last
    group = sizes if all_classes else sizes[-1:]
    W, labels = layout(group, K, seed)
    Q, S = fisher_mean_map(group, sum(sizes), lambda2)
    assert Q.shape == (sum(group), len(group)) and S.shape == Q.shape[::-1]
    _, means = column_means_by_class(W, labels)
    total = sum(n * means[b] for b, n in enumerate(group, 1))
    want = [lambda2 * (total / sum(sizes) - 2.0 * means[b]) for b in labels]
    scale = lambda2 * float(np.abs(W).max())
    np.testing.assert_allclose(W @ Q @ S, np.column_stack(want), rtol=1e-13, atol=1e-13 * scale)


@settings(max_examples=60, deadline=None)
@given(**shapes, seed=st.integers(0, 2**32 - 1))
def test_fisher_value_and_gradient(sizes, K, seed):
    X, labels = layout(sizes, K, seed)
    want = literal_fisher(X, labels)
    assert abs(fisher_value(X, sizes) - want) <= 1e-11 * max(1.0, abs(want))
    # f is quadratic, so central differences are exact up to round-off
    fd = fd_grad(lambda M: fisher_value(M, sizes), X, eps=1e-3)
    Q, S = fisher_mean_map(sizes, X.shape[1], 2.0)
    assert rel_err(4.0 * X + X @ Q @ S, fd) < 1e-7


@settings(max_examples=60, deadline=None)
@given(**shapes, k_c=st.integers(1, 3), k0=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_mean_stats_match_per_label_loop(sizes, K, k_c, k0, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((len(sizes) * k_c, sum(sizes)))
    X0 = rng.standard_normal((k0, sum(sizes)))
    labels = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    ms = mean_stats(CoefBundle(X=X, X0=X0), labels)
    _, means = column_means_by_class(X, labels)
    for c, mc in means.items():
        np.testing.assert_allclose(ms.class_mean(c), mc, rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(ms.shared_mean, X0.mean(axis=1), rtol=1e-13, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
    k_c=st.integers(1, 3),
    d=st.integers(2, 8),
    lambda1=st.floats(0.0, 1.0),
    lambda2=st.floats(0.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_no_shared_dictionary_is_fddl(sizes, k_c, d, lambda1, lambda2, seed):
    rng = np.random.default_rng(seed)
    C, N = len(sizes), sum(sizes)
    labels = np.repeat(np.arange(1, C + 1), sizes)
    data = Dataset.from_arrays(rng.standard_normal((d, N)), labels)
    class_dicts = tuple(
        normalize_columns(rng.standard_normal((d, k_c))) for _ in range(C)
    )
    dicts = DictionaryBundle(class_dicts=class_dicts, shared_dict=np.zeros((d, 0)))
    X = rng.standard_normal((C * k_c, N))
    coefs = CoefBundle(X=X, X0=np.zeros((0, N)))
    hyper = HyperParams(lambda1=lambda1, lambda2=lambda2, eta=0.3)
    mine = objective_terms(data, dicts, coefs, hyper).total
    want = fddl_objective(data.Y, list(class_dicts), X, labels, lambda1, lambda2)
    assert abs(mine - want) <= 1e-10 * max(1.0, abs(want))


# each takes labels as given and checks them against N samples X (4 x N)
AS_GIVEN = {
    "mean_stats": lambda X, labels: mean_stats(
        CoefBundle(X=X, X0=np.zeros((0, X.shape[1]))), labels
    ),
    "Dataset": lambda X, labels: Dataset(Y=X, labels=labels),
    "check_class_layout": lambda X, labels: check_class_layout(labels, X.shape[1]),
}
# from_arrays parses integral floats and sorts; on any other labels it agrees
ENTRY_POINTS = {**AS_GIVEN, "from_arrays": Dataset.from_arrays}
OUT_OF_RANGE = "labels must lie in 1..9223372036854775807"


@pytest.mark.parametrize(
    "labels, error, message",
    [
        (["1", "1", "2", "2"], DataError, "labels must be integers, got dtype <U1"),
        ([True, True, True, True], DataError, "labels must be integers, got dtype bool"),
        ([0, 1, 2, 2], DataError, OUT_OF_RANGE),
        ([-3, 1, 2, 2], DataError, OUT_OF_RANGE),
        (np.array([1, 1, 2, 2**63], dtype=np.uint64), DataError, OUT_OF_RANGE),
        ([1, 1, 3, 3], DomainError, "class 2 has zero samples"),
        (np.array([], dtype=int), DomainError, "there are no samples"),
    ],
    ids=["string", "bool", "zero", "negative", "uint64-2**63", "missing-class", "empty"],
)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_bad_labels_rejected_alike(entry, labels, error, message):
    # one rule (errors.check_labels, then check_class_layout) at every entry
    # point, so a label is never truncated, wrapped or laid out before it
    labels = np.array(labels)
    with pytest.raises(error) as info:
        ENTRY_POINTS[entry](np.zeros((4, labels.size)), labels)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "labels",
    [[1.7, 1.2, 2.9, 2.1], [1.0, 1.0, 2.0, 2.0], [1.0, np.nan, 2.0, 2.0]],
    ids=["fractional", "integral-float", "nan"],
)
@pytest.mark.parametrize("entry", AS_GIVEN)
def test_float_labels_rejected_as_given(entry, labels):
    # from_arrays alone casts integral floats (test_data.py checks its parse)
    with pytest.raises(DataError) as info:
        AS_GIVEN[entry](np.zeros((4, 4)), np.array(labels))
    assert str(info.value) == "labels must be integers, got dtype float64"


@settings(max_examples=40, deadline=None)
@given(sizes=class_sizes, seed=st.integers(0, 2**32 - 1))
def test_dataset_reads_layout_off_labels(sizes, seed):
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((3, sum(sizes)))
    labels = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    shuffled = rng.permutation(sum(sizes))
    sorted_input = Dataset.from_arrays(Y[:, shuffled], labels[shuffled])
    direct = Dataset(Y=Y, labels=labels)
    rescaled = dataclasses.replace(sorted_input, Y=2 * sorted_input.Y)
    for data in (sorted_input, direct, rescaled):
        assert (data.C, data.sizes) == (len(sizes), sizes)
        assert np.array_equal(data.labels, labels)


@pytest.mark.parametrize(
    "Y, labels, error",
    [
        (np.zeros((3, 4)), [1.7, 1.2, 2.9, 2.1], DataError),
        (np.zeros((3, 4)), [1.0, 1.0, 2.0, 2.0], DataError),
        (np.zeros((3, 4)), [True, True, True, True], DataError),
        (np.zeros((3, 4)), [1, 2], DimensionError),
        (np.zeros((3, 4)), [2, 2, 1, 1], DomainError),
        (np.zeros((3, 4)), [1, 1, 3, 3], DomainError),
        (np.array([[0.0, np.nan, 0.0, 0.0]]), [1, 1, 2, 2], DataError),
        (np.zeros(4), [1, 1, 2, 2], DimensionError),
    ],
    ids=[
        "fractional-labels",
        "integral-float-labels",
        "bool-labels",
        "short-labels",
        "unsorted-labels",
        "missing-class",
        "nan-sample",
        "1-d-samples",
    ],
)
def test_dataset_checks_samples_and_labels_when_built(Y, labels, error):
    # never truncated to a layout or trained on before the error
    with pytest.raises(error):
        Dataset(Y=Y, labels=labels)


def test_dataset_accepts_unequal_classes():
    data = Dataset(Y=np.zeros((3, 4)), labels=[1, 1, 1, 2])
    assert (data.C, data.sizes) == (2, (3, 1))
    assert check_class_layout(np.array([1, 2, 2, 2]), 4) == (1, 3)
