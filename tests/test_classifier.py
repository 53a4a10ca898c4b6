"""Classifier tests.

The test-sample coding is checked against coordinate descent on an
equivalent augmented lasso design, plus the optimality conditions of the
composite objective. Decision-rule tests use hand-built models with
orthogonal class subspaces where the right answer is known exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrsdl.classifier import (
    Prediction,
    classify,
    evaluate,
    score_predictions,
)
from lrsdl.classifier import test_coding_lipschitz as coding_lipschitz
from lrsdl.data import (
    Dataset,
    DictionaryBundle,
    HyperParams,
    LearnedModel,
    MeanStats,
    generate_synthetic,
    normalize_columns,
)
from lrsdl.errors import (
    DataError,
    DimensionError,
    NumericalError,
    ParameterError,
)
from lrsdl.learner import TrainConfig, fit
from lrsdl.prox import FISTA_TOL

from oracles import cd_lasso, lasso_objective


def block_model(C=3, k_c=3, lambda1=1e-4, lambda2=0.0, w=1.0, class_means=None):
    """Model whose class dictionaries are disjoint coordinate blocks."""
    d = C * k_c
    eye = np.eye(d)
    dicts = DictionaryBundle(D=eye, shared_dict=np.zeros((d, 0)), C=C)
    K = C * k_c
    if class_means is None:
        class_means = np.zeros((K, C))
    means = MeanStats(
        class_means=class_means,
        shared_mean=np.zeros(0),
    )
    hyper = HyperParams(lambda1=lambda1, lambda2=lambda2, w=w)
    return LearnedModel(dict_bundle=dicts, mean_stats=means, hyper=hyper, trace=())


def fitted_model(seed=0, C=3, d=18, n_c=6, k_c=3, k0=2, iters=4):
    data, _ = generate_synthetic(
        C=C, d=d, n_c=n_c, k_c=k_c, k0=k0,
        shared_rank=min(2, k0), noise_sigma=0.05, seed=seed,
    )
    hyper = HyperParams(
        lambda1=0.01, lambda2=0.05, eta=0.1, outer_iters=iters, fista_iters=40
    )
    return data, fit(data, TrainConfig(hyper=hyper, k_c=k_c, k0=k0))


class TestEncodeTest:
    def test_zero_solution_when_l1_dominates(self):
        model = block_model(lambda1=10.0)
        y = np.random.default_rng(0).standard_normal(model.d)
        # after unit normalization |D^T y|_inf <= 1 < lambda1
        code = classify(y, model).code
        assert np.array_equal(code, np.zeros_like(code))

    def test_orthonormal_unpenalized_recovers_analysis_coefficients(self):
        model = block_model(lambda1=0.0, lambda2=0.0)
        rng = np.random.default_rng(1)
        y = rng.standard_normal(model.d)
        code = classify(y, model).code
        want = model.dict_bundle.D_total.T @ (y / np.linalg.norm(y))
        assert np.max(np.abs(code - want)) < 1e-6

    def test_matches_coordinate_descent_on_augmented_design(self):
        data, model = fitted_model(seed=2)
        dicts = model.dict_bundle
        K, k0 = dicts.K, dicts.k0
        lam1, lam2 = model.hyper.lambda1, model.hyper.lambda2
        m0 = model.mean_stats.shared_mean
        rng = np.random.default_rng(3)
        root = np.sqrt(lam2)
        # stack the mean pull as extra rows: rows [sqrt(lam2) * (x0 - m0)]
        pad = np.hstack([np.zeros((k0, K)), np.eye(k0)])
        A = np.vstack([dicts.D_total, root * pad])
        for _ in range(3):
            y = rng.standard_normal(model.d)
            yn = y / np.linalg.norm(y)
            b = np.concatenate([yn, root * m0])
            code = classify(y, model).code
            ref = cd_lasso(A, b, lam1)
            mine = lasso_objective(A, b, lam1, code)
            best = lasso_objective(A, b, lam1, ref)
            assert mine <= best + 1e-6

    def test_satisfies_optimality_conditions(self):
        data, model = fitted_model(seed=4)
        dicts = model.dict_bundle
        lam1, lam2 = model.hyper.lambda1, model.hyper.lambda2
        m0 = model.mean_stats.shared_mean
        y = np.random.default_rng(5).standard_normal(model.d)
        yn = y / np.linalg.norm(y)
        code = classify(y, model).code
        g = dicts.D_total.T @ (dicts.D_total @ code - yn)
        g[dicts.K :] += lam2 * (code[dicts.K :] - m0)
        active = code != 0
        assert np.all(np.abs(g[active] + lam1 * np.sign(code[active])) < 1e-4)
        assert np.all(np.abs(g[~active]) <= lam1 + 1e-4)

    def test_zero_sample_warns_and_codes_to_zero(self, caplog):
        import logging

        model = block_model(lambda1=0.1)
        with caplog.at_level(logging.WARNING, logger="lrsdl.classifier"):
            code = classify(np.zeros(model.d), model).code
        assert np.array_equal(code, np.zeros_like(code))
        assert any("zero-norm" in r.message for r in caplog.records)

    def test_zero_sample_warns_once_per_classify(self, caplog):
        import logging

        model = block_model(lambda1=0.1)
        Y = np.random.default_rng(3).standard_normal((model.d, 4))
        Y[:, 2] = 0.0
        with caplog.at_level(logging.WARNING, logger="lrsdl.classifier"):
            classify(Y, model)
        assert [r.getMessage() for r in caplog.records] == [
            "1 zero-norm test sample(s) left unnormalized"
        ]

    def test_bad_samples_rejected(self):
        model = block_model()
        with pytest.raises(DimensionError):
            classify(np.zeros(model.d + 1), model)
        with pytest.raises(DimensionError):
            classify(np.zeros((model.d + 1, 2)), model)
        with pytest.raises(DataError):
            classify(np.full(model.d, np.nan), model)

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_extreme_sample_scale_keeps_labels(self, scale):
        # squaring these entries overflows or underflows; the sample must
        # still be normalized, not coded as the zero vector
        data, model = fitted_model(seed=7)
        for j in range(data.N):
            y = data.Y[:, j]
            want = classify(y, model)
            got = classify(y * scale, model)
            assert got.label == want.label
            assert np.allclose(got.code, want.code, atol=1e-6)

    def test_lipschitz_bounds_gram(self):
        _, model = fitted_model(seed=6)
        Dt = model.dict_bundle.D_total
        K, lam2 = model.dict_bundle.K, model.hyper.lambda2
        H = Dt.T @ Dt
        H[K:, K:] += lam2 * np.eye(model.dict_bundle.k0)
        L = coding_lipschitz(H)
        assert L == pytest.approx(float(np.linalg.eigvalsh(H)[-1]), rel=1e-12)
        # the shared-code pull only adds to H, by at most lambda2
        gram_max = float(np.linalg.eigvalsh(Dt.T @ Dt)[-1])
        assert gram_max - 1e-12 <= L <= gram_max + lam2 + 1e-12


class TestDecisionRule:
    def test_residual_only_matches_atom(self):
        model = block_model(w=1.0)
        for c in range(1, model.C + 1):
            atom = model.dict_bundle.class_dict(c)[:, 0]
            pred = classify(atom, model, w=1.0)
            assert pred.label == c
            assert pred.per_class_scores[c - 1] == np.min(pred.per_class_scores)

    def test_mean_only_rule(self):
        # w=0 scores reduce to distances between code and class means
        K = 9
        class_means = np.zeros((K, 3))
        class_means[0, 0] = 1.0
        class_means[3, 1] = 1.0
        class_means[6, 2] = 1.0
        model = block_model(lambda1=1e-4, w=0.0, class_means=class_means)
        y = model.dict_bundle.class_dict(2)[:, 0]
        pred = classify(y, model, w=0.0)
        code = pred.code
        for c in (1, 2, 3):
            want = float(np.sum((code[:K] - class_means[:, c - 1]) ** 2))
            assert pred.per_class_scores[c - 1] == pytest.approx(want)
        # the coded sample sits on class 2's first atom
        assert pred.label == 2

    def test_symmetric_tie_takes_lowest_label(self):
        d, k = 6, 2
        base = np.linalg.qr(np.random.default_rng(7).standard_normal((d, k)))[0]
        dicts = DictionaryBundle(D=np.hstack((base, base)), shared_dict=np.zeros((d, 0)), C=2)
        means = MeanStats(
            class_means=np.zeros((2 * k, 2)),
            shared_mean=np.zeros(0),
        )
        model = LearnedModel(
            dict_bundle=dicts,
            mean_stats=means,
            hyper=HyperParams(lambda1=0.01),
            trace=(),
        )
        pred = classify(np.random.default_rng(8).standard_normal(d), model)
        assert pred.label == 1

    def test_weighted_score_formula(self):
        data, model = fitted_model(seed=9)
        y = np.random.default_rng(10).standard_normal(model.d)
        yn = y / np.linalg.norm(y)
        w = 0.3
        pred = classify(y, model, w=w)
        dicts = model.dict_bundle
        K = dicts.K
        x, x0 = pred.code[:K], pred.code[K:]
        ybar = yn - dicts.shared_dict @ x0
        for c in range(1, model.C + 1):
            resid = ybar - dicts.class_dict(c) @ x[dicts.row_block(c)]
            dist = x - model.mean_stats.class_mean(c)
            want = w * float(np.sum(resid**2)) + (1 - w) * float(np.sum(dist**2))
            assert pred.per_class_scores[c - 1] == pytest.approx(want, rel=1e-12)
        assert pred.label == int(np.argmin(pred.per_class_scores)) + 1

    def test_scores_finite_nonnegative(self):
        data, model = fitted_model(seed=11)
        y = np.random.default_rng(12).standard_normal(model.d)
        for w in (0.0, 0.5, 1.0):
            pred = classify(y, model, w=w)
            assert pred.per_class_scores.shape == (model.C,)
            assert np.all(np.isfinite(pred.per_class_scores))
            assert np.all(pred.per_class_scores >= 0)

    def test_default_weight_comes_from_model(self):
        data, model = fitted_model(seed=13)
        y = np.random.default_rng(14).standard_normal(model.d)
        a = classify(y, model)
        b = classify(y, model, w=model.hyper.w)
        assert a.label == b.label
        assert np.array_equal(a.per_class_scores, b.per_class_scores)

    def test_weight_validation(self):
        model = block_model()
        with pytest.raises(ParameterError):
            classify(np.ones(model.d), model, w=1.5)
        with pytest.raises(ParameterError):
            classify(np.ones(model.d), model, w=-0.1)

    def test_residual_rule_reduces_to_sparse_residual_classifier(self):
        # w=1, no shared dict, no mean pull: the decision is exactly the
        # per-class reconstruction residual of the single joint code
        model = block_model(lambda1=0.01, lambda2=0.0, w=1.0)
        rng = np.random.default_rng(15)
        y = model.dict_bundle.class_dict(3) @ np.abs(rng.standard_normal(3)) + \
            0.01 * rng.standard_normal(model.d)
        pred = classify(y, model, w=1.0)
        yn = y / np.linalg.norm(y)
        x = pred.code
        resids = []
        for c in range(1, 4):
            rows = model.dict_bundle.row_block(c)
            recon = model.dict_bundle.class_dict(c) @ x[rows]
            resids.append(float(np.sum((yn - recon) ** 2)))
        assert np.allclose(pred.per_class_scores, resids, rtol=1e-12)
        assert pred.label == 3


class TestEvaluate:
    def test_orthogonal_subspaces_classified_perfectly(self):
        model = block_model(C=3, k_c=3, lambda1=1e-4, w=1.0)
        rng = np.random.default_rng(16)
        cols = []
        labels = []
        for c in range(1, 4):
            basis = model.dict_bundle.class_dict(c)
            for _ in range(5):
                coef = rng.uniform(0.5, 1.5, size=3)
                cols.append(basis @ coef)
                labels.append(c)
        test = Dataset.from_arrays(np.array(cols).T, np.array(labels))
        # sanity: the classes really are separable by subspace residual
        for j in range(test.N):
            y = test.Y[:, j] / np.linalg.norm(test.Y[:, j])
            true = int(test.labels[j])
            for c in range(1, 4):
                basis = model.dict_bundle.class_dict(c)
                proj = basis @ (basis.T @ y)
                gap = float(np.sum((y - proj) ** 2))
                if c == true:
                    assert gap < 1e-12
                else:
                    assert gap > 0.99
        acc, confusion = evaluate(test, model)
        assert acc >= 0.99
        assert confusion.sum() == test.N
        assert np.array_equal(confusion, np.diag([5, 5, 5]))

    def test_constant_predictor_on_balanced_pair(self):
        # identical dictionaries and identical means force label 1 always
        d, k = 6, 2
        base = np.linalg.qr(np.random.default_rng(17).standard_normal((d, k)))[0]
        dicts = DictionaryBundle(D=np.hstack((base, base)), shared_dict=np.zeros((d, 0)), C=2)
        means = MeanStats(
            class_means=np.zeros((2 * k, 2)),
            shared_mean=np.zeros(0),
        )
        model = LearnedModel(
            dict_bundle=dicts,
            mean_stats=means,
            hyper=HyperParams(lambda1=0.01),
            trace=(),
        )
        rng = np.random.default_rng(18)
        Y = rng.standard_normal((d, 8))
        labels = np.repeat([1, 2], 4)
        acc, confusion = evaluate(Dataset.from_arrays(Y, labels), model)
        assert acc == pytest.approx(0.5)
        assert np.array_equal(confusion[:, 0], [4, 4])
        assert confusion[:, 1].sum() == 0

    def test_matches_single_sample_loop(self):
        data, model = fitted_model(seed=19)
        acc, confusion = evaluate(data, model)
        hits = 0
        for j in range(data.N):
            pred = classify(data.Y[:, j], model)
            hits += pred.label == int(data.labels[j])
        assert acc == pytest.approx(hits / data.N)
        assert confusion.sum() == data.N
        counts = np.array([np.sum(data.labels == c) for c in range(1, data.C + 1)])
        assert np.array_equal(confusion.sum(axis=1), counts)

    def test_dimension_mismatch_rejected(self):
        data, model = fitted_model(seed=20)
        bad = Dataset.from_arrays(
            np.random.default_rng(21).standard_normal((model.d + 1, 6)),
            np.repeat([1, 2, 3], 2),
        )
        with pytest.raises(DimensionError):
            evaluate(bad, model)
        two_class = Dataset.from_arrays(
            np.random.default_rng(22).standard_normal((model.d, 4)),
            np.repeat([1, 2], 2),
        )
        with pytest.raises(DimensionError):
            evaluate(two_class, model)

    def test_plain_samples_with_unequal_class_counts(self):
        # a held-out set of 5, 2 and 1 samples per class, in no particular
        # order, as plain samples and as the Dataset they sort into
        data, model = fitted_model(seed=24)
        cols = np.array([0, 1, 2, 3, 4, 6, 7, 12])
        order = np.random.default_rng(25).permutation(cols.size)
        Y, labels = data.Y[:, cols[order]], data.labels[cols[order]]
        held_out = Dataset.from_arrays(Y, labels)
        assert held_out.sizes == (5, 2, 1)
        acc, confusion = evaluate((Y, labels), model)
        assert np.array_equal(evaluate(held_out, model)[1], confusion)
        preds = [classify(Y[:, j], model).label for j in range(cols.size)]
        assert acc == pytest.approx(np.mean(np.array(preds) == labels))
        assert np.array_equal(confusion.sum(axis=1), [5, 2, 1])
        assert confusion[labels - 1, np.array(preds) - 1].all()

    def test_plain_samples_checked(self):
        data, model = fitted_model(seed=26)
        Y, labels = data.Y[:, :4], data.labels[:4]
        with pytest.raises(DimensionError):
            evaluate((Y, labels[:3]), model)
        with pytest.raises(DimensionError):
            evaluate((Y[:-1], labels), model)
        with pytest.raises(DataError):
            evaluate((Y, labels + 0.5), model)
        with pytest.raises(DataError):
            evaluate((Y, np.full(4, model.C + 1)), model)

    def test_empty_labeled_set_rejected(self):
        # an accuracy over no samples is undefined, not NaN
        _, model = fitted_model(seed=26)
        with pytest.raises(DataError, match="no labeled samples"):
            evaluate((np.zeros((model.d, 0)), np.zeros(0, dtype=int)), model)
        with pytest.raises(DataError, match="no labeled samples"):
            score_predictions([], [], model.C)

    @pytest.mark.parametrize(
        "labels, predicted",
        [([1, 2], [1, 2, 1]), ([1, 2, 1], [1, 2]), ([[1, 2]], [1, 2]), (1, 1)],
        ids=["too-few", "too-many", "2-d", "scalar"],
    )
    def test_score_predictions_checks_label_shape(self, labels, predicted):
        # the one label shape check evaluate and `lrsdl classify` share
        with pytest.raises(DimensionError, match="labels of shape"):
            score_predictions(labels, predicted, 2)

    @pytest.mark.parametrize(
        "labels",
        [[1.7, 2.2], [1.0, 2.0], np.array([True, True]), np.array(["1", "2"])],
        ids=["fractional", "integral-float", "bool", "str"],
    )
    def test_score_predictions_rejects_non_integer_labels(self, labels):
        # the check evaluate and `lrsdl classify` share: true labels are
        # never truncated or cast into 1..C
        with pytest.raises(DataError, match="labels must be integers"):
            score_predictions(labels, [1, 2], 2)

    @pytest.mark.parametrize(
        "predicted",
        [[0, 2], [1, 3], [1.7, 2.0], [True, True]],
        ids=["zero", "above-C", "fractional", "bool"],
    )
    def test_score_predictions_rejects_bad_predicted_labels(self, predicted):
        # predicted labels follow the rule true labels follow: a 0 is not
        # wrapped into column C, a 1.7 not truncated to 1, a 3 not an IndexError
        with pytest.raises(DataError, match="^predicted labels must"):
            score_predictions([1, 2], predicted, 2)


class TestBatchedClassify:
    def test_batch_shapes(self):
        data, model = fitted_model(seed=23)
        pred = classify(data.Y[:, :5], model)
        assert pred.label.shape == (5,)
        assert pred.per_class_scores.shape == (model.C, 5)
        assert pred.code.shape == (model.dict_bundle.K + model.dict_bundle.k0, 5)
        one = classify(data.Y[:, 0], model)
        assert isinstance(one.label, int)
        assert one.per_class_scores.shape == (model.C,)

    def test_empty_and_one_column_batches(self):
        data, model = fitted_model(seed=23)
        K = model.dict_bundle.K + model.dict_bundle.k0
        empty = classify(np.zeros((model.d, 0)), model)
        assert empty.label.shape == (0,)
        assert empty.per_class_scores.shape == (model.C, 0)
        assert empty.code.shape == (K, 0)
        one = classify(data.Y[:, [3]], model)
        assert one.label.shape == (1,)
        assert one.per_class_scores.shape == (model.C, 1)
        assert one.code.shape == (K, 1)
        # a batch of one column is solved as the lone sample is, bit for bit
        lone = classify(data.Y[:, 3], model)
        assert one.label[0] == lone.label
        assert one.per_class_scores[:, 0].tobytes() == lone.per_class_scores.tobytes()
        assert one.code[:, 0].tobytes() == lone.code.tobytes()

    def test_samples_normalized_once_per_call(self, monkeypatch):
        from lrsdl import classifier

        shapes = []

        def counting(M):
            shapes.append(np.shape(M))
            return normalize_columns(M)

        monkeypatch.setattr(classifier, "normalize_columns", counting)
        model = block_model()
        Y = np.random.default_rng(27).standard_normal((model.d, 5))
        classify(Y[:, 0], model)
        assert shapes == [(model.d, 1)]
        shapes.clear()
        classify(Y, model)
        assert shapes == [(model.d, 5)]

    def test_bad_batches_rejected(self):
        model = block_model()
        with pytest.raises(DimensionError):
            classify(np.zeros((model.d + 1, 3)), model)
        with pytest.raises(DimensionError):
            classify(np.zeros((model.d, 2, 2)), model)
        Y = np.ones((model.d, 3))
        Y[0, 1] = np.inf
        with pytest.raises(DataError):
            classify(Y, model)


@settings(max_examples=40, deadline=None)
@given(
    C=st.integers(1, 4),
    k_c=st.integers(1, 3),
    k0=st.integers(0, 3),
    d=st.integers(2, 10),
    n_random=st.integers(1, 4),
    zero_column=st.booleans(),
    duplicate=st.booleans(),
    lambda1=st.floats(1e-3, 0.2),
    lambda2=st.floats(0.0, 1.0),
    w=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_equals_per_sample(
    C, k_c, k0, d, n_random, zero_column, duplicate, lambda1, lambda2, w, seed
):
    """Batched classify gives each column the label, and to round-off the
    test-coding objective, that classify of that sample alone gives; N = 1
    batches, zero samples and repeated samples included.

    The batch and a lone sample share every step of the solver but not every
    bit: BLAS sums H @ X for a matrix in another order than H @ x for a
    vector. Codes then agree to about 1e-14, except where the monotone test
    meets a tie in the last bit of the objective (a candidate as good as the
    kept iterate): one side then restarts or stops where the other does not.
    There codes differ by up to ~1e-8 (7 of 3717 columns sampled differ by
    more than 1e-10) while the objective still agrees to ~1e-14, so codes
    and scores are held to the solver tolerance and the objective to 1e-12.
    """
    rng = np.random.default_rng(seed)

    def unit(shape):
        M = rng.standard_normal(shape)
        return M / np.linalg.norm(M, axis=0)

    dicts = DictionaryBundle(
        D=np.hstack([unit((d, k_c)) for _ in range(C)]), shared_dict=unit((d, k0)), C=C
    )
    K = C * k_c
    class_means = 0.3 * rng.standard_normal((K, C))
    means = MeanStats(
        class_means=class_means,
        shared_mean=0.3 * rng.standard_normal(k0),
    )
    model = LearnedModel(
        dict_bundle=dicts,
        mean_stats=means,
        hyper=HyperParams(lambda1=lambda1, lambda2=lambda2, w=w, seed=seed % 1000),
        trace=(),
    )
    cols = [rng.standard_normal(d) for _ in range(n_random)]
    if zero_column:
        cols.append(np.zeros(d))
    if duplicate:
        cols.append(cols[0].copy())
    Y = np.stack(cols, axis=1)

    def objective(y, x):
        norm = np.linalg.norm(y)
        r = (y / norm if norm > 0 else y) - dicts.D_total @ x
        s = x[K:] - means.shared_mean
        return 0.5 * r @ r + 0.5 * lambda2 * s @ s + lambda1 * np.abs(x).sum()

    batch = classify(Y, model)
    tol = FISTA_TOL
    for j in range(Y.shape[1]):
        one = classify(Y[:, j], model)
        assert batch.label[j] == one.label
        assert objective(Y[:, j], batch.code[:, j]) == pytest.approx(
            objective(Y[:, j], one.code), rel=1e-12, abs=1e-12
        )
        np.testing.assert_allclose(batch.code[:, j], one.code, rtol=tol, atol=tol)
        np.testing.assert_allclose(
            batch.per_class_scores[:, j], one.per_class_scores, rtol=tol, atol=tol
        )
