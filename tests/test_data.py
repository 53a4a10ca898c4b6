import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from lrsdl.data import (
    CoefBundle,
    Dataset,
    DictionaryBundle,
    HyperParams,
    LearnedModel,
    MeanStats,
    generate_synthetic,
    mean_stats,
    normalize_columns,
)
from lrsdl.errors import (
    DataError,
    DimensionError,
    DomainError,
    ParameterError,
)
from lrsdl.learner import TrainConfig, initialize


def _rand_dataset(seed=0, C=2, d=5, n_c=3):
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((d, C * n_c))
    labels = np.repeat(np.arange(1, C + 1), n_c)
    return Dataset.from_arrays(Y, labels)


class TestDataset:
    def test_from_arrays_sorted_passthrough(self):
        data = _rand_dataset()
        assert data.C == 2 and data.n_c == 3 and data.N == 6 and data.d == 5
        assert np.array_equal(data.permutation, np.arange(6))

    def test_from_arrays_resorts_and_records_permutation(self):
        rng = np.random.default_rng(1)
        Y = rng.standard_normal((4, 6))
        labels = np.array([2, 1, 2, 1, 2, 1])
        data = Dataset.from_arrays(Y, labels)
        assert np.array_equal(data.labels, [1, 1, 1, 2, 2, 2])
        assert np.array_equal(data.Y, Y[:, data.permutation])
        # stable sort keeps original relative order inside each class
        assert np.array_equal(data.permutation, [1, 3, 5, 0, 2, 4])

    def test_layout_is_read_off_the_labels(self):
        assert [f.name for f in fields(Dataset) if f.init] == ["Y", "labels", "permutation"]
        with pytest.raises(TypeError):
            Dataset(Y=np.zeros((1, 2)), labels=[1, 2], C=2, permutation=[0, 1])

    def test_class_block_columns(self):
        data = _rand_dataset()
        assert data.class_columns(2) == slice(3, 6)
        assert np.array_equal(data.class_block(1), data.Y[:, :3])
        with pytest.raises(DomainError):
            data.class_columns(3)

    def test_unequal_class_sizes_rejected(self):
        Y = np.zeros((3, 5))
        with pytest.raises(DomainError):
            Dataset.from_arrays(Y, [1, 1, 1, 2, 2])

    def test_missing_class_rejected(self):
        Y = np.zeros((3, 4))
        with pytest.raises(DomainError):
            Dataset.from_arrays(Y, [1, 1, 3, 3])

    def test_huge_label_costs_no_memory(self):
        # counting labels must not allocate in proportion to the largest one
        Y, labels = np.zeros((3, 2)), np.array([1, 10**7])
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="class 2 has zero samples"):
                Dataset.from_arrays(Y, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_bad_labels_rejected(self):
        Y = np.zeros((3, 2))
        with pytest.raises(DataError):
            Dataset.from_arrays(Y, [0, 1])
        with pytest.raises(DataError):
            Dataset.from_arrays(Y, [1.5, 2.0])
        with pytest.raises(DimensionError):
            Dataset.from_arrays(Y, [1, 1, 2])
        # rejected by name, before any cast to integers can warn or wrap
        for bad, msg in (
            ([1.0, np.inf], "finite"),
            ([1.0, -np.inf], "finite"),
            ([1.0, np.nan], "finite"),
            ([1.0, 1e300], "int64 range"),
            ([1.0, 2.0**63], "int64 range"),
            (np.array([1, 2**64 - 1], dtype=np.uint64), "int64 range"),
            ([True, True], "booleans"),
            (np.array([True, False]), "booleans"),
        ):
            with pytest.raises(DataError, match=msg):
                Dataset.from_arrays(Y, bad)

    def test_non_finite_samples_rejected(self):
        Y = np.zeros((2, 2))
        Y[0, 0] = np.inf
        with pytest.raises(DataError):
            Dataset.from_arrays(Y, [1, 2])

    def test_arrays_are_read_only(self):
        data = _rand_dataset()
        with pytest.raises(ValueError):
            data.Y[0, 0] = 5.0


class TestDictionaryBundle:
    def _bundle(self, d=4, C=2, k_c=3, k0=2, seed=0):
        rng = np.random.default_rng(seed)
        cds = tuple(
            normalize_columns(rng.standard_normal((d, k_c)), warn=False)
            for _ in range(C)
        )
        shared = normalize_columns(rng.standard_normal((d, k0)), warn=False)
        return DictionaryBundle(class_dicts=cds, shared_dict=shared)

    def test_concatenation_order(self):
        b = self._bundle()
        assert b.D.shape == (4, 6) and b.D_total.shape == (4, 8)
        assert np.array_equal(b.D[:, :3], b.class_dict(1))
        assert np.array_equal(b.D[:, 3:], b.class_dict(2))
        assert np.array_equal(b.D_total[:, 6:], b.shared_dict)
        assert b.row_block(2) == slice(3, 6)

    def test_zero_shared_columns_allowed(self):
        b = DictionaryBundle(
            class_dicts=(np.eye(3),),
            shared_dict=np.zeros((3, 2)),
        )
        assert b.k0 == 2 and b.K == 3

    def test_empty_shared_dict(self):
        b = DictionaryBundle(class_dicts=(np.eye(3),), shared_dict=np.zeros((3, 0)))
        assert b.k0 == 0
        assert b.D_total.shape == (3, 3)

    def test_class_column_norm_bounds(self):
        with pytest.raises(DataError):
            DictionaryBundle(
                class_dicts=(2.0 * np.eye(3),), shared_dict=np.zeros((3, 0))
            )
        zero_col = np.eye(3).copy()
        zero_col[:, 0] = 0.0
        with pytest.raises(DataError):
            DictionaryBundle(class_dicts=(zero_col,), shared_dict=np.zeros((3, 0)))

    def test_shared_norm_cap(self):
        with pytest.raises(DataError):
            DictionaryBundle(class_dicts=(np.eye(3),), shared_dict=1.5 * np.eye(3))

    def test_shape_consistency(self):
        with pytest.raises(DimensionError):
            DictionaryBundle(
                class_dicts=(np.eye(3), np.eye(4)), shared_dict=np.zeros((3, 0))
            )


class TestCoefBundle:
    def test_block_accessors(self):
        X = np.arange(24.0).reshape(4, 6)
        X0 = np.arange(12.0).reshape(2, 6)
        coefs = CoefBundle(X=X, X0=X0)
        assert coefs.K == 4 and coefs.k0 == 2 and coefs.N == 6

    def test_holds_the_codes_only(self):
        assert [f.name for f in fields(CoefBundle)] == ["X", "X0"]

    def test_zeros_constructor(self):
        # the zero codes a fit starts from: C k_c x N and k0 x N
        data = _rand_dataset(C=3, d=5, n_c=5)
        _, coefs = initialize(data, TrainConfig(k_c=2, k0=4), seed=0)
        assert coefs.X.shape == (6, 15) and coefs.X0.shape == (4, 15)
        assert not coefs.X.any() and not coefs.X0.any()

    def test_divisibility_checks(self):
        # the codes check their own column counts; the class blocks are
        # checked where the codes meet labels (here) or dictionaries
        # (check_shapes, class_dict_gram)
        with pytest.raises(DimensionError):
            CoefBundle(X=np.zeros((4, 6)), X0=np.zeros((0, 4)))
        five_rows = CoefBundle(X=np.ones((5, 6)), X0=np.zeros((0, 6)))
        with pytest.raises(DomainError, match="class blocks"):
            mean_stats(five_rows, np.repeat([1, 2], 3))

    def test_non_finite_rejected(self):
        X = np.zeros((2, 2))
        X[0, 0] = np.nan
        with pytest.raises(DataError):
            CoefBundle(X=X, X0=np.zeros((0, 2)))


class TestMeanStats:
    def test_two_scalar_classes(self):
        # first row holds the scalar example: columns 1 and 3 in classes 1, 2
        coefs = CoefBundle(X=np.array([[1.0, 3.0], [5.0, 7.0]]), X0=np.zeros((0, 2)))
        ms = mean_stats(coefs, np.array([1, 2]))
        assert ms.class_mean(1)[0] == pytest.approx(1.0)
        assert ms.class_mean(2)[0] == pytest.approx(3.0)

    def test_constant_columns(self):
        col = np.array([2.0, -1.0, 0.5])
        X = np.tile(col[:, None], (1, 4))
        coefs = CoefBundle(X=X, X0=np.zeros((0, 4)))
        ms = mean_stats(coefs, np.array([1, 1, 1, 1]))
        assert np.allclose(ms.class_mean(1), col)

    def test_matches_brute_force_average(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((4, 6))
        X0 = rng.standard_normal((2, 6))
        labels = np.repeat([1, 2], 3)
        coefs = CoefBundle(X=X, X0=X0)
        ms = mean_stats(coefs, labels)
        for c in (1, 2):
            want = X[:, labels == c].sum(axis=1) / 3.0
            assert np.allclose(ms.class_mean(c), want, atol=1e-12)
        assert np.allclose(ms.shared_mean, X0.sum(axis=1) / 6.0, atol=1e-12)

    def test_class_deviations_sum_to_zero(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((6, 8))
        coefs = CoefBundle(X=X, X0=np.zeros((0, 8)))
        labels = np.repeat([1, 2], 4)
        ms = mean_stats(coefs, labels)
        for c in (1, 2):
            dev = X[:, labels == c] - ms.class_mean(c)[:, None]
            assert np.max(np.abs(dev.sum(axis=1))) < 1e-10

    def test_zero_sample_class_rejected(self):
        coefs = CoefBundle(X=np.zeros((2, 2)), X0=np.zeros((0, 2)))
        with pytest.raises(DomainError):
            mean_stats(coefs, np.array([1, 3]))


class TestLearnedModel:
    """The code means must have the shapes the dictionaries give: class
    means K x C and the shared mean (k0,), here with C = 3, k_c = 2, k0 = 2."""

    def _model(self, class_means, shared_mean):
        rng = np.random.default_rng(3)
        dicts = DictionaryBundle(
            class_dicts=tuple(
                normalize_columns(rng.standard_normal((5, 2)), warn=False) for _ in range(3)
            ),
            shared_dict=normalize_columns(rng.standard_normal((5, 2)), warn=False),
        )
        means = MeanStats(class_means=class_means, shared_mean=shared_mean)
        return LearnedModel(dict_bundle=dicts, mean_stats=means, hyper=HyperParams(), trace=())

    def test_matching_means_accepted(self):
        model = self._model(np.zeros((6, 3)), np.zeros(2))
        assert model.C == 3 and model.d == 5

    @pytest.mark.parametrize(
        "class_shape, shared_shape",
        [((6, 2), (2,)), ((5, 3), (2,)), ((6, 4), (2,)), ((6, 3), (3,)), ((6, 3), (2, 1))],
    )
    def test_mismatched_means_rejected(self, class_shape, shared_shape):
        with pytest.raises(DimensionError, match="code means"):
            self._model(np.zeros(class_shape), np.zeros(shared_shape))


class TestHyperParams:
    def test_defaults_valid(self):
        h = HyperParams()
        assert h.lambda1 == 0.001 and h.lambda2 == 0.01
        assert h.w == 0.5 and h.outer_iters == 15

    def test_validation(self):
        with pytest.raises(ParameterError):
            HyperParams(lambda1=-0.1)
        for name in ("lambda1", "lambda2", "eta"):
            for bad in (np.nan, np.inf):
                with pytest.raises(ParameterError):
                    HyperParams(**{name: bad})
        with pytest.raises(ParameterError):
            HyperParams(w=1.5)
        with pytest.raises(ParameterError):
            HyperParams(outer_iters=0)
        for name in ("outer_iters", "fista_iters", "admm_iters"):
            for bad in (float("nan"), 2.5, True):
                with pytest.raises(ParameterError):
                    HyperParams(**{name: bad})
        for bad in (-1, 1.5, "x", True):
            with pytest.raises(ParameterError):
                HyperParams(seed=bad)
        assert HyperParams(seed=np.int64(3)).seed == 3

    def test_zero_weights_allowed(self):
        h = HyperParams(lambda1=0.0, lambda2=0.0, eta=0.0)
        assert h.lambda1 == 0.0


class TestGenerateSynthetic:
    def test_noiseless_samples_live_in_class_span(self):
        data, truth = generate_synthetic(
            C=3, d=12, n_c=4, k_c=3, k0=0, shared_rank=0, noise_sigma=0.0, seed=2
        )
        for c in range(1, 4):
            block = data.class_block(c)
            Dc = truth.class_dict(c)
            sol, *_ = np.linalg.lstsq(Dc, block, rcond=None)
            assert np.linalg.norm(block - Dc @ sol) < 1e-10

    def test_determinism(self):
        a, _ = generate_synthetic(
            C=2, d=6, n_c=3, k_c=2, k0=3, shared_rank=2, noise_sigma=0.1, seed=9
        )
        b, _ = generate_synthetic(
            C=2, d=6, n_c=3, k_c=2, k0=3, shared_rank=2, noise_sigma=0.1, seed=9
        )
        assert np.array_equal(a.Y, b.Y)
        assert np.array_equal(a.labels, b.labels)

    def test_planted_shared_rank(self):
        _, truth = generate_synthetic(
            C=2, d=15, n_c=3, k_c=2, k0=10, shared_rank=2, noise_sigma=0.0, seed=4
        )
        s = np.linalg.svd(truth.shared_dict, compute_uv=False)
        assert int(np.sum(s > 1e-10)) == 2

    def test_labels_contiguous(self):
        data, _ = generate_synthetic(
            C=4, d=5, n_c=2, k_c=2, k0=0, shared_rank=0, noise_sigma=0.0, seed=0
        )
        assert np.array_equal(data.labels, np.repeat([1, 2, 3, 4], 2))

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            generate_synthetic(
                C=2, d=4, n_c=2, k_c=2, k0=2, shared_rank=3, noise_sigma=0.0, seed=0
            )
        with pytest.raises(ParameterError):
            generate_synthetic(
                C=0, d=4, n_c=2, k_c=2, k0=0, shared_rank=0, noise_sigma=0.0, seed=0
            )
        good = dict(C=2, d=4, n_c=2, k_c=2, k0=1, shared_rank=1, noise_sigma=0.0, seed=0)
        for name, bad in (
            ("seed", -1), ("seed", 1.5), ("seed", "x"), ("C", 2.5), ("d", True),
            ("n_c", 2.5), ("k_c", 1.5), ("k0", 1.5), ("shared_rank", 0.5),
            ("noise_sigma", -1.0), ("noise_sigma", np.nan), ("noise_sigma", np.inf),
            ("noise_sigma", 1e308),
            ("shared_scale", np.nan), ("shared_scale", np.inf), ("shared_scale", -np.inf),
        ):
            with pytest.raises(ParameterError):
                generate_synthetic(**{**good, name: bad})
        generate_synthetic(**{**good, "seed": np.int64(1)})


def test_normalize_columns_keeps_zero_columns():
    M = np.array([[3.0, 0.0], [4.0, 0.0]])
    with pytest.warns(UserWarning):
        out = normalize_columns(M)
    assert np.allclose(out[:, 0], [0.6, 0.8])
    assert not out[:, 1].any()


def test_normalize_columns_plain_division_for_ordinary_columns():
    M = np.random.default_rng(40).standard_normal((7, 5))
    assert np.array_equal(normalize_columns(M), M / np.linalg.norm(M, axis=0))


@pytest.mark.parametrize("scale", [1e300, 1e-160, 1e-300])
def test_normalize_columns_survives_extreme_scales(scale):
    # squaring these entries overflows, or underflows into subnormals or
    # zero; the columns must still come out unit norm, not zero
    M = np.random.default_rng(41).standard_normal((7, 5))
    out = normalize_columns(M * scale)
    assert np.allclose(np.linalg.norm(out, axis=0), 1.0, rtol=1e-14)
    assert np.allclose(out, normalize_columns(M), rtol=1e-14, atol=1e-15)
