import tracemalloc
import warnings
from dataclasses import fields, replace

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
from lrsdl.classifier import classify
from lrsdl.errors import check_real
from lrsdl.learner import TrainConfig, fit, initialize
from lrsdl.matio import save_matrix
from lrsdl.prox import SmoothObjective, admm_nuclear, fista, soft_threshold, svt


def _rand_dataset(seed=0, C=2, d=5, n_c=3):
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((d, C * n_c))
    labels = np.repeat(np.arange(1, C + 1), n_c)
    return Dataset.from_arrays(Y, labels)


class TestDataset:
    def test_from_arrays_sorted_passthrough(self):
        data = _rand_dataset()
        assert data.C == 2 and data.sizes == (3, 3) and data.N == 6 and data.d == 5
        Y = np.random.default_rng(0).standard_normal((5, 6))
        assert np.array_equal(data.Y, Y)

    def test_from_arrays_resorts_stably(self):
        rng = np.random.default_rng(1)
        Y = rng.standard_normal((4, 6))
        labels = np.array([2, 1, 2, 1, 2, 1])
        data = Dataset.from_arrays(Y, labels)
        assert np.array_equal(data.labels, [1, 1, 1, 2, 2, 2])
        # stable sort keeps original relative order inside each class
        assert np.array_equal(data.Y, Y[:, [1, 3, 5, 0, 2, 4]])

    def test_layout_is_read_off_the_labels(self):
        assert [f.name for f in fields(Dataset) if f.init] == ["Y", "labels"]
        with pytest.raises(TypeError):
            Dataset(Y=np.zeros((1, 2)), labels=[1, 2], C=2)

    def test_class_block_columns(self):
        data = _rand_dataset()
        assert data.class_columns(2) == slice(3, 6)
        assert np.array_equal(data.class_block(1), data.Y[:, :3])
        with pytest.raises(DomainError):
            data.class_columns(3)

    def test_unequal_class_sizes_accepted(self):
        Y = np.arange(10.0).reshape(2, 5)
        data = Dataset.from_arrays(Y, [2, 1, 1, 2, 1])
        assert data.C == 2 and data.sizes == (3, 2)
        assert data.class_columns(2) == slice(3, 5)
        assert np.array_equal(data.class_block(2), Y[:, [0, 3]])

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
            # integer and boolean labels meet errors.check_labels' messages
            (np.array([1, 2**64 - 1], dtype=np.uint64), r"lie in 1\.\.9223372036854775807$"),
            ([True, True], "integers, got dtype bool"),
            (np.array([True, False]), "integers, got dtype bool"),
        ):
            with pytest.raises(DataError, match=msg):
                Dataset.from_arrays(Y, bad)

    @pytest.mark.parametrize(
        "labels",
        [
            np.array(["1", "1", "2", "2"]),
            np.array([b"1", b"1", b"2", b"2"]),
            np.array([1, 1, 2, 2], dtype=object),
            np.array([1, 1, 2, 2], dtype=complex),
        ],
        ids=["str", "bytes", "object", "complex"],
    )
    def test_non_numeric_label_dtypes_rejected(self, labels):
        # only integer and real floating labels are parsed; these must not
        # become a C=2 Dataset, nor warn on a cast
        with pytest.raises(DataError, match="labels must be integers"):
            Dataset.from_arrays(np.zeros((2, 4)), labels)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.float32, np.float64])
    def test_integer_and_integral_float_labels_accepted(self, dtype):
        data = Dataset.from_arrays(np.zeros((2, 4)), np.array([2, 1, 2, 1], dtype=dtype))
        assert data.C == 2 and data.labels.dtype == np.int64
        assert np.array_equal(data.labels, [1, 1, 2, 2])

    def test_non_finite_samples_rejected(self):
        Y = np.zeros((2, 2))
        Y[0, 0] = np.inf
        with pytest.raises(DataError):
            Dataset.from_arrays(Y, [1, 2])

    def test_arrays_are_read_only(self):
        data = _rand_dataset()
        with pytest.raises(ValueError):
            data.Y[0, 0] = 5.0


@pytest.mark.parametrize("c", [0, 4], ids=["zero", "C+1"])
@pytest.mark.parametrize("accessor", ["class_columns", "class_dict", "row_block", "class_mean"])
def test_class_accessors_reject_classes_outside_1_to_C(accessor, c):
    # class 0 would wrap around to class C, and class C+1 slice past the end
    C = 3
    owners = {
        "class_columns": _rand_dataset(C=C),
        "class_dict": DictionaryBundle(D=np.tile(np.eye(2), C), shared_dict=np.zeros((2, 0)), C=C),
        "class_mean": MeanStats(class_means=np.ones((2 * C, C)), shared_mean=np.zeros(0)),
    }
    owners["row_block"] = owners["class_dict"]
    with pytest.raises(DomainError, match=f"class {c} outside 1..{C}"):
        getattr(owners[accessor], accessor)(c)


class TestDictionaryBundle:
    def _bundle(self, d=4, C=2, k_c=3, k0=2, seed=0):
        rng = np.random.default_rng(seed)
        D = np.hstack([normalize_columns(rng.standard_normal((d, k_c))) for _ in range(C)])
        shared = normalize_columns(rng.standard_normal((d, k0)))
        return DictionaryBundle(D=D, shared_dict=shared, C=C)

    def test_holds_the_stack_only(self):
        # the class dictionaries are stored stacked, never as a list beside D
        assert [f.name for f in fields(DictionaryBundle)] == ["D", "shared_dict", "C", "D_total"]

    def test_concatenation_order(self):
        b = self._bundle()
        assert b.D.shape == (4, 6) and b.D_total.shape == (4, 8)
        assert (b.d, b.C, b.k_c, b.K, b.k0) == (4, 2, 3, 6, 2)
        assert np.array_equal(b.D_total[:, :6], b.D)
        assert np.array_equal(b.D_total[:, 6:], b.shared_dict)
        assert b.row_block(2) == slice(3, 6)
        for c, cols in ((1, slice(0, 3)), (2, slice(3, 6))):
            assert np.array_equal(b.class_dict(c), b.D[:, cols])
            assert np.shares_memory(b.class_dict(c), b.D)

    def test_zero_shared_columns_allowed(self):
        b = DictionaryBundle(D=np.eye(3), shared_dict=np.zeros((3, 2)), C=1)
        assert b.k0 == 2 and b.K == 3

    def test_empty_shared_dict(self):
        b = DictionaryBundle(D=np.eye(3), shared_dict=np.zeros((3, 0)), C=1)
        assert b.k0 == 0
        assert b.D_total.shape == (3, 3)

    def test_class_column_norm_bounds(self):
        # a column that is too long, zero, NaN or Inf; the error names the
        # class of the first bad column (columns 4 and 6 of three classes)
        for value, fault in (
            (2.0, "column norms outside"),
            (1e200, "column norms outside"),  # its norm overflows, with no warning
            (0.0, "column norms outside"),
            (np.nan, "contains NaN or Inf"),
            (np.inf, "contains NaN or Inf"),
        ):
            D = np.eye(6)
            D[[3, 5], [3, 5]] = value
            with pytest.raises(DataError, match=f"class dictionary 2 {fault}"):
                DictionaryBundle(D=D, shared_dict=np.zeros((6, 0)), C=3)

    def test_shared_norm_cap(self):
        for scale in (1.5, 1e200):  # the norm of the second overflows
            with pytest.raises(DataError, match="column norm exceeds 1"):
                DictionaryBundle(D=np.eye(3), shared_dict=scale * np.eye(3), C=1)

    def test_shape_consistency(self):
        # K = 3 columns do not split into 2 classes, K = 0 into none; the
        # shared dictionary must have D's d rows
        with pytest.raises(DimensionError, match="positive multiple of C=2"):
            DictionaryBundle(D=np.eye(3), shared_dict=np.zeros((3, 0)), C=2)
        with pytest.raises(DimensionError, match="positive multiple of C=1"):
            DictionaryBundle(D=np.zeros((3, 0)), shared_dict=np.zeros((3, 0)), C=1)
        with pytest.raises(DimensionError):
            DictionaryBundle(D=np.eye(3), shared_dict=np.zeros((4, 0)), C=1)

    @pytest.mark.parametrize("D", [np.ones(3), np.ones((3, 3, 1))], ids=["1-d", "3-d"])
    def test_class_dictionary_that_is_not_2d_rejected(self, D):
        with pytest.raises(DimensionError, match="must be 2-d"):
            DictionaryBundle(D=D, shared_dict=np.zeros((3, 0)), C=1)

    @pytest.mark.parametrize("C", [0, 1.0, True], ids=["zero", "float", "bool"])
    def test_class_count_checked(self, C):
        with pytest.raises(ParameterError):
            DictionaryBundle(D=np.eye(2), shared_dict=np.zeros((2, 0)), C=C)


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
        _, coefs = initialize(data, TrainConfig(k_c=2, k0=4))
        assert coefs.X.shape == (6, 15) and coefs.X0.shape == (4, 15)
        assert not coefs.X.any() and not coefs.X0.any()

    def test_divisibility_checks(self):
        # the codes check their own column counts; the class blocks are
        # checked where the codes meet labels (here) or dictionaries
        # (check_shapes)
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
            D=np.hstack([normalize_columns(rng.standard_normal((5, 2))) for _ in range(3)]),
            shared_dict=normalize_columns(rng.standard_normal((5, 2))),
            C=3,
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
    # silently: fit and classify log their zero samples themselves
    M = np.array([[3.0, 0.0], [4.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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


def _two_class_model():
    dicts = DictionaryBundle(D=np.eye(4), shared_dict=np.zeros((4, 0)), C=2)
    means = MeanStats(class_means=np.zeros((4, 2)), shared_mean=np.zeros(0))
    return LearnedModel(dict_bundle=dicts, mean_stats=means, hyper=HyperParams(), trace=())


# every entry point for numbers, called with a spoiler s of its valid input;
# the dictionaries' entries are small, so a complex entry keeps the norms in
# range and only the dtype refuses it, as it refuses an object array
NUMBER_SITES = {
    "Dataset": lambda s, _: Dataset(Y=s(np.ones((3, 4))), labels=[1, 1, 2, 2]),
    "Dataset.from_arrays": lambda s, _: Dataset.from_arrays(s(np.ones((3, 4))), [2, 1, 2, 1]),
    "DictionaryBundle.D": lambda s, _: DictionaryBundle(
        D=s(np.eye(4) / 2), shared_dict=np.zeros((4, 1)), C=2
    ),
    "DictionaryBundle.shared_dict": lambda s, _: DictionaryBundle(
        D=np.eye(4), shared_dict=s(np.full((4, 1), 0.25)), C=2
    ),
    "CoefBundle.X": lambda s, _: CoefBundle(X=s(np.ones((4, 3))), X0=np.ones((1, 3))),
    "CoefBundle.X0": lambda s, _: CoefBundle(X=np.ones((4, 3)), X0=s(np.ones((1, 3)))),
    "MeanStats.class_means": lambda s, _: MeanStats(
        class_means=s(np.ones((4, 2))), shared_mean=np.ones(1)
    ),
    "MeanStats.shared_mean": lambda s, _: MeanStats(
        class_means=np.ones((4, 2)), shared_mean=s(np.ones(1))
    ),
    "classify-one": lambda s, _: classify(s(np.ones(4)), _two_class_model()),
    "classify-batch": lambda s, _: classify(s(np.ones((4, 3))), _two_class_model()),
    "save_matrix": lambda s, path: save_matrix(s(np.ones((2, 3))), path),
    "svt": lambda s, _: svt(s(np.ones((3, 2))), 0.1),
}
BAD_NUMBERS = {"complex": 0.5j, "object": 0, "NaN": np.nan, "Inf": np.inf}


@pytest.mark.parametrize("bad", BAD_NUMBERS)
@pytest.mark.parametrize("site", NUMBER_SITES)
def test_numbers_refused_alike(site, bad, tmp_path):
    # errors.check_real is the one rule: a complex entry would lose its
    # imaginary part, and a NaN or Inf one would poison the result
    value = BAD_NUMBERS[bad]

    def spoil(a):
        a = np.array(a, dtype=object if bad == "object" else np.result_type(a, value))
        a.flat[0] += value
        return a

    path = tmp_path / "M.lmx"
    with pytest.raises(DataError, match="NaN or Inf" if bad in ("NaN", "Inf") else "real numbers"):
        NUMBER_SITES[site](spoil, path)
    assert not path.exists()


@pytest.mark.parametrize("site", ["check_real", "Dataset", "save_matrix"])
def test_longdouble_beyond_the_float_range_is_refused(site, tmp_path):
    # 1e400 is finite as an x86-64 long double; its cast to float64 is Inf,
    # which the rule refuses, not numpy's overflow warning
    with np.errstate(over="ignore"):  # Inf already where long double is float64
        huge = np.longdouble(1e300) * np.longdouble(1e100)

    def spoil(a):
        a = np.array(a, dtype=np.longdouble)
        a.flat[0] = huge
        return a

    sites = dict(NUMBER_SITES, check_real=lambda s, _: check_real(s(np.ones(2)), "a"))
    path = tmp_path / "M.lmx"
    with pytest.raises(DataError, match="NaN or Inf"):
        sites[site](spoil, path)
    assert not path.exists()


def _quadratic():
    return SmoothObjective.quadratic(np.eye(2), np.ones(2), 1.0)


def _synthetic(**settings):
    return generate_synthetic(C=2, d=4, n_c=2, k_c=2, k0=0, shared_rank=0, seed=0, **settings)


# every real-valued setting: (its name, a call that sets it, values just
# outside its range)
NEXT_BELOW_0, NEXT_ABOVE_1 = np.nextafter(0.0, -1.0), np.nextafter(1.0, 2.0)
SETTINGS = {
    "SmoothObjective.lipschitz": (
        "lipschitz", lambda v: SmoothObjective(grad=abs, lipschitz=v), [0.0]
    ),
    "soft_threshold.tau": ("tau", lambda v: soft_threshold(np.ones(3), v), [NEXT_BELOW_0]),
    "svt.tau": ("tau", lambda v: svt(np.ones((3, 2)), v), [NEXT_BELOW_0]),
    "fista.lam": ("lam", lambda v: fista(_quadratic(), v, np.zeros(2)), [NEXT_BELOW_0]),
    "fista.tol": ("tol", lambda v: fista(_quadratic(), 0.1, np.zeros(2), tol=v), [NEXT_BELOW_0]),
    "admm_nuclear.eta": (
        "eta", lambda v: admm_nuclear(np.ones((3, 2)), np.ones((1, 2)), v, 1.0), [NEXT_BELOW_0]
    ),
    "admm_nuclear.rho": (
        "rho", lambda v: admm_nuclear(np.ones((3, 2)), np.ones((1, 2)), 0.1, v), [0.0]
    ),
    "HyperParams.lambda1": ("lambda1", lambda v: HyperParams(lambda1=v), [NEXT_BELOW_0]),
    "HyperParams.lambda2": ("lambda2", lambda v: HyperParams(lambda2=v), [NEXT_BELOW_0]),
    "HyperParams.eta": ("eta", lambda v: HyperParams(eta=v), [NEXT_BELOW_0]),
    "HyperParams.w": ("w", lambda v: HyperParams(w=v), [NEXT_BELOW_0, NEXT_ABOVE_1]),
    "classify.w": (
        "w", lambda v: classify(np.ones(4), _two_class_model(), w=v), [NEXT_BELOW_0, NEXT_ABOVE_1]
    ),
    "generate_synthetic.noise_sigma": (
        "noise_sigma", lambda v: _synthetic(noise_sigma=v), [NEXT_BELOW_0]
    ),
    "generate_synthetic.shared_scale": (
        "shared_scale", lambda v: _synthetic(noise_sigma=0.0, shared_scale=v), []
    ),
}
BAD_SETTINGS = {
    "string": "0.5", "None": None, "complex": 0.5j, "bool": True,
    "array": np.array([0.5, 0.5]), "NaN": np.nan, "Inf": np.inf,
}


@pytest.mark.parametrize(
    "site, value",
    [
        pytest.param(site, value, id=f"{site}-{bad}")
        for site, (_, _, outside) in SETTINGS.items()
        for bad, value in [*BAD_SETTINGS.items(), *(("outside", v) for v in outside)]
        if (site, bad) != ("classify.w", "None")  # None there means the model's own w
    ],
)
def test_settings_refused_alike(site, value):
    # errors.check_number is the one rule for scalar settings: whatever the
    # fault, a ParameterError that starts with the setting's name
    name, call, _ = SETTINGS[site]
    with pytest.raises(ParameterError, match=f"^{name} must "):
        call(value)


def test_integer_setting_beyond_the_float_range_is_accepted():
    # an integer needs no finiteness test, which would overflow here
    assert HyperParams(seed=10**400).seed == 10**400


def test_check_real_casts_without_copying_floats():
    a = np.ones((2, 2))
    assert check_real(a, "a") is a
    for other in (np.ones(2, dtype=bool), np.arange(2), np.ones(2, dtype=np.float32)):
        assert check_real(other, "a").dtype == np.float64
    with pytest.raises(DataError, match="a must hold real numbers, got dtype <U1"):
        check_real(np.array(["1"]), "a")


def test_nan_class_mean_is_refused():
    # a NaN in class 3's mean made every class-3 score NaN, and argmin then
    # gave all 12 training samples label 3
    data, _ = generate_synthetic(
        C=3, d=8, n_c=4, k_c=2, k0=0, shared_rank=0, noise_sigma=0.05, seed=0
    )
    model = fit(data, TrainConfig(hyper=HyperParams(outer_iters=2), k_c=2, k0=0))
    means = model.mean_stats.class_means.copy()
    means[0, 2] = np.nan
    with pytest.raises(DataError, match="class_means contains NaN or Inf"):
        replace(model.mean_stats, class_means=means)
