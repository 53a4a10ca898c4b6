"""Gradient and objective tests.

Every gradient a coding solve runs, the SmoothObjective a coding site hands
fista (captured by a stub) or the quadratic of a site's Gram pair, is
checked against central finite differences of the matching value function,
and the structured (Gram-based) fidelity is checked against an explicit
stacked least-squares construction from oracles.py that materializes the
per-class design matrices.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrsdl.gradients as gradients
import lrsdl.learner as learner
from lrsdl.data import (
    CoefBundle,
    Dataset,
    DictionaryBundle,
    HyperParams,
    class_means,
    fisher_mean_map,
    generate_synthetic,
    mean_stats,
    normalize_columns,
)
from lrsdl.errors import DimensionError, DomainError, NumericalError
from lrsdl.gradients import (
    ObjectiveTerms,
    build_augmented_gram,
    fidelity_value,
    fisher_value,
    gram_shared_codes,
    gram_test_code,
    objective_terms,
    residual_matrices,
)
from lrsdl.learner import sparse_code_sequential, sparse_code_train
from lrsdl.prox import SmoothObjective

from oracles import (
    column_means_by_class,
    fd_grad,
    fddl_objective,
    lrsdl_objective_literal,
    rel_err,
    stacked_fidelity,
)
from test_coding_objectives import capture


def random_bundle(rng, d, C, k_c, k0):
    cds = tuple(
        normalize_columns(rng.standard_normal((d, k_c)))
        for _ in range(C)
    )
    shared = (
        normalize_columns(rng.standard_normal((d, k0)))
        if k0
        else np.zeros((d, 0))
    )
    return DictionaryBundle(class_dicts=cds, shared_dict=shared)


def random_problem(seed, C=3, d=8, n_c=4, k_c=3, k0=2):
    rng = np.random.default_rng(seed)
    data, _ = generate_synthetic(
        C=C, d=d, n_c=n_c, k_c=k_c, k0=k0,
        shared_rank=min(2, k0), noise_sigma=0.1, seed=seed,
    )
    dicts = random_bundle(rng, d, C, k_c, k0)
    coefs = CoefBundle(
        X=rng.standard_normal((C * k_c, C * n_c)),
        X0=rng.standard_normal((k0, C * n_c)),
    )
    return data, dicts, coefs


def class_code_objective(data, dicts, coefs, lambda2):
    """The joint class-code SmoothObjective sparse_code_train hands fista."""
    with pytest.MonkeyPatch.context() as mp:
        seen = capture(mp, learner)
        sparse_code_train(data, dicts, coefs, HyperParams(lambda2=lambda2))
    return seen[0]


def quadratic_grad(H, B, X):
    """The gradient of the Gram pair (H, B) at X, through the closure fista
    runs."""
    return SmoothObjective.quadratic(H, B, 1.0).grad(X)


def fisher_mean_part(X, sizes):
    """X Q S for the Fisher map with lambda2 = 2 on class blocks of `sizes`:
    the class-mean part of the gradient of f, which is 4 X plus it."""
    Q, S = fisher_mean_map(sizes, X.shape[1], 2.0)
    return X @ Q @ S


class TestColumnMeans:
    def test_matches_loop_oracle_contiguous(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((4, 9))
        labels = np.repeat([1, 2, 3], 3)
        cm = class_means(X, (3, 3, 3))
        _, by_class = column_means_by_class(X, labels)
        for c, mean in by_class.items():
            assert np.max(np.abs(cm[:, c - 1] - mean)) < 1e-14

    def test_interleaved_labels_rejected(self):
        X = np.random.default_rng(1).standard_normal((4, 6))
        labels = np.array([1, 2, 1, 2, 1, 2])
        coefs = CoefBundle(X=X, X0=np.zeros((0, 6)))
        for call in (
            lambda: Dataset(Y=X, labels=labels),
            lambda: mean_stats(coefs, labels),
        ):
            with pytest.raises(DomainError):
                call()

    def test_unequal_classes_accepted(self):
        X = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        coefs = CoefBundle(X=X, X0=np.zeros((0, 3)))
        means = mean_stats(coefs, np.array([1, 1, 2]))
        assert np.array_equal(means.class_means, [[1.5, 3.0], [4.5, 6.0]])


class TestResidualMatrices:
    def test_matches_per_column_oracle(self):
        data, dicts, coefs = random_problem(2)
        V = residual_matrices(data, dicts, coefs)
        for j in range(data.N):
            c = int(data.labels[j])
            ybar = data.Y[:, j] - dicts.D @ coefs.X[:, j]
            own = dicts.class_dict(c) @ coefs.X[dicts.row_block(c), j]
            ytilde = data.Y[:, j] - own
            assert np.allclose(V[:, j], 0.5 * (ybar + ytilde), atol=1e-12)

    def test_zero_codes_give_data_back(self):
        data, dicts, _ = random_problem(3)
        coefs = CoefBundle(X=np.zeros((dicts.K, data.N)), X0=np.zeros((dicts.k0, data.N)))
        assert np.array_equal(residual_matrices(data, dicts, coefs), data.Y)


class TestAugmentedGram:
    def test_single_class_doubles(self):
        rng = np.random.default_rng(5)
        d, k, n = 6, 4, 5
        dicts = random_bundle(rng, d, 1, k, 0)
        Ys = rng.standard_normal((d, n))
        G, corr = build_augmented_gram(dicts, Ys, (n,), 0.0)
        DtD = dicts.D.T @ dicts.D
        X = rng.standard_normal((k, n))
        assert np.allclose(G @ X, 2.0 * DtD @ X, atol=1e-12)
        assert np.allclose(corr, 2.0 * dicts.D.T @ Ys, atol=1e-12)

    def test_orthonormal_dictionary_acts_as_two_x(self):
        # columns of the full D orthonormal: combined operator is 2 I
        d, C, k_c, n_c = 10, 2, 3, 4
        Q = np.linalg.qr(np.random.default_rng(6).standard_normal((d, C * k_c)))[0]
        cds = tuple(Q[:, c * k_c : (c + 1) * k_c] for c in range(C))
        dicts = DictionaryBundle(class_dicts=cds, shared_dict=np.zeros((d, 0)))
        Ys = np.random.default_rng(7).standard_normal((d, C * n_c))
        G, _ = build_augmented_gram(dicts, Ys, (n_c,) * C, 0.0)
        X = np.random.default_rng(8).standard_normal((C * k_c, C * n_c))
        assert np.allclose(G @ X, 2.0 * X, atol=1e-10)

    def test_combined_symmetric_psd(self):
        data, dicts, coefs = random_problem(9)
        shifted = data.Y - dicts.shared_dict @ coefs.X0
        G, _ = build_augmented_gram(dicts, shifted, data.sizes, 0.0)
        assert np.array_equal(G, G.T)
        assert np.linalg.eigvalsh(G)[0] > -1e-10

    def test_combined_matches_dense_construction(self):
        data, dicts, coefs = random_problem(10)
        shifted = data.Y - dicts.shared_dict @ coefs.X0
        G, _ = build_augmented_gram(dicts, shifted, data.sizes, 0.0)
        dense = dicts.D.T @ dicts.D
        for c in range(1, dicts.C + 1):
            rows = dicts.row_block(c)
            Dc = dicts.class_dict(c)
            dense[rows, rows] += Dc.T @ Dc
        assert np.max(np.abs(G - dense)) < 1e-12

    def test_lambda2_joins_the_diagonal_only(self):
        # H = M(D^T D) + 2 lambda2 I: the diagonal gains exactly 2 lambda2,
        # every other entry and the correlation are those of lambda2 = 0
        data, dicts, coefs = random_problem(12)
        shifted = data.Y - dicts.shared_dict @ coefs.X0
        G0, corr0 = build_augmented_gram(dicts, shifted, data.sizes, 0.0)
        G, corr = build_augmented_gram(dicts, shifted, data.sizes, 0.7)
        diag = np.eye(dicts.K, dtype=bool)
        assert np.array_equal(G[diag], G0[diag] + 2.0 * 0.7)
        assert np.array_equal(G[~diag], G0[~diag])
        assert np.array_equal(corr, corr0)


class TestGradFidelity:
    """The joint class-code gradient fista runs; at lambda2 = 0 it is the
    gradient of the fidelity alone."""

    def test_zero_codes_give_minus_correlation(self):
        data, dicts, coefs = random_problem(12)
        shifted = data.Y - dicts.shared_dict @ coefs.X0
        _, corr = build_augmented_gram(dicts, shifted, data.sizes, 0.0)
        obj = class_code_objective(data, dicts, coefs, lambda2=0.7)
        assert np.array_equal(obj.grad(np.zeros_like(coefs.X)), -corr)

    def test_exact_fit_gives_zero(self):
        # block-diagonal codes with each class block solving its own data
        rng = np.random.default_rng(13)
        d, C, k_c, n_c = 7, 3, 3, 4
        dicts = random_bundle(rng, d, C, k_c, 0)
        X = np.zeros((C * k_c, C * n_c))
        Ys = np.empty((d, C * n_c))
        for c in range(1, C + 1):
            rows = dicts.row_block(c)
            cols = slice((c - 1) * n_c, c * n_c)
            Xc = rng.standard_normal((k_c, n_c))
            X[rows, cols] = Xc
            Ys[:, cols] = dicts.class_dict(c) @ Xc
        data = Dataset(Y=Ys, labels=np.repeat(np.arange(1, C + 1), n_c))
        coefs = CoefBundle(X=X, X0=np.zeros((0, C * n_c)))
        obj = class_code_objective(data, dicts, coefs, lambda2=0.0)
        assert np.max(np.abs(obj.grad(X))) < 1e-10

    def test_finite_difference(self):
        data, dicts, coefs = random_problem(14)
        shifted = data.Y - dicts.shared_dict @ coefs.X0
        obj = class_code_objective(data, dicts, coefs, lambda2=0.0)

        def f(X):
            return fidelity_value(shifted, dicts, X, data.sizes)

        fd = fd_grad(f, coefs.X, eps=1e-6)
        assert rel_err(obj.grad(coefs.X), fd) < 1e-4

    def test_finite_difference_of_stacked_construction(self):
        # same check against the materialized stacked system, not the
        # structured value function
        data, dicts, coefs = random_problem(15)
        shifted = data.Y - dicts.shared_dict @ coefs.X0
        obj = class_code_objective(data, dicts, coefs, lambda2=0.0)

        def f(X):
            return stacked_fidelity(shifted, list(dicts.class_dicts), X, data.labels)

        fd = fd_grad(f, coefs.X, eps=1e-6)
        assert rel_err(obj.grad(coefs.X), fd) < 1e-4


class TestFidelityValue:
    def test_matches_stacked_oracle(self):
        for seed in range(5):
            data, dicts, coefs = random_problem(20 + seed)
            shifted = data.Y - dicts.shared_dict @ coefs.X0
            mine = fidelity_value(shifted, dicts, coefs.X, data.sizes)
            ref = stacked_fidelity(
                shifted, list(dicts.class_dicts), coefs.X, data.labels
            )
            assert abs(mine - ref) <= 1e-10 * max(1.0, abs(ref))

    @settings(max_examples=100, deadline=None)
    @given(
        C=st.integers(1, 4),
        n_c=st.integers(1, 4),
        k_c=st.integers(1, 3),
        d=st.integers(1, 6),
        zero_codes=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_matches_stacked_oracle_on_generated_layouts(
        self, C, n_c, k_c, d, zero_codes, seed
    ):
        # the block-operator form against the per-class stacked system, down
        # to one class, one sample or one atom per class
        rng = np.random.default_rng(seed)
        dicts = random_bundle(rng, d, C, k_c, 0)
        shifted = rng.standard_normal((d, C * n_c))
        X = rng.standard_normal((C * k_c, C * n_c)) * (not zero_codes)
        labels = np.repeat(np.arange(1, C + 1), n_c)
        mine = fidelity_value(shifted, dicts, X, (n_c,) * C)
        ref = stacked_fidelity(shifted, list(dicts.class_dicts), X, labels)
        assert abs(mine - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_zero_codes(self):
        data, dicts, _ = random_problem(26)
        X = np.zeros((dicts.K, data.N))
        # all three residual pieces collapse to the data itself
        want = float(np.sum(data.Y**2))
        assert fidelity_value(data.Y, dicts, X, data.sizes) == pytest.approx(want)


class TestGramClassCodes:
    def test_full_gradient_finite_difference(self):
        # the class-code gradient the joint solver runs, H X - B plus the
        # Fisher class-mean product X Q, against the fidelity plus lambda2/2
        # times the X part of the Fisher value
        data, dicts, coefs = random_problem(16)
        lam2 = 0.7
        shifted = data.Y - dicts.shared_dict @ coefs.X0
        obj = class_code_objective(data, dicts, coefs, lam2)

        def f(M):
            fidelity = fidelity_value(shifted, dicts, M, data.sizes)
            return fidelity + 0.5 * lam2 * fisher_value(M, data.sizes)

        assert rel_err(obj.grad(coefs.X), fd_grad(f, coefs.X, eps=1e-6)) < 1e-7


class TestGradFisher:
    """The gradient of f is 4 X plus the class-mean product X Q of
    fisher_mean_map with lambda2 = 2."""

    def test_two_scalar_columns(self):
        X = np.array([[1.0, 3.0]])
        assert np.allclose(4.0 * X + fisher_mean_part(X, (1, 1)), [[4.0, 4.0]])

    def test_identical_columns_reduce_to_two_x(self):
        rng = np.random.default_rng(27)
        col = rng.standard_normal(5)
        X = np.tile(col[:, None], (1, 6))
        assert np.allclose(fisher_mean_part(X, (1, 2, 3)), -2.0 * X, atol=1e-12)

    def test_finite_difference_through_means(self):
        rng = np.random.default_rng(28)
        X = rng.standard_normal((6, 8))

        def f(M):
            return fisher_value(M, (3, 5))

        fd = fd_grad(f, X, eps=1e-6)
        assert rel_err(4.0 * X + fisher_mean_part(X, (3, 5)), fd) < 1e-4

    def test_fisher_value_nonnegative(self):
        # f(X) >= 0: within-class scatter minus between-class plus ||X||^2
        for seed in range(10):
            X = np.random.default_rng(seed).standard_normal((5, 9))
            assert fisher_value(X, (2, 3, 4)) >= -1e-10

    def test_label_length_checked(self):
        coefs = CoefBundle(X=np.zeros((2, 4)), X0=np.zeros((0, 4)))
        with pytest.raises(DimensionError):
            mean_stats(coefs, np.array([1, 2]))


class TestGradSharedCodes:
    def test_finite_difference(self):
        rng = np.random.default_rng(31)
        d, k0, n = 7, 3, 5
        D0 = normalize_columns(rng.standard_normal((d, k0)))
        Ybar = rng.standard_normal((d, n))
        Ytilde = rng.standard_normal((d, n))
        X0 = rng.standard_normal((k0, n))
        m0 = rng.standard_normal((k0, 1))
        lam2 = 0.3

        def f(W):
            fit = 0.5 * float(np.sum((Ybar - D0 @ W) ** 2))
            fit += 0.5 * float(np.sum((Ytilde - D0 @ W) ** 2))
            return fit + 0.5 * lam2 * float(np.sum((W - m0) ** 2))

        fd = fd_grad(f, X0, eps=1e-6)
        H, B = gram_shared_codes(D0, 0.5 * (Ybar + Ytilde), m0, lam2)
        assert rel_err(quadratic_grad(H, B, X0), fd) < 1e-4

    def test_stationary_at_exact_fit(self):
        rng = np.random.default_rng(32)
        d, k0, n = 6, 2, 4
        D0 = normalize_columns(rng.standard_normal((d, k0)))
        m0 = rng.standard_normal((k0, 1))
        X0 = np.repeat(m0, n, axis=1)  # the codes sit at their mean
        H, B = gram_shared_codes(D0, D0 @ X0, m0, lambda2=0.7)
        assert np.max(np.abs(quadratic_grad(H, B, X0))) < 1e-10


class TestBuildTestGram:
    """The Gram form (H, B) of test coding, through the gradient fista runs
    on it, checked on a batch of samples, one code column each."""

    def grad(self, dicts, Y, X, m0, lambda2):
        return quadratic_grad(*gram_test_code(dicts, Y, m0, lambda2), X)

    def test_zero_code_no_penalty(self):
        data, dicts, _ = random_problem(33, k0=2)
        Y = np.random.default_rng(0).standard_normal((dicts.d, 3))
        X = np.zeros((dicts.K + dicts.k0, 3))
        g = self.grad(dicts, Y, X, np.zeros(dicts.k0), lambda2=0.0)
        assert np.allclose(g, -dicts.D_total.T @ Y, atol=1e-12)

    def test_zero_at_consistent_point(self):
        rng = np.random.default_rng(34)
        _, dicts, _ = random_problem(35, k0=2)
        x = rng.standard_normal(dicts.K + dicts.k0)
        X = np.stack([x, x], axis=1)  # the shared mean is one vector for all samples
        Y = dicts.D_total @ X
        m0 = x[dicts.K :].copy()
        g = self.grad(dicts, Y, X, m0, lambda2=0.9)
        assert np.max(np.abs(g)) < 1e-10

    def test_finite_difference(self):
        rng = np.random.default_rng(36)
        _, dicts, _ = random_problem(37, k0=2)
        Y = rng.standard_normal((dicts.d, 3))
        X = rng.standard_normal((dicts.K + dicts.k0, 3))
        m0 = rng.standard_normal(dicts.k0)
        lam2 = 0.4

        def f(V):
            fit = 0.5 * float(np.sum((Y - dicts.D_total @ V) ** 2))
            return fit + 0.5 * lam2 * float(np.sum((V[dicts.K :] - m0[:, None]) ** 2))

        fd = fd_grad(f, X, eps=1e-6)
        assert rel_err(self.grad(dicts, Y, X, m0, lam2), fd) < 1e-4
        # one sample is a (d, 1) batch of the same quadratic
        g1 = self.grad(dicts, Y[:, [0]], X[:, [0]], m0, lam2)
        assert np.allclose(g1, self.grad(dicts, Y, X, m0, lam2)[:, [0]], atol=1e-12)

    def test_no_shared_atoms(self):
        _, dicts, _ = random_problem(38, k0=0)
        Y = np.random.default_rng(1).standard_normal((dicts.d, 3))
        X = np.random.default_rng(2).standard_normal((dicts.K, 3))
        g = self.grad(dicts, Y, X, np.zeros(0), lambda2=0.5)
        assert np.allclose(g, dicts.D.T @ (dicts.D @ X - Y), atol=1e-12)


class TestObjective:
    def test_zero_codes_no_shared_equals_data_energy(self):
        data, dicts, _ = random_problem(39, k0=0)
        coefs = CoefBundle(X=np.zeros((dicts.K, data.N)), X0=np.zeros((0, data.N)))
        hyper = HyperParams(lambda1=0.2, lambda2=0.5, eta=0.7)
        total = objective_terms(data, dicts, coefs, hyper).total
        assert total == pytest.approx(float(np.sum(data.Y**2)))

    def test_terms_sum_to_total(self):
        terms = ObjectiveTerms(fidelity=1.0, l1=0.25, fisher=0.5, nuclear=0.125)
        assert terms.total == pytest.approx(1.875)
        data, dicts, coefs = random_problem(40)
        hyper = HyperParams()
        got = objective_terms(data, dicts, coefs, hyper)
        assert got.total == pytest.approx(
            got.fidelity + got.l1 + got.fisher + got.nuclear
        )

    def test_no_shared_matches_reference_objective(self):
        hyper = HyperParams(lambda1=0.05, lambda2=0.3)
        for seed in range(10):
            data, dicts, coefs = random_problem(50 + seed, k0=0)
            mine = objective_terms(data, dicts, coefs, hyper).total
            ref = fddl_objective(
                data.Y, list(dicts.class_dicts), coefs.X, data.labels,
                hyper.lambda1, hyper.lambda2,
            )
            assert abs(mine - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_full_model_matches_literal_objective(self):
        hyper = HyperParams(lambda1=0.05, lambda2=0.3, eta=0.2)
        for seed in range(5):
            data, dicts, coefs = random_problem(60 + seed, k0=2)
            mine = objective_terms(data, dicts, coefs, hyper).total
            ref = lrsdl_objective_literal(
                data.Y, list(dicts.class_dicts), dicts.shared_dict,
                coefs.X, coefs.X0, data.labels,
                hyper.lambda1, hyper.lambda2, hyper.eta,
            )
            assert abs(mine - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_overflow_names_the_term(self):
        data, dicts, coefs = random_problem(70, k0=0)
        big = Dataset.from_arrays(data.Y * 1e200, data.labels)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalError, match="fidelity"):
                objective_terms(big, dicts, coefs, HyperParams())

    @pytest.mark.parametrize("term", ["fidelity", "l1", "fisher"])
    def test_non_finite_term_is_named(self, monkeypatch, term):
        data, dicts, coefs = random_problem(73)
        hyper = HyperParams()
        if term == "l1":  # no helper: lambda1 ||X||_1 overflows to inf
            hyper = HyperParams(lambda1=1e308)
        else:
            monkeypatch.setattr(gradients, f"{term}_value", lambda *args: np.inf)
        with pytest.raises(NumericalError, match=f"^{term} term is non-finite$"):
            objective_terms(data, dicts, coefs, hyper)

    def test_shape_mismatch_rejected(self):
        data, dicts, coefs = random_problem(71)
        bad = CoefBundle(
            X=np.zeros((dicts.K + data.C, data.N)), X0=np.zeros((dicts.k0, data.N))
        )
        with pytest.raises(DimensionError):
            objective_terms(data, dicts, bad, HyperParams())


class TestCodesMeetDataAndDictionaries:
    """Codes carry no class layout of their own: a wrong K, k0 or N is
    caught where they meet the data and the dictionaries (check_shapes),
    also when the wrong size still splits into C blocks, and so are
    dictionaries of another d or C than the data, with codes that fit them."""

    @pytest.mark.parametrize(
        "extra_K, extra_k0, extra_N, extra_d, extra_C",
        [
            (1, 0, 0, 0, 0),
            (3, 0, 0, 0, 0),
            (0, 1, 0, 0, 0),
            (0, 0, 1, 0, 0),
            (0, 0, 3, 0, 0),
            (1, 0, 1, 0, 0),
            (0, 0, 0, 1, 0),
            (0, 0, 0, 0, 1),
        ],
        ids=[
            "K+1", "K+C", "k0+1", "N+1", "N+C", "K+1,N+1", "dicts-d+1", "dicts-C+1"
        ],
    )
    @pytest.mark.parametrize(
        "call",
        [sparse_code_train, sparse_code_sequential, objective_terms],
        ids=["sparse_code_train", "sparse_code_sequential", "objective_terms"],
    )
    def test_wrong_code_shape_rejected(
        self, call, extra_K, extra_k0, extra_N, extra_d, extra_C
    ):
        data, dicts, _ = random_problem(72)  # C = 3, k_c = 3, k0 = 2
        if extra_d or extra_C:
            rng = np.random.default_rng(9)
            dicts = random_bundle(rng, data.d + extra_d, data.C + extra_C, 3, 2)
        N = data.N + extra_N
        bad = CoefBundle(
            X=np.zeros((dicts.K + extra_K, N)), X0=np.zeros((dicts.k0 + extra_k0, N))
        )
        with pytest.raises(DimensionError):
            call(data, dicts, bad, HyperParams(fista_iters=5))
