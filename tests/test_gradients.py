"""Gradient and objective tests.

Every analytic gradient is checked against central finite differences of the
matching value function, and the structured (Gram-based) fidelity is checked
against an explicit stacked least-squares construction from oracles.py that
materializes the per-class design matrices.
"""

import numpy as np
import pytest

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
    gram_class_codes,
    grad_fidelity,
    grad_fisher,
    grad_shared_codes,
    grad_test_code,
    lrsdl_objective,
    objective_terms,
    residual_matrices,
)

from oracles import (
    column_means_by_class,
    fd_grad,
    fddl_objective,
    lrsdl_objective_literal,
    rel_err,
    stacked_fidelity,
)


def random_bundle(rng, d, C, k_c, k0):
    cds = tuple(
        normalize_columns(rng.standard_normal((d, k_c)), warn=False)
        for _ in range(C)
    )
    shared = (
        normalize_columns(rng.standard_normal((d, k0)), warn=False)
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
        k_c=k_c,
        n_c=n_c,
    )
    return data, dicts, coefs


class TestColumnMeans:
    def test_matches_loop_oracle_contiguous(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((4, 9))
        labels = np.repeat([1, 2, 3], 3)
        cm = class_means(X, 3)
        _, by_class = column_means_by_class(X, labels)
        for c, mean in by_class.items():
            assert np.max(np.abs(cm[:, c - 1] - mean)) < 1e-14

    def test_interleaved_labels_rejected(self):
        X = np.random.default_rng(1).standard_normal((4, 6))
        labels = np.array([1, 2, 1, 2, 1, 2])
        coefs = CoefBundle(X=X, X0=np.zeros((0, 6)), k_c=2, n_c=3)
        for call in (
            lambda: grad_fisher(X, labels),
            lambda: fisher_value(X, labels),
            lambda: mean_stats(coefs, labels),
        ):
            with pytest.raises(DomainError):
                call()

    def test_unequal_classes_rejected(self):
        with pytest.raises(DomainError):
            grad_fisher(np.zeros((2, 3)), np.array([1, 1, 2]))


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
        coefs = CoefBundle.zeros(C=data.C, k_c=dicts.k_c, k0=dicts.k0, n_c=data.n_c)
        assert np.array_equal(residual_matrices(data, dicts, coefs), data.Y)

    def test_shape_mismatch_rejected(self):
        data, dicts, coefs = random_problem(4)
        other = random_bundle(np.random.default_rng(9), dicts.d + 1, data.C, 3, 2)
        with pytest.raises(DimensionError):
            residual_matrices(data, other, coefs)


class TestAugmentedGram:
    def test_single_class_doubles(self):
        rng = np.random.default_rng(5)
        d, k, n = 6, 4, 5
        dicts = random_bundle(rng, d, 1, k, 0)
        Ys = rng.standard_normal((d, n))
        G, corr = build_augmented_gram(dicts, Ys, n)
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
        G, _ = build_augmented_gram(dicts, Ys, n_c)
        X = np.random.default_rng(8).standard_normal((C * k_c, C * n_c))
        assert np.allclose(G @ X, 2.0 * X, atol=1e-10)

    def test_combined_symmetric_psd(self):
        data, dicts, coefs = random_problem(9)
        shifted = data.Y - dicts.shared_dict @ coefs.X0
        G, _ = build_augmented_gram(dicts, shifted, data.n_c)
        assert np.array_equal(G, G.T)
        assert np.linalg.eigvalsh(G)[0] > -1e-10

    def test_combined_matches_dense_construction(self):
        data, dicts, coefs = random_problem(10)
        shifted = data.Y - dicts.shared_dict @ coefs.X0
        G, _ = build_augmented_gram(dicts, shifted, data.n_c)
        dense = dicts.D.T @ dicts.D
        for c in range(1, dicts.C + 1):
            rows = dicts.row_block(c)
            Dc = dicts.class_dict(c)
            dense[rows, rows] += Dc.T @ Dc
        assert np.max(np.abs(G - dense)) < 1e-12

    def test_shifted_shape_checked(self):
        data, dicts, _ = random_problem(11)
        with pytest.raises(DimensionError):
            build_augmented_gram(dicts, data.Y[:, :-1], data.n_c)


class TestGradFidelity:
    def test_zero_codes_give_minus_correlation(self):
        data, dicts, coefs = random_problem(12)
        shifted = data.Y - dicts.shared_dict @ coefs.X0
        G, corr = build_augmented_gram(dicts, shifted, data.n_c)
        g = grad_fidelity((G, corr), np.zeros_like(coefs.X))
        assert np.array_equal(g, -corr)

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
        gram = build_augmented_gram(dicts, Ys, n_c)
        assert np.max(np.abs(grad_fidelity(gram, X))) < 1e-10

    def test_finite_difference(self):
        data, dicts, coefs = random_problem(14)
        shifted = data.Y - dicts.shared_dict @ coefs.X0
        gram = build_augmented_gram(dicts, shifted, data.n_c)

        def f(X):
            return fidelity_value(shifted, dicts, X, data.n_c)

        fd = fd_grad(f, coefs.X, eps=1e-6)
        assert rel_err(grad_fidelity(gram, coefs.X), fd) < 1e-4

    def test_finite_difference_of_stacked_construction(self):
        # same check against the materialized stacked system, not the
        # structured value function
        data, dicts, coefs = random_problem(15)
        shifted = data.Y - dicts.shared_dict @ coefs.X0
        gram = build_augmented_gram(dicts, shifted, data.n_c)

        def f(X):
            return stacked_fidelity(shifted, list(dicts.class_dicts), X, data.labels)

        fd = fd_grad(f, coefs.X, eps=1e-6)
        assert rel_err(grad_fidelity(gram, coefs.X), fd) < 1e-4


class TestFidelityValue:
    def test_matches_stacked_oracle(self):
        for seed in range(5):
            data, dicts, coefs = random_problem(20 + seed)
            shifted = data.Y - dicts.shared_dict @ coefs.X0
            mine = fidelity_value(shifted, dicts, coefs.X, data.n_c)
            ref = stacked_fidelity(
                shifted, list(dicts.class_dicts), coefs.X, data.labels
            )
            assert abs(mine - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_zero_codes(self):
        data, dicts, _ = random_problem(26)
        X = np.zeros((dicts.K, data.N))
        # all three residual pieces collapse to the data itself
        want = float(np.sum(data.Y**2))
        assert fidelity_value(data.Y, dicts, X, data.n_c) == pytest.approx(want)


class TestGramClassCodes:
    def test_full_gradient_finite_difference(self):
        # the class-code pair the joint solver uses, H X - B plus the Fisher
        # class-mean product X Q, against the fidelity plus lambda2/2 times
        # the X part of the Fisher value
        data, dicts, coefs = random_problem(16)
        lam2 = 0.7
        shifted = data.Y - dicts.shared_dict @ coefs.X0
        H, B = gram_class_codes(dicts, shifted, data.n_c, lam2)
        X = coefs.X
        mean_part = X @ fisher_mean_map(data.C, data.n_c, data.C, lam2)
        g = H @ X - B + np.repeat(mean_part, data.n_c, axis=1)

        def f(M):
            fidelity = fidelity_value(shifted, dicts, M, data.n_c)
            return fidelity + 0.5 * lam2 * fisher_value(M, data.labels)

        assert rel_err(g, fd_grad(f, X, eps=1e-6)) < 1e-7


class TestGradFisher:
    def test_two_scalar_columns(self):
        X = np.array([[1.0, 3.0]])
        g = grad_fisher(X, np.array([1, 2]))
        assert np.allclose(g, [[4.0, 4.0]])

    def test_identical_columns_reduce_to_two_x(self):
        rng = np.random.default_rng(27)
        col = rng.standard_normal(5)
        X = np.tile(col[:, None], (1, 6))
        g = grad_fisher(X, np.repeat([1, 2, 3], 2))
        assert np.allclose(g, 2.0 * X, atol=1e-12)

    def test_finite_difference_through_means(self):
        rng = np.random.default_rng(28)
        X = rng.standard_normal((6, 8))
        labels = np.repeat([1, 2], 4)

        def f(M):
            return fisher_value(M, labels)

        fd = fd_grad(f, X, eps=1e-6)
        assert rel_err(grad_fisher(X, labels), fd) < 1e-4

    def test_fisher_value_nonnegative(self):
        # f(X) >= 0: within-class scatter minus between-class plus ||X||^2
        rng = np.random.default_rng(30)
        for seed in range(10):
            X = np.random.default_rng(seed).standard_normal((5, 9))
            labels = np.repeat([1, 2, 3], 3)
            assert fisher_value(X, labels) >= -1e-10

    def test_label_length_checked(self):
        with pytest.raises(DimensionError):
            grad_fisher(np.zeros((2, 4)), np.array([1, 2]))


class TestGradSharedCodes:
    def test_finite_difference(self):
        rng = np.random.default_rng(31)
        d, k0, n = 7, 3, 5
        D0 = normalize_columns(rng.standard_normal((d, k0)), warn=False)
        Ybar = rng.standard_normal((d, n))
        Ytilde = rng.standard_normal((d, n))
        X0 = rng.standard_normal((k0, n))
        M0 = np.tile(rng.standard_normal(k0)[:, None], (1, n))
        lam2 = 0.3

        def f(W):
            fit = 0.5 * float(np.sum((Ybar - D0 @ W) ** 2))
            fit += 0.5 * float(np.sum((Ytilde - D0 @ W) ** 2))
            return fit + 0.5 * lam2 * float(np.sum((W - M0) ** 2))

        fd = fd_grad(f, X0, eps=1e-6)
        g = grad_shared_codes(D0, Ybar + Ytilde, X0, M0, lam2)
        assert rel_err(g, fd) < 1e-4

    def test_stationary_at_exact_fit(self):
        rng = np.random.default_rng(32)
        d, k0, n = 6, 2, 4
        D0 = normalize_columns(rng.standard_normal((d, k0)), warn=False)
        X0 = rng.standard_normal((k0, n))
        Y = D0 @ X0
        g = grad_shared_codes(D0, 2.0 * Y, X0, X0, lambda2=0.7)
        assert np.max(np.abs(g)) < 1e-10

    def test_shape_checks(self):
        with pytest.raises(DimensionError):
            grad_shared_codes(
                np.zeros((4, 2)), np.zeros((4, 3)), np.zeros((2, 5)),
                np.zeros((2, 5)), 0.1,
            )
        with pytest.raises(DimensionError):
            grad_shared_codes(
                np.zeros((4, 2)), np.zeros((4, 5)), np.zeros((2, 5)),
                np.zeros((2, 4)), 0.1,
            )


class TestBuildTestGram:
    """The Gram form (H, B) of test coding, through grad_test_code: its
    gradient H X - B, checked on a batch of samples, one code column each."""

    def grad(self, dicts, Y, X, m0, lambda2):
        return grad_test_code(dicts, Y, X, m0, lambda2)

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
        # one sample (d,) is the same quadratic with vector B
        g1 = self.grad(dicts, Y[:, 0], X[:, 0], m0, lam2)
        assert np.allclose(g1, self.grad(dicts, Y, X, m0, lam2)[:, 0], atol=1e-12)

    def test_no_shared_atoms(self):
        _, dicts, _ = random_problem(38, k0=0)
        Y = np.random.default_rng(1).standard_normal((dicts.d, 3))
        X = np.random.default_rng(2).standard_normal((dicts.K, 3))
        g = self.grad(dicts, Y, X, np.zeros(0), lambda2=0.5)
        assert np.allclose(g, dicts.D.T @ (dicts.D @ X - Y), atol=1e-12)

    def test_shape_checks(self):
        _, dicts, _ = random_problem(38, k0=2)
        X = np.zeros((dicts.K + dicts.k0, 2))
        with pytest.raises(DimensionError):
            grad_test_code(dicts, np.zeros((dicts.d + 1, 2)), X, np.zeros(2), 0.1)
        with pytest.raises(DimensionError):
            grad_test_code(dicts, np.zeros((dicts.d, 2)), X, np.zeros(3), 0.1)


class TestObjective:
    def test_zero_codes_no_shared_equals_data_energy(self):
        data, dicts, _ = random_problem(39, k0=0)
        coefs = CoefBundle.zeros(C=data.C, k_c=dicts.k_c, k0=0, n_c=data.n_c)
        hyper = HyperParams(lambda1=0.2, lambda2=0.5, eta=0.7)
        total = lrsdl_objective(data, dicts, coefs, hyper)
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
            mine = lrsdl_objective(data, dicts, coefs, hyper)
            ref = fddl_objective(
                data.Y, list(dicts.class_dicts), coefs.X, data.labels,
                hyper.lambda1, hyper.lambda2,
            )
            assert abs(mine - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_full_model_matches_literal_objective(self):
        hyper = HyperParams(lambda1=0.05, lambda2=0.3, eta=0.2)
        for seed in range(5):
            data, dicts, coefs = random_problem(60 + seed, k0=2)
            mine = lrsdl_objective(data, dicts, coefs, hyper)
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

    def test_shape_mismatch_rejected(self):
        data, dicts, coefs = random_problem(71)
        bad = CoefBundle.zeros(C=data.C, k_c=dicts.k_c + 1, k0=dicts.k0, n_c=data.n_c)
        with pytest.raises(DimensionError):
            objective_terms(data, dicts, bad, HyperParams())
