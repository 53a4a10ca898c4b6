"""Training loop tests: initialization, coding steps, trace invariants,
the numerical-abort path, and the coder benchmark harness.

The no-shared-dictionary reduction is checked against the literal reference
objective in oracles.py at every traced iteration, and the objective never
increasing is checked on generated problems for both coders.
"""

import logging
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lrsdl import dictupdate, learner
from lrsdl.archive import load_model, save_model
from lrsdl.data import (
    CoefBundle,
    Dataset,
    DictionaryBundle,
    HyperParams,
    generate_synthetic,
    normalize_columns,
)
from lrsdl.errors import ParameterError
from lrsdl.gradients import objective_terms
from lrsdl.learner import (
    TrainConfig,
    bench_joint_vs_sequential,
    fit,
    initialize,
    sparse_code_sequential,
    sparse_code_train,
)

from oracles import fddl_objective, shared_span_capture


def small_data(seed=0, C=4, d=20, n_c=8, k_c=4, k0=0, **kw):
    data, _ = generate_synthetic(
        C=C, d=d, n_c=n_c, k_c=k_c, k0=k0,
        shared_rank=min(2, k0), noise_sigma=0.1, seed=seed, **kw
    )
    return data


def normalized(data):
    Yn = normalize_columns(data.Y)
    return Dataset(Y=Yn, labels=data.labels)


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.k_c == 10 and cfg.k0 == 0

    def test_rejects_bad_values(self):
        with pytest.raises(ParameterError):
            TrainConfig(k_c=0)
        with pytest.raises(ParameterError):
            TrainConfig(k0=-1)
        for bad in (2.5, float("nan"), True):
            with pytest.raises(ParameterError):
                TrainConfig(k_c=bad)
        with pytest.raises(ParameterError):
            TrainConfig(k0=1.5)
        cfg = TrainConfig(k_c=np.int64(2), k0=np.int32(1))
        assert (cfg.k_c, cfg.k0) == (2, 1)


class TestInitialize:
    def test_atoms_come_from_class_columns(self):
        data = normalized(small_data(1))
        cfg = TrainConfig(k_c=4, k0=0)
        dicts, coefs = initialize(data, cfg)
        assert dicts.shared_dict.shape == (data.d, 0)
        assert coefs.X.shape == (data.C * 4, data.N)
        for c in range(1, data.C + 1):
            block = data.class_block(c)
            block_n = block / np.linalg.norm(block, axis=0)
            Dc = dicts.class_dict(c)
            for j in range(Dc.shape[1]):
                gaps = np.linalg.norm(block_n - Dc[:, j : j + 1], axis=0)
                assert gaps.min() < 1e-12

    def test_full_sampling_is_permutation(self):
        data = normalized(small_data(2, n_c=5))
        dicts, _ = initialize(data, TrainConfig(hyper=HyperParams(seed=3), k_c=5, k0=0))
        for c in range(1, data.C + 1):
            block = data.class_block(c)
            block_n = block / np.linalg.norm(block, axis=0)
            Dc = dicts.class_dict(c)
            # without replacement: every data column used exactly once
            used = set()
            for j in range(5):
                hit = int(
                    np.argmin(np.linalg.norm(block_n - Dc[:, j : j + 1], axis=0))
                )
                used.add(hit)
            assert used == set(range(5))

    def test_deterministic(self):
        data = normalized(small_data(3, k0=2))
        cfg = TrainConfig(hyper=HyperParams(seed=5), k_c=4, k0=2)
        d1, _ = initialize(data, cfg)
        d2, _ = initialize(data, cfg)
        assert np.array_equal(d1.D, d2.D)
        assert np.array_equal(d1.shared_dict, d2.shared_dict)

    def test_shared_start_orthonormal(self):
        data = normalized(small_data(4, k0=3))
        dicts, _ = initialize(data, TrainConfig(k_c=4, k0=3))
        G = dicts.shared_dict.T @ dicts.shared_dict
        assert np.max(np.abs(G - np.eye(3))) < 1e-10

    def test_oversized_shared_rejected(self):
        data = normalized(small_data(5))
        with pytest.raises(ParameterError):
            initialize(data, TrainConfig(k_c=4, k0=data.d + data.N))

    def test_oversampling_warns(self, caplog):
        data = normalized(small_data(6, n_c=3))
        with caplog.at_level(logging.WARNING, logger="lrsdl.learner"):
            dicts, _ = initialize(data, TrainConfig(k_c=6, k0=0))
        assert dicts.k_c == 6
        assert any("replacement" in r.message for r in caplog.records)

    def test_oversampling_warning_names_the_smallest_class(self, caplog):
        # classes of 8, 3, 8 and 5 samples: only class 2 has fewer than 4
        data = small_data(7)
        cols = np.concatenate([np.arange(8), np.arange(8, 11), np.arange(16, 29)])
        data = normalized(Dataset(Y=data.Y[:, cols], labels=data.labels[cols]))
        with caplog.at_level(logging.WARNING, logger="lrsdl.learner"):
            initialize(data, TrainConfig(k_c=4, k0=0))
            initialize(data, TrainConfig(k_c=3, k0=0))
        assert [r.getMessage() for r in caplog.records] == [
            "k_c=4 exceeds the 3 samples of class 2, the smallest; drawn with replacement"
        ]

    def test_class_atoms_start_orthogonal_to_the_data_mean(self):
        # the k0 = 0 start makes the same draws, so each k0 > 0 atom is the
        # normalized projection of the k0 = 0 atom off the unit data mean u
        data = normalized(small_data(11, k0=2))
        hyper = HyperParams(seed=6)
        plain, _ = initialize(data, TrainConfig(hyper=hyper, k_c=4, k0=0))
        dicts, _ = initialize(data, TrainConfig(hyper=hyper, k_c=4, k0=2))
        u = data.Y.mean(axis=1)
        u /= np.linalg.norm(u)
        P = plain.D - np.outer(u, u @ plain.D)
        assert np.linalg.norm(P, axis=0).min() > 0.1  # every projection kept
        assert np.allclose(dicts.D, P / np.linalg.norm(P, axis=0), rtol=0, atol=1e-12)
        assert np.allclose(np.linalg.norm(dicts.D, axis=0), 1.0, rtol=0, atol=1e-12)
        assert np.abs(u @ dicts.D).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(1, 5))
    def test_start_off_the_mean_is_better_conditioned(self, seed):
        # the benchmark's train_shared shape: the raw class atoms all carry
        # the common mean, so D^T D has one large eigenvalue
        data, _ = generate_synthetic(
            C=10, d=250, n_c=25, k_c=10, k0=25, shared_rank=8, noise_sigma=0.05, seed=seed
        )
        data = normalized(data)
        hyper = HyperParams(seed=seed)
        lam = []
        for k0 in (0, 25):
            dicts, _ = initialize(data, TrainConfig(hyper=hyper, k_c=10, k0=k0))
            lam.append(np.linalg.eigvalsh(dicts.D_total.T @ dicts.D_total)[-1])
        assert lam[1] < lam[0]


def fit_save_load(data, k_c, k0, tmp_path):
    """Fit with a shared layer, check the trace never rises, and round-trip
    the model through an archive."""
    hyper = HyperParams(lambda1=0.01, lambda2=0.05, eta=0.1, outer_iters=4, fista_iters=30)
    model = fit(data, TrainConfig(hyper=hyper, k_c=k_c, k0=k0))
    objs = [r.objective for r in model.trace]
    assert not model.aborted and len(objs) == 4
    for a, b in zip(objs, objs[1:]):
        assert b <= a + 1e-6 * max(1.0, abs(a))
    save_model(model, str(tmp_path / "arc"))
    back = load_model(str(tmp_path / "arc"))
    assert np.array_equal(back.dict_bundle.D, model.dict_bundle.D)


class TestStartOffTheMeanEdgeCases:
    """Starts whose atoms lie along the data mean, or whose mean is round-off
    only: none may be refused by DictionaryBundle."""

    def test_one_feature(self, tmp_path):
        # d = 1: every atom lies along the mean, so every atom stays as drawn
        Y = np.array([[1.0, 2.0, -0.5, 3.0, 0.7, 1.5]])
        data = Dataset.from_arrays(Y, np.repeat([1, 2], 3))
        unit = normalized(data)
        plain, _ = initialize(unit, TrainConfig(k_c=2, k0=0))
        dicts, _ = initialize(unit, TrainConfig(k_c=2, k0=1))
        assert np.array_equal(dicts.D, plain.D)
        fit_save_load(data, 2, 1, tmp_path)

    def test_zero_data_mean(self, tmp_path):
        # each column y comes with -y: the mean is round-off (about 1e-17
        # in the order numpy sums), not a direction to project off
        Z = np.random.default_rng(3).standard_normal((6, 4))
        data = Dataset.from_arrays(np.hstack([Z, -Z]), np.tile([1, 2], 4))
        unit = normalized(data)
        assert np.linalg.norm(unit.Y.mean(axis=1)) < 1e-12
        plain, _ = initialize(unit, TrainConfig(k_c=3, k0=0))
        dicts, _ = initialize(unit, TrainConfig(k_c=3, k0=2))
        assert np.array_equal(dicts.D, plain.D)
        fit_save_load(data, 3, 2, tmp_path)

    def test_mean_along_one_class(self, tmp_path):
        # class 1 holds multiples of u and class 2 holds +-b pairs, so the
        # mean lies along u: class 1's atoms stay, class 2's are projected
        rng = np.random.default_rng(4)
        u, b = rng.standard_normal(8), rng.standard_normal(8)
        Y = np.column_stack([u, 2 * u, 0.5 * u, 3 * u, b, -b, 2 * b, -2 * b])
        data = Dataset.from_arrays(Y, np.repeat([1, 2], 4))
        unit = normalized(data)
        plain, _ = initialize(unit, TrainConfig(k_c=3, k0=0))
        dicts, _ = initialize(unit, TrainConfig(k_c=3, k0=1))
        assert np.array_equal(dicts.class_dict(1), plain.class_dict(1))
        u /= np.linalg.norm(u)
        assert np.abs(u @ dicts.class_dict(2)).max() <= 1e-12
        fit_save_load(data, 3, 1, tmp_path)


class TestSparseCodeTrain:
    def setup_method(self):
        self.data = normalized(small_data(10))
        self.hyper = HyperParams(lambda1=0.01, lambda2=0.05, fista_iters=30)
        self.cfg = TrainConfig(hyper=self.hyper, k_c=4, k0=0)
        self.dicts, self.coefs = initialize(self.data, self.cfg)

    def test_huge_l1_kills_codes(self):
        rng = np.random.default_rng(0)
        warm = CoefBundle(
            X=0.1 * rng.standard_normal(self.coefs.X.shape),
            X0=self.coefs.X0,
        )
        hyper = HyperParams(lambda1=1e6, lambda2=0.05, fista_iters=20)
        out = sparse_code_train(self.data, self.dicts, warm, hyper)
        assert np.array_equal(out.X, np.zeros_like(out.X))

    def test_objective_never_increases_through(self):
        coefs = self.coefs
        for _ in range(3):
            before = objective_terms(self.data, self.dicts, coefs, self.hyper).total
            coefs = sparse_code_train(self.data, self.dicts, coefs, self.hyper)
            after = objective_terms(self.data, self.dicts, coefs, self.hyper).total
            assert after <= before + 1e-8 * max(1.0, abs(before))

    def test_joint_beats_sequential_round(self):
        cj = sparse_code_train(self.data, self.dicts, self.coefs, self.hyper)
        cs = sparse_code_sequential(self.data, self.dicts, self.coefs, self.hyper)
        oj = objective_terms(self.data, self.dicts, cj, self.hyper).total
        os_ = objective_terms(self.data, self.dicts, cs, self.hyper).total
        assert oj <= os_ + 1e-9

    def test_sequential_also_non_increasing(self):
        before = objective_terms(self.data, self.dicts, self.coefs, self.hyper).total
        out = sparse_code_sequential(self.data, self.dicts, self.coefs, self.hyper)
        after = objective_terms(self.data, self.dicts, out, self.hyper).total
        assert after <= before + 1e-8 * max(1.0, abs(before))

    def test_shared_codes_updated_with_shared_dict(self):
        data = normalized(small_data(11, k0=3))
        hyper = HyperParams(lambda1=0.01, lambda2=0.05, fista_iters=30)
        cfg = TrainConfig(hyper=hyper, k_c=4, k0=3)
        dicts, coefs = initialize(data, cfg)
        out = sparse_code_train(data, dicts, coefs, hyper)
        assert out.X0.shape == (3, data.N)
        # shared directions carry signal here, so the solve must move X0
        assert np.linalg.norm(out.X0) > 0


class TestFitTraces:
    def make(self, seed=20, k0=0, **cfg_kw):
        data = small_data(seed, k0=k0)
        hyper = cfg_kw.pop(
            "hyper", HyperParams(lambda1=0.01, lambda2=0.05, outer_iters=8, fista_iters=40)
        )
        cfg = TrainConfig(hyper=hyper, k_c=4, k0=k0, **cfg_kw)
        return data, cfg

    def test_records_sum_and_never_increase(self):
        data, cfg = self.make(k0=2)
        model = fit(data, cfg)
        assert not model.aborted
        assert len(model.trace) == cfg.hyper.outer_iters
        objs = []
        for rec in model.trace:
            parts = rec.fidelity + rec.l1 + rec.fisher + rec.nuclear
            assert rec.objective == pytest.approx(parts, rel=1e-8)
            objs.append(rec.objective)
        for a, b in zip(objs, objs[1:]):
            assert b <= a + 1e-6 * max(1.0, abs(a))

    def test_bit_identical_reruns(self):
        data, cfg = self.make(k0=2)
        m1 = fit(data, cfg)
        m2 = fit(data, cfg)
        assert np.array_equal(m1.dict_bundle.D, m2.dict_bundle.D)
        assert np.array_equal(m1.dict_bundle.shared_dict, m2.dict_bundle.shared_dict)
        assert [r.objective for r in m1.trace] == [r.objective for r in m2.trace]

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_extreme_feature_scale_trains_like_unit_scale(self, scale):
        # column normalization must undo the scale even where squaring the
        # entries overflows or underflows, instead of zeroing the data
        data, cfg = self.make(k0=2)
        scaled = Dataset.from_arrays(data.Y * scale, data.labels)
        ref = fit(data, cfg)
        got = fit(scaled, cfg)
        assert not got.aborted
        assert [r.objective for r in got.trace] == pytest.approx(
            [r.objective for r in ref.trace], rel=1e-9
        )

    def test_unregularized_descent(self):
        data, _ = self.make()
        hyper = HyperParams(
            lambda1=0.0, lambda2=0.0, eta=0.0, outer_iters=6, fista_iters=40
        )
        model = fit(data, TrainConfig(hyper=hyper, k_c=4, k0=0))
        objs = [r.objective for r in model.trace]
        for a, b in zip(objs, objs[1:]):
            assert b <= a + 1e-8 * max(1.0, abs(a))

    def test_invalid_coder(self):
        data, cfg = self.make()
        with pytest.raises(ParameterError):
            fit(data, cfg, coder="parallel")

    def test_abort_returns_last_good_state(self):
        data, _ = self.make(k0=2)
        hyper = HyperParams(eta=1e308, outer_iters=3)
        model = fit(data, TrainConfig(hyper=hyper, k_c=4, k0=2))
        assert model.aborted
        assert model.trace == ()
        # the survivor is the (deterministic) initialization
        ref_dicts, _ = initialize(normalized(data), TrainConfig(hyper=hyper, k_c=4, k0=2))
        assert np.array_equal(model.dict_bundle.D, ref_dicts.D)

    def test_matches_reference_objective_without_shared(self, monkeypatch):
        # with no shared dictionary the traced objective must equal the
        # plain class-dictionary objective computed from first principles
        data, _ = self.make(seed=21)
        hyper = HyperParams(lambda1=0.01, lambda2=0.05, outer_iters=6, fista_iters=40)
        cfg = TrainConfig(hyper=hyper, k_c=4, k0=0)
        seen = []

        def snoop(ndata, dicts, coefs, hyper):
            seen.append(fddl_objective(
                ndata.Y, np.hsplit(dicts.D, dicts.C), coefs.X, ndata.labels,
                hyper.lambda1, hyper.lambda2,
            ))
            return objective_terms(ndata, dicts, coefs, hyper)

        monkeypatch.setattr(learner, "objective_terms", snoop)
        model = fit(data, cfg)
        assert not model.aborted
        assert len(seen) == len(model.trace) == hyper.outer_iters
        for rec, ref in zip(model.trace, seen):
            assert abs(rec.objective - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_worse_shared_dictionary_is_rejected(self, monkeypatch):
        # a random unit-norm ADMM candidate fits worse than the current D0,
        # so the shared step must keep the current D0 and fit must trace
        # the objective at it
        data, cfg = self.make(k0=2)
        rng = np.random.default_rng(0)
        candidates = []

        def random_dict(V, X0, *args, **kwargs):
            candidates.append(normalize_columns(rng.standard_normal((V.shape[0], X0.shape[0]))))
            return candidates[-1], [(0.0, 0.0)], True

        monkeypatch.setattr(dictupdate, "admm_nuclear", random_dict)
        seen = []

        def snoop(ndata, dicts, coefs, hyper):
            cand = DictionaryBundle(D=dicts.D, shared_dict=candidates[-1], C=dicts.C)
            terms = objective_terms(ndata, dicts, coefs, hyper)
            cand_total = objective_terms(ndata, cand, coefs, hyper).total
            seen.append((dicts.shared_dict, terms, cand_total))
            return terms

        monkeypatch.setattr(learner, "objective_terms", snoop)
        model = fit(data, cfg)
        init, _ = initialize(normalized(data), cfg)
        assert len(candidates) == len(seen) == len(model.trace) == cfg.hyper.outer_iters
        for rec, (D0, terms, cand_total) in zip(model.trace, seen):
            assert cand_total > terms.total
            assert np.array_equal(D0, init.shared_dict)
            assert (rec.objective, rec.fidelity, rec.l1, rec.fisher, rec.nuclear) == (
                terms.total, terms.fidelity, terms.l1, terms.fisher, terms.nuclear
            )
        assert np.array_equal(model.dict_bundle.shared_dict, init.shared_dict)

    @pytest.mark.parametrize("coder", ["joint", "sequential"])
    @pytest.mark.parametrize("k0", [0, 2])
    def test_objective_evaluated_once_per_iteration(self, monkeypatch, coder, k0):
        data, cfg = self.make(k0=k0)
        calls = []

        def counted(*args):
            calls.append(args)
            return objective_terms(*args)

        monkeypatch.setattr(learner, "objective_terms", counted)
        model = fit(data, cfg, coder=coder)
        assert len(model.trace) == cfg.hyper.outer_iters
        assert len(calls) == cfg.hyper.outer_iters
        # each call is the one its record was filled from
        assert [objective_terms(*a).total for a in calls] == [r.objective for r in model.trace]

    def test_shared_rank_collapses_under_penalty(self):
        data, _ = generate_synthetic(
            C=4, d=30, n_c=10, k_c=4, k0=6, shared_rank=3,
            noise_sigma=0.02, seed=3, shared_scale=3.0,
        )
        hyper = HyperParams(eta=0.1, outer_iters=12, fista_iters=60, admm_iters=80)
        model = fit(data, TrainConfig(hyper=hyper, k_c=4, k0=6))
        s = np.linalg.svd(model.dict_bundle.shared_dict, compute_uv=False)
        rank = int(np.sum(s > 1e-8 * max(s[0], 1e-30)))
        assert rank <= 5


@settings(max_examples=150, deadline=None)
@given(
    coder=st.sampled_from(["joint", "sequential"]),
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    k_c=st.integers(1, 5),
    k0=st.integers(0, 2),
    d=st.integers(2, 8),
    zero_column=st.booleans(),
    lambda1=st.floats(0.0, 0.1),
    lambda2=st.floats(0.0, 0.5),
    eta=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_objective_never_increases(
    coder, sizes, k_c, k0, d, zero_column, lambda1, lambda2, eta, seed
):
    # a size per class in 1..4, k_c above a class's size, C = 1, k0 = 0
    # (the empty shared layer) and an all-zero sample are all drawn; the
    # bound is acceptance criterion 4's
    N = sum(sizes)
    assume(k0 <= min(d, N))
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((d, N))
    if zero_column:
        Y[:, rng.integers(N)] = 0.0
    data = Dataset.from_arrays(Y, np.repeat(np.arange(1, len(sizes) + 1), sizes))
    hyper = HyperParams(
        lambda1=lambda1, lambda2=lambda2, eta=eta,
        outer_iters=3, fista_iters=30, admm_iters=30, seed=seed,
    )
    model = fit(data, TrainConfig(hyper=hyper, k_c=k_c, k0=k0), coder=coder)
    assert not model.aborted and len(model.trace) == 3
    objs = [r.objective for r in model.trace]
    for a, b in zip(objs, objs[1:]):
        assert b <= a + 1e-6 * max(1.0, abs(a))


def test_fit_logs_zero_training_samples(caplog):
    # reported through the learner's logger, as classify reports zero test
    # samples through the classifier's, and never as a Python warning
    data = small_data(8, C=2, n_c=3)
    Y = data.Y.copy()
    Y[:, [1, 4]] = 0.0
    hyper = HyperParams(outer_iters=1, fista_iters=5, admm_iters=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with caplog.at_level(logging.WARNING, logger="lrsdl.learner"):
            model = fit(Dataset(Y=Y, labels=data.labels), TrainConfig(hyper=hyper, k_c=2))
    assert [r.getMessage() for r in caplog.records] == [
        "2 zero-norm training sample(s) left unnormalized"
    ]
    assert len(model.trace) == 1


class TestLargeConfig:
    def test_many_classes_strict_early_descent(self):
        # deliberately big: 100 classes, 300 features, 7 atoms per class
        data, _ = generate_synthetic(
            C=100, d=300, n_c=7, k_c=7, k0=0, shared_rank=0,
            noise_sigma=0.05, seed=0,
        )
        hyper = HyperParams(lambda1=0.001, lambda2=0.01, outer_iters=5, fista_iters=15)
        model = fit(data, TrainConfig(hyper=hyper, k_c=7, k0=0))
        objs = [r.objective for r in model.trace]
        assert len(objs) == 5
        assert all(a > b for a, b in zip(objs, objs[1:]))


class TestBenchHarness:
    def test_requires_no_shared_dict(self):
        data = small_data(30)
        cfg = TrainConfig(hyper=HyperParams(outer_iters=2), k_c=4, k0=2)
        with pytest.raises(ParameterError):
            bench_joint_vs_sequential(data, cfg)

    def test_both_traces_monotone(self):
        data = small_data(32)
        hyper = HyperParams(lambda1=0.01, lambda2=0.05, outer_iters=6, fista_iters=30)
        cfg = TrainConfig(hyper=hyper, k_c=4, k0=0)
        joint, sequential = bench_joint_vs_sequential(data, cfg)
        for model in (joint, sequential):
            objs = [r.objective for r in model.trace]
            assert len(objs) == 6
            for a, b in zip(objs, objs[1:]):
                assert b <= a + 1e-6 * max(1.0, abs(a))


@pytest.mark.parametrize("seed", range(4))
def test_shared_dictionary_recovers_the_planted_shared_span(seed):
    # the paper's simulated-data claim: the learned shared dictionary holds
    # the patterns common to all classes. Its span must hold more of the
    # planted shared span than twice the k0 / d = 0.15 a random subspace
    # holds on average, and more than a seeded random k0-dim subspace
    C, d, k0 = 5, 40, 6
    data, truth = generate_synthetic(
        C=C, d=d, n_c=15, k_c=4, k0=k0, shared_rank=3, noise_sigma=0.05, seed=seed
    )
    hyper = HyperParams(lambda1=0.01, lambda2=0.05, eta=0.1, outer_iters=6, seed=seed)
    model = fit(data, TrainConfig(hyper=hyper, k_c=4, k0=k0))
    captured = shared_span_capture(truth.shared_dict, model.dict_bundle.shared_dict)
    random = shared_span_capture(
        truth.shared_dict, np.random.default_rng(seed).standard_normal((d, k0))
    )
    assert captured > 2 * k0 / d
    assert captured > random
