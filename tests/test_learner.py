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

from oracles import fddl_objective


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
        dicts, coefs = initialize(data, cfg, seed=0)
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
        dicts, _ = initialize(data, TrainConfig(k_c=5, k0=0), seed=3)
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
        cfg = TrainConfig(k_c=4, k0=2)
        d1, _ = initialize(data, cfg, seed=5)
        d2, _ = initialize(data, cfg, seed=5)
        assert np.array_equal(d1.D, d2.D)
        assert np.array_equal(d1.shared_dict, d2.shared_dict)

    def test_shared_start_orthonormal(self):
        data = normalized(small_data(4, k0=3))
        dicts, _ = initialize(data, TrainConfig(k_c=4, k0=3), seed=0)
        G = dicts.shared_dict.T @ dicts.shared_dict
        assert np.max(np.abs(G - np.eye(3))) < 1e-10

    def test_oversized_shared_rejected(self):
        data = normalized(small_data(5))
        with pytest.raises(ParameterError):
            initialize(data, TrainConfig(k_c=4, k0=data.d + data.N), seed=0)

    def test_oversampling_warns(self, caplog):
        data = normalized(small_data(6, n_c=3))
        with caplog.at_level(logging.WARNING, logger="lrsdl.learner"):
            dicts, _ = initialize(data, TrainConfig(k_c=6, k0=0), seed=0)
        assert dicts.k_c == 6
        assert any("replacement" in r.message for r in caplog.records)

    def test_oversampling_warning_names_the_smallest_class(self, caplog):
        # classes of 8, 3, 8 and 5 samples: only class 2 has fewer than 4
        data = small_data(7)
        cols = np.concatenate([np.arange(8), np.arange(8, 11), np.arange(16, 29)])
        data = normalized(Dataset(Y=data.Y[:, cols], labels=data.labels[cols]))
        with caplog.at_level(logging.WARNING, logger="lrsdl.learner"):
            initialize(data, TrainConfig(k_c=4, k0=0), seed=0)
            initialize(data, TrainConfig(k_c=3, k0=0), seed=0)
        assert [r.getMessage() for r in caplog.records] == [
            "k_c=4 exceeds the 3 samples of class 2, the smallest; drawn with replacement"
        ]


class TestSparseCodeTrain:
    def setup_method(self):
        self.data = normalized(small_data(10))
        self.hyper = HyperParams(lambda1=0.01, lambda2=0.05, fista_iters=30)
        self.cfg = TrainConfig(hyper=self.hyper, k_c=4, k0=0)
        self.dicts, self.coefs = initialize(self.data, self.cfg, seed=0)

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
        dicts, coefs = initialize(data, cfg, seed=0)
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
        ref_dicts, _ = initialize(
            normalized(data), TrainConfig(hyper=hyper, k_c=4, k0=2), hyper.seed
        )
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
                ndata.Y, list(dicts.class_dicts), coefs.X, ndata.labels,
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
            return candidates[-1], [(0.0, 0.0)]

        monkeypatch.setattr(dictupdate, "admm_nuclear", random_dict)
        seen = []

        def snoop(ndata, dicts, coefs, hyper):
            cand = DictionaryBundle(class_dicts=dicts.class_dicts, shared_dict=candidates[-1])
            terms = objective_terms(ndata, dicts, coefs, hyper)
            cand_total = objective_terms(ndata, cand, coefs, hyper).total
            seen.append((dicts.shared_dict, terms, cand_total))
            return terms

        monkeypatch.setattr(learner, "objective_terms", snoop)
        model = fit(data, cfg)
        init, _ = initialize(normalized(data), cfg, cfg.hyper.seed)
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
