"""Acceptance suite: one test per shipping criterion.

Each test prints a single "ACCEPTANCE <n> <name>: PASS/FAIL" verdict line
(run with -s to see them as they happen) and fails loudly with the
offending numbers otherwise. Workloads and tolerances are fixed; do not
loosen them to make a regression pass.
"""

import io
import os
import time
from contextlib import contextmanager, redirect_stdout

import numpy as np
import pytest

import lrsdl.classifier as classifier
import lrsdl.learner as learner
from lrsdl.archive import _parse_trace, load_model
from lrsdl.classifier import classify, evaluate
from lrsdl.cli import main
from lrsdl.data import (
    CoefBundle,
    Dataset,
    DictionaryBundle,
    HyperParams,
    LearnedModel,
    generate_synthetic,
    mean_stats,
    normalize_columns,
)
from lrsdl.gradients import objective_terms
from lrsdl.learner import TrainConfig, fit
from lrsdl.matio import load_labels, load_matrix, save_labels, save_matrix
from lrsdl.prox import SmoothObjective, admm_nuclear, fista, svt

from oracles import (
    cd_lasso,
    fd_grad,
    fddl_objective,
    lasso_objective,
    lrsdl_objective_literal,
    nuclear_norm,
    rel_err,
    subgrad_nuclear_descent,
    svt_eigh,
)
from test_coding_objectives import capture


@contextmanager
def verdict(n, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n} {name}: FAIL", flush=True)
        raise
    else:
        print(f"ACCEPTANCE {n} {name}: PASS", flush=True)


def first_samples(data, sizes):
    """The Dataset of the first sizes[c - 1] samples of each class c."""
    cols = np.concatenate(
        [np.flatnonzero(data.labels == c)[:n] for c, n in enumerate(sizes, 1)]
    )
    return Dataset.from_arrays(data.Y[:, cols], data.labels[cols])


# unequal classes: the layout of a data set like Extended YaleB
UNEQUAL = (7, 4, 5)


def random_triple(seed, C=3, d=8, n_c=4, k_c=3, k0=2, sizes=None):
    """Data, dictionaries and codes; with sizes, the data keeps the first
    sizes[c - 1] of the n_c samples of each class c."""
    rng = np.random.default_rng(seed)
    data, _ = generate_synthetic(
        C=C, d=d, n_c=n_c, k_c=k_c, k0=k0,
        shared_rank=min(2, k0), noise_sigma=0.1, seed=seed,
    )
    if sizes is not None:
        data = first_samples(data, sizes)
    cds = tuple(
        normalize_columns(rng.standard_normal((d, k_c)))
        for _ in range(C)
    )
    shared = (
        normalize_columns(rng.standard_normal((d, k0)))
        if k0
        else np.zeros((d, 0))
    )
    dicts = DictionaryBundle(class_dicts=cds, shared_dict=shared)
    coefs = CoefBundle(
        X=rng.standard_normal((C * k_c, data.N)),
        X0=rng.standard_normal((k0, data.N)),
    )
    return data, dicts, coefs


def cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def drop_last_sample(data_dir, out_dir):
    """Copy of the Y.lmx / labels.csv pair in data_dir without its last
    sample, so the last class has one sample fewer; returns out_dir."""
    Y = load_matrix(os.path.join(data_dir, "Y.lmx"))
    labels = load_labels(os.path.join(data_dir, "labels.csv"))
    os.makedirs(out_dir)
    save_matrix(Y[:, :-1], os.path.join(out_dir, "Y.lmx"))
    save_labels(labels[:-1], os.path.join(out_dir, "labels.csv"))
    return out_dir


def test_criterion_1_gradient_check():
    """The gradient of each SmoothObjective a coding site hands fista,
    captured by a stub, against finite differences of the literal objective
    of that site: joint class codes (Fisher product included), one
    sequential class block (the other classes' frozen means in B),
    shared codes and a test batch; the last problem has unequal classes."""
    with verdict(1, "gradient-check"):
        start = time.perf_counter()
        errors = []
        for seed in range(11):
            unequal = dict(n_c=max(UNEQUAL), sizes=UNEQUAL) if seed == 10 else {}
            data, dicts, coefs = random_triple(seed, **unequal)
            hyper = HyperParams(lambda1=0.05, lambda2=0.3)
            rng = np.random.default_rng(100 + seed)

            def literal(X, X0):
                # no l1 term: it is not smooth and lies outside obj.grad
                return lrsdl_objective_literal(
                    data.Y, list(dicts.class_dicts), dicts.shared_dict, X, X0,
                    data.labels, 0.0, hyper.lambda2, hyper.eta,
                )

            def check(obj, f, W):
                errors.append(rel_err(obj.grad(W), fd_grad(f, W)))

            with pytest.MonkeyPatch.context() as mp:
                joint = capture(mp, learner)
                learner.sparse_code_train(data, dicts, coefs, hyper)
            with pytest.MonkeyPatch.context() as mp:
                seq = capture(mp, learner)
                learner.sparse_code_sequential(data, dicts, coefs, hyper)
            class_obj, shared_obj = joint

            W = rng.standard_normal(coefs.X.shape)
            check(class_obj, lambda X: literal(X, coefs.X0), W)

            cols = data.class_columns(2)  # seq[1]: the first visit of class 2

            def block_literal(Wc):
                X = coefs.X.copy()
                X[:, cols] = Wc
                return literal(X, coefs.X0)

            check(seq[1], block_literal, W[:, cols])

            # the shared mean pull is frozen at the warm start, where the
            # shared-code objective touches the full one
            check(shared_obj, lambda X0: literal(coefs.X, X0), coefs.X0)

            model = LearnedModel(
                dict_bundle=dicts, mean_stats=mean_stats(coefs, data.labels),
                hyper=hyper, trace=(),
            )
            Y = rng.standard_normal((dicts.d, 3))
            Yn = Y / np.linalg.norm(Y, axis=0)
            with pytest.MonkeyPatch.context() as mp:
                test = capture(mp, classifier)
                classifier.encode_test(Yn, model)
            (test_obj,) = test
            m0 = model.mean_stats.shared_mean[:, None]
            D_total = np.hstack(dicts.class_dicts + (dicts.shared_dict,))

            def f_test(V):
                fit_term = 0.5 * float(np.sum((Yn - D_total @ V) ** 2))
                pull = float(np.sum((V[dicts.K :] - m0) ** 2))
                return fit_term + 0.5 * hyper.lambda2 * pull

            check(test_obj, f_test, rng.standard_normal((dicts.K + dicts.k0, 3)))
        elapsed = time.perf_counter() - start
        worst = max(errors)
        assert worst <= 1e-4, f"worst gradient relative error {worst:.2e}"
        assert elapsed < 10.0, f"gradient suite took {elapsed:.1f}s"


def test_criterion_2_solver_oracles():
    with verdict(2, "solver-oracles"):
        start = time.perf_counter()
        # l1 solver against coordinate descent
        worst_gap = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            A = rng.standard_normal((20, 10))
            b = rng.standard_normal(20)
            lam = float(rng.uniform(0.02, 0.3))
            L = 1.01 * float(np.linalg.eigvalsh(A.T @ A)[-1])
            obj = SmoothObjective(
                grad=lambda W, A=A, b=b: A.T @ (A @ W[:, 0] - b)[:, None],
                lipschitz=L,
                value=lambda W, A=A, b=b: 0.5
                * float(np.sum((A @ W[:, 0] - b) ** 2)),
            )
            out = fista(obj, lam, np.zeros((10, 1)), max_iter=2000, tol=1e-12)
            ref = cd_lasso(A, b, lam)
            gap = lasso_objective(A, b, lam, out[:, 0]) - lasso_objective(
                A, b, lam, ref
            )
            worst_gap = max(worst_gap, gap)
        assert worst_gap <= 1e-6, f"worst lasso objective gap {worst_gap:.2e}"

        # singular value thresholding against the eigendecomposition route
        worst_svt = 0.0
        for seed in range(10):
            rng = np.random.default_rng(50 + seed)
            M = rng.standard_normal((6, 4))
            tau = float(rng.uniform(0.1, 1.5))
            worst_svt = max(worst_svt, float(np.max(np.abs(svt(M, tau) - svt_eigh(M, tau)))))
        assert worst_svt <= 1e-8, f"worst svt deviation {worst_svt:.2e}"

        # nuclear-norm regression against projected subgradient descent
        rng = np.random.default_rng(99)
        V = rng.standard_normal((6, 12))
        X = rng.standard_normal((4, 12))
        eta = 0.5
        D = admm_nuclear(V, X, eta=eta, rho=1.0, iters=400)
        mine = float(np.sum((V - D @ X) ** 2)) + eta * nuclear_norm(D)
        ref = subgrad_nuclear_descent(V, X, eta, steps=100000, seed=0)
        assert mine <= ref + 1e-4, f"admm {mine:.10f} vs subgradient {ref:.10f}"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"solver suite took {elapsed:.1f}s"


def test_criterion_3_no_shared_reduction():
    with verdict(3, "no-shared-reduction"):
        # static: the full objective with k0=0 equals the class-only one
        hyper = HyperParams(lambda1=0.05, lambda2=0.3)
        for seed in range(11):
            unequal = dict(n_c=max(UNEQUAL), sizes=UNEQUAL) if seed == 10 else {}
            data, dicts, coefs = random_triple(seed, k0=0, **unequal)
            mine = objective_terms(data, dicts, coefs, hyper).total
            ref = fddl_objective(
                data.Y, list(dicts.class_dicts), coefs.X, data.labels,
                hyper.lambda1, hyper.lambda2,
            )
            assert abs(mine - ref) <= 1e-12 * max(1.0, abs(ref)), (
                f"seed {seed}: {mine!r} vs {ref!r}"
            )

        # dynamic: a k0=0 training run traces the class-only objective, on
        # equal classes and on classes of 8, 5, 7 and 6 samples
        data, _ = generate_synthetic(
            C=4, d=20, n_c=8, k_c=4, k0=0, shared_rank=0,
            noise_sigma=0.1, seed=0,
        )
        hyper = HyperParams(lambda1=0.01, lambda2=0.05, outer_iters=6, fista_iters=40)
        cfg = TrainConfig(hyper=hyper, k_c=4, k0=0)
        for train in (data, first_samples(data, (8, 5, 7, 6))):
            seen = []

            def snoop(ndata, dicts, coefs, hyper):
                # fit evaluates the objective once per completed iteration
                seen.append(fddl_objective(
                    ndata.Y, list(dicts.class_dicts), coefs.X, ndata.labels,
                    hyper.lambda1, hyper.lambda2,
                ))
                return objective_terms(ndata, dicts, coefs, hyper)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(learner, "objective_terms", snoop)
                model = fit(train, cfg)
            assert not model.aborted
            assert len(seen) == len(model.trace) == hyper.outer_iters
            for rec, ref in zip(model.trace, seen):
                assert abs(rec.objective - ref) <= 1e-10 * max(1.0, abs(ref)), (
                    f"iteration {rec.iteration}: {rec.objective!r} vs {ref!r}"
                )


def test_criterion_4_monotone_objective():
    with verdict(4, "monotone-objective"):
        problems = [
            dict(C=3, d=20, n_c=8, k_c=4, k0=0, shared_rank=0, seed=0),
            dict(C=5, d=30, n_c=6, k_c=3, k0=2, shared_rank=2, seed=1),
            dict(C=10, d=50, n_c=5, k_c=4, k0=6, shared_rank=3, seed=2),
            dict(C=4, d=25, n_c=10, k_c=5, k0=0, shared_rank=0, seed=3),
            dict(C=6, d=40, n_c=8, k_c=4, k0=3, shared_rank=2, seed=4),
            dict(C=3, d=20, n_c=7, k_c=4, k0=2, shared_rank=2, seed=5, sizes=UNEQUAL),
        ]
        for problem_kw in problems:
            seed = problem_kw.pop("seed")
            sizes = problem_kw.pop("sizes", None)
            k0 = problem_kw["k0"]
            data, _ = generate_synthetic(noise_sigma=0.1, seed=seed, **problem_kw)
            if sizes is not None:
                data = first_samples(data, sizes)
            hyper = HyperParams(
                lambda1=0.001, lambda2=0.01, eta=0.1,
                outer_iters=15, fista_iters=50, admm_iters=50,
            )
            model = fit(data, TrainConfig(hyper=hyper, k_c=problem_kw["k_c"], k0=k0))
            assert not model.aborted
            objs = [r.objective for r in model.trace]
            assert len(objs) == 15
            for a, b in zip(objs, objs[1:]):
                assert b <= a + 1e-6 * max(1.0, abs(a)), (
                    f"objective rose {a!r} -> {b!r} (seed {seed}, k0={k0})"
                )


def test_criterion_5_coder_benchmark(tmp_path):
    with verdict(5, "coder-benchmark"):
        start = time.perf_counter()
        data_dir = str(tmp_path / "data")
        out_dir = str(tmp_path / "bench")
        code, _ = cli(
            "synth", "--classes", "20", "--dim", "60", "--per-class", "7",
            "--kc", "7", "--k0", "0", "--noise", "0.05", "--seed", "0",
            "--out", data_dir,
        )
        assert code == 0
        code, stdout = cli(
            "bench",
            "--data", os.path.join(data_dir, "Y.lmx"),
            "--labels", os.path.join(data_dir, "labels.csv"),
            "--iters", "15", "--seed", "0", "--out", out_dir,
        )
        assert code == 0
        fields = dict(
            kv.split("=") for kv in stdout.splitlines()[0].split()
        )
        jf, sf = float(fields["joint_final"]), float(fields["seq_final"])
        jt, st = float(fields["joint_time"]), float(fields["seq_time"])
        assert jf <= sf, f"joint objective {jf} above sequential {sf}"
        assert jt < st, f"joint time {jt}s not below sequential {st}s"
        for name in ("joint.csv", "sequential.csv"):
            trace = _parse_trace(os.path.join(out_dir, name))
            assert len(trace) == 15
            objs = [r.objective for r in trace]
            for a, b in zip(objs, objs[1:]):
                assert b <= a + 1e-6 * max(1.0, abs(a))
        # the command takes classes that differ by one sample
        unequal = drop_last_sample(data_dir, str(tmp_path / "unequal"))
        code, _ = cli(
            "bench",
            "--data", os.path.join(unequal, "Y.lmx"),
            "--labels", os.path.join(unequal, "labels.csv"),
            "--iters", "2", "--seed", "0", "--out", str(tmp_path / "bench_unequal"),
        )
        assert code == 0
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"benchmark took {elapsed:.0f}s"


def test_criterion_6_shared_rank_control():
    with verdict(6, "shared-rank-control"):
        data, _ = generate_synthetic(
            C=4, d=30, n_c=10, k_c=4, k0=10, shared_rank=3,
            noise_sigma=0.05, seed=3, shared_scale=1.5,
        )
        ranks = {}
        for eta in (0.01, 0.1, 0.5, 1.0, 10.0):
            hyper = HyperParams(
                lambda1=0.001, lambda2=0.01, eta=eta,
                outer_iters=10, fista_iters=60, admm_iters=80,
            )
            model = fit(data, TrainConfig(hyper=hyper, k_c=4, k0=10))
            assert not model.aborted
            s = np.linalg.svd(model.dict_bundle.shared_dict, compute_uv=False)
            ranks[eta] = int(np.sum(s > 1e-8 * max(s[0], 1e-30)))
        grid = [ranks[e] for e in (0.01, 0.1, 0.5, 1.0, 10.0)]
        assert all(a >= b for a, b in zip(grid, grid[1:])), f"ranks {ranks}"
        assert ranks[0.5] <= 5, f"rank at mid penalty is {ranks[0.5]}"


def split_half(data, keep):
    cols = []
    for c in range(1, data.C + 1):
        class_cols = np.flatnonzero(data.labels == c)
        cols.extend(class_cols[:keep] if keep > 0 else class_cols[keep:])
    cols = np.array(cols)
    return Dataset.from_arrays(data.Y[:, cols], data.labels[cols])


def test_criterion_7_shared_dict_benefit():
    with verdict(7, "shared-dict-benefit"):
        wins = 0
        details = []
        for seed in (0, 1, 2):
            data, _ = generate_synthetic(
                C=5, d=50, n_c=20, k_c=6, k0=10, shared_rank=3,
                noise_sigma=0.1, seed=seed, shared_scale=1.5,
            )
            train = split_half(data, keep=10)
            test = split_half(data, keep=-10)
            accs = {}
            for k0 in (10, 0):
                hyper = HyperParams(
                    lambda1=0.001, lambda2=0.01, eta=0.1,
                    outer_iters=12, fista_iters=60, admm_iters=60,
                )
                model = fit(train, TrainConfig(hyper=hyper, k_c=6, k0=k0))
                accs[k0], _ = evaluate(test, model)
            details.append((seed, accs[10], accs[0]))
            wins += accs[10] >= accs[0]
        assert wins >= 2, f"shared dictionary won {wins}/3: {details}"


def test_criterion_8_determinism_roundtrip(tmp_path):
    with verdict(8, "determinism-roundtrip"):
        data_dir = str(tmp_path / "data")
        code, _ = cli(
            "synth", "--classes", "3", "--dim", "12", "--per-class", "5",
            "--kc", "3", "--k0", "2", "--shared-rank", "2",
            "--noise", "0.05", "--seed", "0", "--out", data_dir,
        )
        assert code == 0
        # the same checks on classes of 5, 5 and 4 samples
        unequal = drop_last_sample(data_dir, str(tmp_path / "unequal"))
        for data_dir in (data_dir, unequal):
            Y_path = os.path.join(data_dir, "Y.lmx")
            labels_path = os.path.join(data_dir, "labels.csv")
            args = (
                "train", "--data", Y_path, "--labels", labels_path,
                "--kc", "3", "--k0", "2", "--iters", "3", "--seed", "0",
            )
            m1, m2 = os.path.join(data_dir, "m1"), os.path.join(data_dir, "m2")
            assert cli(*args, "--out", m1)[0] == 0
            assert cli(*args, "--out", m2)[0] == 0
            for name in ("D.lmx", "D0.lmx", "means_mc.lmx", "mean_m0.lmx"):
                with open(os.path.join(m1, name), "rb") as fa:
                    with open(os.path.join(m2, name), "rb") as fb:
                        assert fa.read() == fb.read(), f"{name} differs across reruns"

            model = load_model(m1)
            back = load_model(m2)
            # the archive holds the model an in-process fit returns
            data = Dataset.from_arrays(load_matrix(Y_path), load_labels(labels_path))
            hyper = HyperParams(outer_iters=3, seed=0)
            fitted = fit(data, TrainConfig(hyper=hyper, k_c=3, k0=2))
            assert np.array_equal(model.dict_bundle.D_total, fitted.dict_bundle.D_total)
            assert np.array_equal(model.mean_stats.class_means, fitted.mean_stats.class_means)
            assert np.array_equal(model.mean_stats.shared_mean, fitted.mean_stats.shared_mean)
            assert [r.objective for r in model.trace] == [r.objective for r in fitted.trace]
            rng = np.random.default_rng(7)
            for _ in range(5):
                y = rng.standard_normal(model.d)
                a = classify(y, model)
                b = classify(y, back)
                assert a.label == b.label
                assert np.array_equal(a.per_class_scores, b.per_class_scores)
                assert np.array_equal(a.code, b.code)
