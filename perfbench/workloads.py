"""The three benchmark workloads and their correctness checks.

Every workload drives the shipped command line in-process through
``lrsdl.cli.main`` (looked up at call time, so the tracer's rebinding is
seen), one client in a closed loop.

A run holds ``P`` independent problems, each drawn from its own seed and
set up once; round i works on problem i mod P. Objectives differ a lot
between synthetic datasets (the shared part of each dataset rides on one
random base vector), so the quality number of a run is a mean over its
problems, and a run covers every problem at least once. ``setup`` builds
one problem; ``run_round`` does one timed unit of work on it and records
every operation, with the problems its checks found, in the ledger.
"""

import io
import math
import os
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import numpy as np

# criterion 4 of the acceptance tests: objective may rise by at most this
# share of its magnitude from one outer iteration to the next
MONOTONE_RTOL = 1e-6

# the trained model's archive and the bench traces print %.6f / %.4f values
PRINT_ATOL = {"objective": 5e-7, "accuracy": 5e-5}

LIB_MIN_CALLS = 100  # single-sample classify calls per run, so p90 has 10 beyond it


def lrsdl_mod(name):
    return sys.modules[f"lrsdl.{name}"]


class SetupError(RuntimeError):
    """The workload could not build its inputs; the run has no result."""


class Ledger:
    """Operations attempted and failed, with the first problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def op(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.extend(f"{what}: {p}" for p in problems[:3])


def run_cli(argv):
    """Run one ``lrsdl`` command; return (exit code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    main = lrsdl_mod("cli").main
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = main(argv)
        except Exception as exc:  # a crash is a failed operation, not a dead run
            rc = f"raised {exc!r}"
        dt = perf_counter() - t0
    return rc, dt, out.getvalue(), err.getvalue()


def save_inputs(Y, labels, prefix):
    matio = lrsdl_mod("matio")
    matio.save_matrix(Y, prefix + "Y.lmx")
    matio.save_labels(labels, prefix + "labels.csv")
    return prefix + "Y.lmx", prefix + "labels.csv"


def key_values(text):
    """``a=1 b=2`` tokens from command output, as floats where possible."""
    out = {}
    for tok in text.split():
        k, sep, v = tok.partition("=")
        if sep:
            try:
                out[k] = float(v)
            except ValueError:
                out[k] = v
    return out


def read_meta(path):
    with open(path) as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


def read_trace_objectives(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        col = header.index("objective")
        return [float(line.split(",")[col]) for line in fh if line.strip()]


def objective_problems(objs):
    """Finite, non-empty and non-increasing within the criterion-4 tolerance."""
    if not objs:
        return ["empty objective trace"]
    if not all(math.isfinite(v) for v in objs):
        return ["non-finite objective in trace"]
    for it, (a, b) in enumerate(zip(objs, objs[1:]), start=2):
        if b > a + MONOTONE_RTOL * max(1.0, abs(a)):
            return [f"objective rose at iteration {it}: {a!r} -> {b!r}"]
    return []


def same_as_before(results, key, value, problems):
    """Reruns on the same inputs must give the same result exactly."""
    prev = results.setdefault(key, value)
    if prev != value:
        problems.append(f"{key} differs between identical runs: {prev!r} vs {value!r}")


def problem_mean(problems, key):
    """Mean of a per-problem result; NaN until every problem has one."""
    vals = [pr["results"].get(key) for pr in problems]
    return math.nan if None in vals else float(np.mean(vals))


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


class Workload:
    name = ""
    why = ""
    sizes = {}
    # spans that must fire in the traced run, and spans that must not
    required = ()
    absent = ()

    def __init__(self, size):
        self.p = dict(self.sizes[size])
        self.problems = []
        self.times = []  # seconds of each timed command

    def min_rounds(self, trace):
        """A traced run needs one traced and one untraced round; an untraced
        run covers every problem."""
        return 2 if trace else len(self.problems)


class TrainShared(Workload):
    name = "train_shared"
    why = (
        "lrsdl train with a low-rank shared dictionary: joint and shared "
        "coding, ODL sweeps and the ADMM/SVT update all run; no test coding"
    )
    sizes = {
        "full": dict(P=8, C=10, d=250, n_c=25, k_c=10, k0=25, rank=8, iters=6),
        "tiny": dict(P=2, C=3, d=20, n_c=6, k_c=3, k0=4, rank=2, iters=2),
    }
    required = (
        "cli.main", "learner.fit", "learner.initialize", "learner.sparse_code_train",
        "learner._solve_shared_codes", "learner._update_class_dicts",
        "dictupdate.odl_update", "dictupdate.update_shared_dict", "prox.admm_nuclear",
        "prox.svt", "prox.fista.class", "prox.fista.shared",
        "prox.power_iteration_lipschitz", "gradients.objective_terms",
        "gradients.build_augmented_gram", "gradients.residual_matrices",
        "archive.save_model", "archive.write_trace", "matio.save_matrix",
        "matio.load_matrix", "matio.load_labels", "data.normalize_columns",
        "data.mean_stats",
    )
    absent = (
        "learner.bench_joint_vs_sequential", "learner.sparse_code_sequential",
        "prox.fista.seq", "prox.fista.test", "classifier.evaluate",
        "classifier.classify", "classifier.encode_test", "classifier.class_scores",
        "classifier.test_coding_lipschitz", "archive.load_model",
    )

    def setup(self, seed, workdir):
        p = self.p
        data, _ = lrsdl_mod("data").generate_synthetic(
            C=p["C"], d=p["d"], n_c=p["n_c"], k_c=p["k_c"], k0=p["k0"],
            shared_rank=p["rank"], noise_sigma=0.05, seed=seed,
        )
        y_path, l_path = save_inputs(data.Y, data.labels, os.path.join(workdir, "train_"))
        model_dir = os.path.join(workdir, "model")
        argv = [
            "train", "--data", y_path, "--labels", l_path,
            "--kc", str(p["k_c"]), "--k0", str(p["k0"]),
            "--lambda1", "0.01", "--lambda2", "0.05", "--eta", "0.1",
            "--iters", str(p["iters"]), "--seed", str(seed), "--out", model_dir,
        ]
        return {"argv": argv, "model_dir": model_dir, "results": {}}

    def run_round(self, pr, ledger):
        rc, dt, out, err = run_cli(pr["argv"])
        self.times.append(dt)
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}: {err.strip()[-300:]}")
        else:
            problems += model_problems(pr["model_dir"])
            objs = read_trace_objectives(os.path.join(pr["model_dir"], "trace.csv"))
            problems += objective_problems(objs)
            if objs:
                printed = key_values(out).get("final_objective")
                if not isinstance(printed, float) or abs(printed - objs[-1]) > PRINT_ATOL["objective"]:
                    problems.append(f"printed final_objective {printed!r} != trace {objs[-1]!r}")
                same_as_before(pr["results"], "train_objective", objs[-1], problems)
        ledger.op("lrsdl train", problems)

    def summary(self):
        train_s = statistics.median(self.times)
        obj = problem_mean(self.problems, "train_objective")
        e2e = {"command_s": (train_s, "s"), "objective": (obj, "objective")}
        named = {
            "train_s": (train_s, "s"),
            "train_objective": (obj, "objective"),
            "train_commands": (len(self.times), "count"),
        }
        return e2e, named


def model_problems(model_dir):
    meta = read_meta(os.path.join(model_dir, "meta"))
    if meta.get("status") != "ok":
        return [f"model status {meta.get('status')!r}"]
    return []


class ClassifyHeldout(Workload):
    name = "classify_heldout"
    why = (
        "lrsdl classify on held-out samples plus single-sample library "
        "classify calls: test coding is nearly all the work, training is in "
        "set-up only"
    )
    sizes = {
        "full": dict(P=8, C=10, d=100, n_c=30, n_test=5, k_c=10, k0=5, rank=2, iters=5),
        "tiny": dict(P=2, C=3, d=20, n_c=6, n_test=3, k_c=3, k0=2, rank=1, iters=2),
    }
    required = (
        "cli.main", "archive.load_model", "matio.load_matrix", "matio.load_labels",
        "classifier.classify", "classifier.encode_test", "classifier.class_scores",
        "classifier.test_coding_lipschitz", "prox.power_iteration_lipschitz",
        "prox.fista.test",
    )
    absent = (
        "learner.bench_joint_vs_sequential", "learner.fit", "learner.initialize",
        "learner.sparse_code_train", "learner._solve_shared_codes",
        "learner.sparse_code_sequential", "learner._update_class_dicts",
        "dictupdate.odl_update", "dictupdate.update_shared_dict", "prox.admm_nuclear",
        "prox.svt", "prox.fista.class", "prox.fista.shared", "prox.fista.seq",
        "gradients.objective_terms", "gradients.build_augmented_gram",
        "classifier.evaluate", "archive.save_model", "matio.save_matrix",
    )

    def __init__(self, size):
        super().__init__(size)
        self.lib_ms = []  # latency of each single-sample library call

    def min_rounds(self, trace):
        per_round = self.p["C"] * self.p["n_test"]
        return max(super().min_rounds(trace), math.ceil(LIB_MIN_CALLS / per_round))

    def setup(self, seed, workdir):
        p = self.p
        n_all = p["n_c"] + p["n_test"]
        # one pool, split per class: a second draw with the same seed would
        # repeat the training samples' noise-free parts
        pool, _ = lrsdl_mod("data").generate_synthetic(
            C=p["C"], d=p["d"], n_c=n_all, k_c=p["k_c"], k0=p["k0"],
            shared_rank=p["rank"], noise_sigma=0.05, seed=seed,
        )
        train_idx, test_idx = [], []
        for c in range(p["C"]):
            cols = list(range(c * n_all, (c + 1) * n_all))
            train_idx += cols[: p["n_c"]]
            test_idx += cols[p["n_c"]:]
        Y_test, l_test = pool.Y[:, test_idx], pool.labels[test_idx]
        y_tr, l_tr = save_inputs(pool.Y[:, train_idx], pool.labels[train_idx],
                                 os.path.join(workdir, "train_"))
        y_te, l_te = save_inputs(Y_test, l_test, os.path.join(workdir, "test_"))
        model_dir = os.path.join(workdir, "model")
        rc, _, _, err = run_cli([
            "train", "--data", y_tr, "--labels", l_tr,
            "--kc", str(p["k_c"]), "--k0", str(p["k0"]),
            "--lambda1", "0.01", "--lambda2", "0.05", "--eta", "0.1",
            "--iters", str(p["iters"]), "--seed", str(seed), "--out", model_dir,
        ])
        if rc != 0 or model_problems(model_dir):
            raise SetupError(f"reference model training failed ({rc}): {err.strip()[-300:]}")
        argv = [
            "classify", "--model", model_dir, "--data", y_te, "--labels", l_te,
            "--out", os.path.join(workdir, "preds"),
        ]
        return {
            "argv": argv, "pred_path": os.path.join(workdir, "preds", "predictions.csv"),
            "model": lrsdl_mod("archive").load_model(model_dir),
            "Y": Y_test, "labels": np.asarray(l_test, dtype=int), "results": {},
            "test_objectives": {},  # sample index -> objective of its test code
        }

    def run_round(self, pr, ledger):
        """``lrsdl classify`` on the problem's held-out samples, then one
        library ``classify`` call per sample, checked against the command."""
        rc, dt, out, err = run_cli(pr["argv"])
        self.times.append(dt)
        cli_pred, problems = None, []
        if rc != 0:
            problems.append(f"exit code {rc}: {err.strip()[-300:]}")
        else:
            cli_pred, problems = self._prediction_problems(pr, out)
        ledger.op("lrsdl classify", problems)

        classify = lrsdl_mod("classifier").classify
        model = pr["model"]
        for j in range(pr["labels"].size):
            y = pr["Y"][:, j]
            t0 = perf_counter()
            try:
                pred = classify(y, model)
            except Exception as exc:  # counted as a failed call
                self.lib_ms.append(1e3 * (perf_counter() - t0))
                ledger.op("classify", [f"raised {exc!r}"])
                continue
            self.lib_ms.append(1e3 * (perf_counter() - t0))
            problems = []
            scores = np.asarray(pred.per_class_scores)
            if not 1 <= pred.label <= model.C:
                problems.append(f"label {pred.label} outside 1..{model.C}")
            if scores.shape != (model.C,) or not np.isfinite(scores).all():
                problems.append("class scores not finite")
            if cli_pred is not None and pred.label != cli_pred[j]:
                problems.append(
                    f"sample {j + 1}: library label {pred.label} != cli {cli_pred[j]}"
                )
            obj = test_coding_objective(y, model, pred.code)
            if not math.isfinite(obj):
                problems.append("test-coding objective not finite")
            same_as_before(pr["test_objectives"], j, obj, problems)
            ledger.op("classify", problems)

    def _prediction_problems(self, pr, out):
        C, labels = pr["model"].C, pr["labels"]
        with open(pr["pred_path"]) as fh:
            fh.readline()
            rows = [line.strip().split(",") for line in fh if line.strip()]
        if len(rows) != labels.size:
            return None, [f"{len(rows)} predictions for {labels.size} samples"]
        idx = [int(r[0]) for r in rows]
        true = np.array([int(r[1]) for r in rows])
        pred = np.array([int(r[2]) for r in rows])
        score = np.array([float(r[3]) for r in rows])
        problems = []
        if idx != list(range(1, labels.size + 1)) or not np.array_equal(true, labels):
            problems.append("prediction rows do not match the held-out samples")
        if pred.min() < 1 or pred.max() > C:
            problems.append(f"predicted label outside 1..{C}")
        if not np.isfinite(score).all():
            problems.append("non-finite winning score")
        acc = float(np.mean(pred == labels))
        printed = key_values(out).get("accuracy")
        if not isinstance(printed, float) or abs(printed - acc) > PRINT_ATOL["accuracy"]:
            problems.append(f"printed accuracy {printed!r} != {acc!r}")
        same_as_before(pr["results"], "test_accuracy", acc, problems)
        return pred, problems

    def summary(self):
        n = self.p["C"] * self.p["n_test"]
        cli_s = statistics.median(self.times)
        for pr in self.problems:
            if len(pr["test_objectives"]) == n:
                pr["results"]["test_coding_objective"] = float(
                    np.mean(list(pr["test_objectives"].values()))
                )
        obj = problem_mean(self.problems, "test_coding_objective")
        e2e = {"command_s": (cli_s, "s"), "objective": (obj, "objective")}
        named = {
            "classify_samples_per_s": (n / cli_s, "1/s"),
            "classify_one_ms_p50": (percentile(self.lib_ms, 50), "ms"),
            "classify_one_ms_p90": (percentile(self.lib_ms, 90), "ms"),
            "classify_one_calls": (len(self.lib_ms), "count"),
            "test_accuracy": (problem_mean(self.problems, "test_accuracy"), "ratio"),
            "test_coding_objective": (obj, "objective"),
            "classify_commands": (len(self.times), "count"),
        }
        return e2e, named


def test_coding_objective(y, model, code):
    """The objective encode_test minimizes, recomputed from its output:
    1/2 ||y - D_total x||^2 + lambda2/2 ||x0 - m0||^2 + lambda1 ||x||_1
    for the unit-normalized sample y."""
    dicts, h = model.dict_bundle, model.hyper
    y = np.asarray(y, dtype=float)
    y = y / np.linalg.norm(y)
    resid = y - dicts.D_total @ code
    shared = code[dicts.K:] - model.mean_stats.shared_mean
    return float(
        0.5 * resid @ resid + 0.5 * h.lambda2 * shared @ shared
        + h.lambda1 * np.abs(code).sum()
    )


class BenchCoders(Workload):
    name = "bench_coders"
    why = (
        "lrsdl bench with k0=0 (plain FDDL) bypasses the shared-dictionary "
        "layers; FISTA runs one joint solve and many per-class solves"
    )
    sizes = {
        "full": dict(P=3, C=6, d=60, n_c=10, iters=12),
        "tiny": dict(P=2, C=3, d=12, n_c=4, iters=2),
    }
    required = (
        "cli.main", "learner.bench_joint_vs_sequential", "learner.fit",
        "learner.initialize", "learner.sparse_code_train", "learner.sparse_code_sequential",
        "learner._solve_shared_codes", "learner._update_class_dicts",
        "dictupdate.odl_update", "prox.fista.class", "prox.fista.seq", "prox.fista.test",
        "prox.power_iteration_lipschitz", "gradients.objective_terms",
        "gradients.build_augmented_gram", "classifier.evaluate", "classifier.classify",
        "classifier.encode_test", "classifier.class_scores",
        "classifier.test_coding_lipschitz", "archive.write_trace", "matio.load_matrix",
        "matio.load_labels", "data.normalize_columns", "data.mean_stats",
    )
    absent = (
        "dictupdate.update_shared_dict", "prox.admm_nuclear", "prox.svt",
        "prox.fista.shared", "gradients.residual_matrices", "archive.save_model",
        "archive.load_model", "matio.save_matrix",
    )

    def setup(self, seed, workdir):
        p = self.p
        data, _ = lrsdl_mod("data").generate_synthetic(
            C=p["C"], d=p["d"], n_c=p["n_c"], k_c=5, k0=0, shared_rank=0,
            noise_sigma=0.05, seed=seed,
        )
        y_path, l_path = save_inputs(data.Y, data.labels, os.path.join(workdir, "bench_"))
        out_dir = os.path.join(workdir, "bench")
        argv = [
            "bench", "--data", y_path, "--labels", l_path,
            "--iters", str(p["iters"]), "--seed", str(seed), "--out", out_dir,
        ]
        return {"argv": argv, "out_dir": out_dir, "results": {}}

    def run_round(self, pr, ledger):
        rc, dt, out, err = run_cli(pr["argv"])
        self.times.append(dt)
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}: {err.strip()[-300:]}")
        else:
            kv = key_values(out)
            for coder, csv_name, key in (
                ("joint", "joint.csv", "joint_final"),
                ("sequential", "sequential.csv", "seq_final"),
            ):
                objs = read_trace_objectives(os.path.join(pr["out_dir"], csv_name))
                problems += [f"{coder}: {p}" for p in objective_problems(objs)]
                if not objs:
                    continue
                printed = kv.get(key)
                if not isinstance(printed, float) or abs(printed - objs[-1]) > PRINT_ATOL["objective"]:
                    problems.append(f"printed {key} {printed!r} != trace {objs[-1]!r}")
                same_as_before(pr["results"], f"{coder}_objective", objs[-1], problems)
            for key in ("joint_train_acc", "seq_train_acc"):
                acc = kv.get(key)
                if not isinstance(acc, float) or not 0.0 <= acc <= 1.0:
                    problems.append(f"{key} {acc!r} outside [0, 1]")
                else:
                    same_as_before(pr["results"], key, acc, problems)
        ledger.op("lrsdl bench", problems)

    def summary(self):
        bench_s = statistics.median(self.times)
        joint = problem_mean(self.problems, "joint_objective")
        seq = problem_mean(self.problems, "sequential_objective")
        e2e = {"command_s": (bench_s, "s"), "objective": (joint, "objective")}
        named = {
            "bench_s": (bench_s, "s"),
            "train_objective": (joint, "objective"),
            "sequential_objective": (seq, "objective"),
            "joint_minus_sequential": (joint - seq, "objective"),
            "joint_train_acc": (problem_mean(self.problems, "joint_train_acc"), "ratio"),
            "seq_train_acc": (problem_mean(self.problems, "seq_train_acc"), "ratio"),
            "bench_commands": (len(self.times), "count"),
        }
        return e2e, named


WORKLOADS = {w.name: w for w in (TrainShared, ClassifyHeldout, BenchCoders)}
