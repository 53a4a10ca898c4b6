"""End-to-end command-line tests, driven through main() in process.

Covers the synth -> train -> classify pipeline, the coder benchmark, the
exit-code contract (0 ok, 2 input error, 3 numerical abort), and
byte-level determinism of generated and trained artifacts.
"""

import os

import numpy as np
import pytest

from lrsdl.archive import _parse_trace, load_model
from lrsdl.classifier import classify
from lrsdl.cli import main
from lrsdl.matio import load_matrix, save_matrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def synth(capsys, out, classes=3, dim=12, per_class=5, kc=3, k0=0,
          shared_rank=0, noise=0.05, seed=0):
    return run(
        capsys, "synth",
        "--classes", str(classes), "--dim", str(dim),
        "--per-class", str(per_class), "--kc", str(kc), "--k0", str(k0),
        "--shared-rank", str(shared_rank), "--noise", str(noise),
        "--seed", str(seed), "--out", out,
    )


class TestSynth:
    def test_writes_dataset(self, capsys, tmp_path):
        out = str(tmp_path / "data")
        code, stdout, _ = synth(capsys, out, classes=2, dim=10, per_class=5)
        assert code == 0
        assert "wrote 10x10 samples with 2 classes" in stdout
        Y = load_matrix(os.path.join(out, "Y.lmx"))
        assert Y.shape == (10, 10)
        assert os.path.exists(os.path.join(out, "labels.csv"))
        D = load_matrix(os.path.join(out, "D.lmx"))
        assert D.shape == (10, 2 * 3)

    def test_deterministic_bytes(self, capsys, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        synth(capsys, a, seed=7)
        synth(capsys, b, seed=7)
        for name in ("Y.lmx", "labels.csv", "D.lmx", "D0.lmx"):
            with open(os.path.join(a, name), "rb") as fa:
                with open(os.path.join(b, name), "rb") as fb:
                    assert fa.read() == fb.read()

    def test_planted_shared_rank(self, capsys, tmp_path):
        out = str(tmp_path / "data")
        code, _, _ = synth(capsys, out, k0=8, shared_rank=3)
        assert code == 0
        D0 = load_matrix(os.path.join(out, "D0.lmx"))
        assert D0.shape == (12, 8)
        s = np.linalg.svd(D0, compute_uv=False)
        assert int(np.sum(s > 1e-10 * s[0])) == 3

    def test_no_shared_part_is_header_only(self, capsys, tmp_path):
        out = str(tmp_path / "data")
        synth(capsys, out, k0=0)
        with open(os.path.join(out, "D0.lmx"), "rb") as fh:
            assert fh.read() == b"LMX 12 0\n"

    def test_bad_sizes_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "synth", "--classes", "0", "--out", str(tmp_path / "x")
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("noise", ["nan", "inf", "-0.1", "1e308"])
    def test_bad_noise_exit_2(self, capsys, tmp_path, noise):
        out = str(tmp_path / "data")
        code, _, err = synth(capsys, out, noise=noise)
        assert code == 2
        if noise == "1e308":  # finite, but the noisy samples overflow
            assert "noise_sigma=1e+308 overflows the samples" in err
        else:
            assert "noise_sigma must be finite and >= 0" in err
        assert not os.path.exists(out)

    def test_negative_seed_exit_2(self, capsys, tmp_path):
        out = str(tmp_path / "data")
        code, _, err = synth(capsys, out, seed=-1)
        assert code == 2
        assert "seed must be an integer >= 0" in err
        assert not os.path.exists(out)


@pytest.fixture()
def dataset(capsys, tmp_path):
    out = str(tmp_path / "data")
    synth(capsys, out, classes=3, dim=12, per_class=5, kc=3, k0=2,
          shared_rank=2, noise=0.05, seed=0)
    return out


def train(capsys, data_dir, out, kc=3, k0=2, iters=2, extra=()):
    return run(
        capsys, "train",
        "--data", os.path.join(data_dir, "Y.lmx"),
        "--labels", os.path.join(data_dir, "labels.csv"),
        "--kc", str(kc), "--k0", str(k0), "--iters", str(iters),
        "--out", out, *extra,
    )


class TestTrain:
    def test_writes_archive(self, capsys, tmp_path, dataset):
        out = str(tmp_path / "model")
        code, stdout, _ = train(capsys, dataset, out)
        assert code == 0
        assert "final_objective=" in stdout
        assert f"model={out}" in stdout
        model = load_model(out)
        assert model.dict_bundle.k0 == 2
        assert len(model.trace) == 2

    def test_no_shared_dict(self, capsys, tmp_path, dataset):
        out = str(tmp_path / "model")
        code, _, _ = train(capsys, dataset, out, k0=0)
        assert code == 0
        meta = (tmp_path / "model" / "meta").read_text()
        assert "k0=0" in meta
        D0 = load_matrix(os.path.join(out, "D0.lmx"))
        assert D0.shape == (12, 0)

    def test_single_iteration_single_trace_row(self, capsys, tmp_path, dataset):
        out = str(tmp_path / "model")
        train(capsys, dataset, out, iters=1)
        trace = _parse_trace(os.path.join(out, "trace.csv"))
        assert len(trace) == 1
        assert trace[0].iteration == 1

    def test_reruns_byte_identical(self, capsys, tmp_path, dataset):
        a, b = str(tmp_path / "m1"), str(tmp_path / "m2")
        train(capsys, dataset, a)
        train(capsys, dataset, b)
        for name in ("D.lmx", "D0.lmx", "means_mc.lmx", "mean_m0.lmx"):
            with open(os.path.join(a, name), "rb") as fa:
                with open(os.path.join(b, name), "rb") as fb:
                    assert fa.read() == fb.read()

    def test_missing_data_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "train", "--data", str(tmp_path / "nope.lmx"),
            "--labels", str(tmp_path / "nope.csv"), "--kc", "3",
            "--out", str(tmp_path / "m"),
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("flag", ["--lambda1", "--lambda2", "--eta"])
    def test_nan_weight_exit_2(self, capsys, tmp_path, dataset, flag):
        out = str(tmp_path / "model")
        code, _, err = train(capsys, dataset, out, extra=(flag, "nan"))
        assert code == 2
        assert "regularization weights" in err
        assert not os.path.exists(out)

    def test_negative_seed_exit_2(self, capsys, tmp_path, dataset):
        out = str(tmp_path / "model")
        code, _, err = train(capsys, dataset, out, extra=("--seed", "-1"))
        assert code == 2
        assert "seed must be an integer >= 0" in err
        assert not os.path.exists(out)

    def test_numerical_abort_exit_3(self, capsys, tmp_path, dataset):
        out = str(tmp_path / "model")
        code, _, err = train(
            capsys, dataset, out, extra=("--eta", "1e308")
        )
        assert code == 3
        assert "aborted" in err
        model = load_model(out)
        assert model.aborted
        assert model.trace == ()


class TestClassify:
    def fit_model(self, capsys, tmp_path, dataset, **kw):
        out = str(tmp_path / "model")
        train(capsys, dataset, out, iters=4, **kw)
        return out

    def test_labeled_run(self, capsys, tmp_path, dataset):
        model_dir = self.fit_model(capsys, tmp_path, dataset)
        out = str(tmp_path / "preds")
        code, stdout, _ = run(
            capsys, "classify", "--model", model_dir,
            "--data", os.path.join(dataset, "Y.lmx"),
            "--labels", os.path.join(dataset, "labels.csv"),
            "--out", out,
        )
        assert code == 0
        acc_line = [ln for ln in stdout.splitlines() if ln.startswith("accuracy=")]
        assert len(acc_line) == 1
        acc = float(acc_line[0].split("=")[1])
        assert 0.0 <= acc <= 1.0
        with open(os.path.join(out, "predictions.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "index,true_label,pred_label,score_pred"
        assert len(lines) == 16
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "1"
        confusion = np.loadtxt(os.path.join(out, "confusion.csv"), delimiter=",")
        assert confusion.sum() == 15

    def test_predictions_match_library_batch(self, capsys, tmp_path, dataset):
        model_dir = self.fit_model(capsys, tmp_path, dataset)
        out = str(tmp_path / "preds")
        run(
            capsys, "classify", "--model", model_dir,
            "--data", os.path.join(dataset, "Y.lmx"), "--out", out,
        )
        rows = np.loadtxt(os.path.join(out, "predictions.csv"), delimiter=",", skiprows=1)
        pred = classify(load_matrix(os.path.join(dataset, "Y.lmx")), load_model(model_dir))
        assert np.array_equal(rows[:, 2], pred.label)
        assert np.array_equal(
            rows[:, 3], pred.per_class_scores[pred.label - 1, np.arange(pred.label.size)]
        )

    def test_labels_outside_model_classes_exit_2(self, capsys, tmp_path, dataset):
        model_dir = self.fit_model(capsys, tmp_path, dataset)
        labels = np.loadtxt(os.path.join(dataset, "labels.csv"), dtype=int)
        labels[::3] = 7  # the model has 3 classes
        bad = tmp_path / "bad_labels.csv"
        bad.write_text("".join(f"{v}\n" for v in labels))
        out = str(tmp_path / "preds")
        code, stdout, err = run(
            capsys, "classify", "--model", model_dir,
            "--data", os.path.join(dataset, "Y.lmx"),
            "--labels", str(bad), "--out", out,
        )
        assert code == 2
        assert "1..3" in err
        assert "accuracy=" not in stdout
        assert not os.path.exists(out)

    def test_empty_labeled_set_exit_2(self, capsys, tmp_path, dataset):
        # an accuracy over no samples is undefined; an unlabeled empty batch
        # still writes its (empty) predictions
        model_dir = self.fit_model(capsys, tmp_path, dataset)
        empty = str(tmp_path / "empty.lmx")
        save_matrix(np.zeros((12, 0)), empty)
        no_labels = tmp_path / "no_labels.csv"
        no_labels.write_text("")
        out = str(tmp_path / "preds")
        code, stdout, err = run(
            capsys, "classify", "--model", model_dir, "--data", empty,
            "--labels", str(no_labels), "--out", out,
        )
        assert code == 2
        assert "no labeled samples" in err
        assert "accuracy=" not in stdout
        assert not os.path.exists(out)
        code, _, _ = run(capsys, "classify", "--model", model_dir, "--data", empty, "--out", out)
        assert code == 0
        with open(os.path.join(out, "predictions.csv")) as fh:
            assert fh.read() == "index,true_label,pred_label,score_pred\n"

    def test_unlabeled_run(self, capsys, tmp_path, dataset):
        model_dir = self.fit_model(capsys, tmp_path, dataset)
        out = str(tmp_path / "preds")
        code, stdout, _ = run(
            capsys, "classify", "--model", model_dir,
            "--data", os.path.join(dataset, "Y.lmx"), "--out", out,
        )
        assert code == 0
        assert "accuracy=" not in stdout
        assert not os.path.exists(os.path.join(out, "confusion.csv"))
        with open(os.path.join(out, "predictions.csv")) as fh:
            lines = fh.read().splitlines()
        assert all(ln.split(",")[1] == "0" for ln in lines[1:])

    def test_weight_overrides(self, capsys, tmp_path, dataset):
        model_dir = self.fit_model(capsys, tmp_path, dataset)
        for w in ("0", "1"):
            out = str(tmp_path / f"preds{w}")
            code, _, _ = run(
                capsys, "classify", "--model", model_dir,
                "--data", os.path.join(dataset, "Y.lmx"),
                "--w", w, "--out", out,
            )
            assert code == 0

    def test_missing_model_exit_2(self, capsys, tmp_path, dataset):
        out = str(tmp_path / "preds")
        code, _, err = run(
            capsys, "classify", "--model", str(tmp_path / "nomodel"),
            "--data", os.path.join(dataset, "Y.lmx"), "--out", out,
        )
        assert code == 2
        assert "error:" in err
        assert not os.path.exists(out)

    def test_feature_mismatch_exit_2(self, capsys, tmp_path, dataset):
        model_dir = self.fit_model(capsys, tmp_path, dataset)
        other = str(tmp_path / "other")
        synth(capsys, other, classes=2, dim=9, per_class=4, kc=2)
        code, _, err = run(
            capsys, "classify", "--model", model_dir,
            "--data", os.path.join(other, "Y.lmx"),
            "--out", str(tmp_path / "preds"),
        )
        assert code == 2
        assert "features" in err


class TestBench:
    def test_summary_and_traces(self, capsys, tmp_path):
        data = str(tmp_path / "data")
        synth(capsys, data, classes=3, dim=12, per_class=4, kc=4, k0=0)
        out = str(tmp_path / "bench")
        code, stdout, _ = run(
            capsys, "bench",
            "--data", os.path.join(data, "Y.lmx"),
            "--labels", os.path.join(data, "labels.csv"),
            "--iters", "2", "--out", out,
        )
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0].startswith("joint_final=")
        assert "seq_final=" in lines[0]
        assert lines[1].startswith("joint_train_acc=")
        for name in ("joint.csv", "sequential.csv"):
            trace = _parse_trace(os.path.join(out, name))
            assert len(trace) == 2
            assert [r.iteration for r in trace] == [1, 2]


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["transmogrify"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["train", "--kc", "3"]) == 2
