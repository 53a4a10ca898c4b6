"""Model archive round-trip and corruption tests."""

import numpy as np
import pytest

from lrsdl.archive import TRACE_HEADER, load_model, save_model, write_trace
from lrsdl.classifier import classify
from lrsdl.data import (
    HyperParams,
    IterationRecord,
    LearnedModel,
    generate_synthetic,
)
from lrsdl.errors import FormatError
from lrsdl.learner import TrainConfig, fit


@pytest.fixture(scope="module")
def trained():
    data, _ = generate_synthetic(
        C=3, d=15, n_c=6, k_c=3, k0=2, shared_rank=2,
        noise_sigma=0.05, seed=0,
    )
    hyper = HyperParams(
        lambda1=0.01, lambda2=0.05, eta=0.1, outer_iters=3, fista_iters=30
    )
    model = fit(data, TrainConfig(hyper=hyper, k_c=3, k0=2))
    return data, model


class TestRoundTrip:
    def test_exact_fields(self, trained, tmp_path):
        _, model = trained
        save_model(model, str(tmp_path / "arc"))
        back = load_model(str(tmp_path / "arc"))
        assert np.array_equal(back.dict_bundle.D, model.dict_bundle.D)
        assert np.array_equal(
            back.dict_bundle.shared_dict, model.dict_bundle.shared_dict
        )
        assert np.array_equal(
            back.mean_stats.class_means, model.mean_stats.class_means
        )
        assert np.array_equal(
            back.mean_stats.shared_mean, model.mean_stats.shared_mean
        )
        assert back.hyper.lambda1 == model.hyper.lambda1
        assert back.hyper.lambda2 == model.hyper.lambda2
        assert back.hyper.eta == model.hyper.eta
        assert back.hyper.w == model.hyper.w
        assert back.hyper.seed == model.hyper.seed
        assert not back.aborted
        assert len(back.trace) == len(model.trace)
        for a, b in zip(back.trace, model.trace):
            assert a == b

    def test_predictions_survive_round_trip(self, trained, tmp_path):
        data, model = trained
        save_model(model, str(tmp_path / "arc"))
        back = load_model(str(tmp_path / "arc"))
        rng = np.random.default_rng(1)
        for _ in range(3):
            y = rng.standard_normal(model.d)
            a = classify(y, model)
            b = classify(y, back)
            assert a.label == b.label
            assert np.array_equal(a.per_class_scores, b.per_class_scores)
            assert np.array_equal(a.code, b.code)

    def test_no_shared_dict_round_trip(self, tmp_path):
        data, _ = generate_synthetic(
            C=2, d=10, n_c=5, k_c=3, k0=0, shared_rank=0,
            noise_sigma=0.05, seed=1,
        )
        hyper = HyperParams(lambda1=0.01, lambda2=0.05, outer_iters=2, fista_iters=20)
        model = fit(data, TrainConfig(hyper=hyper, k_c=3, k0=0))
        save_model(model, str(tmp_path / "arc"))
        back = load_model(str(tmp_path / "arc"))
        assert back.dict_bundle.shared_dict.shape == (10, 0)
        assert back.mean_stats.shared_mean.shape == (0,)
        assert np.array_equal(back.dict_bundle.D, model.dict_bundle.D)

    def test_aborted_flag_round_trip(self, trained, tmp_path):
        _, model = trained
        broken = LearnedModel(
            dict_bundle=model.dict_bundle,
            mean_stats=model.mean_stats,
            hyper=model.hyper,
            trace=(),
            aborted=True,
        )
        save_model(broken, str(tmp_path / "arc"))
        back = load_model(str(tmp_path / "arc"))
        assert back.aborted
        assert back.trace == ()


class TestTraceFile:
    def test_full_precision_round_trip(self, tmp_path):
        recs = (
            IterationRecord(
                iteration=1,
                objective=np.pi,
                fidelity=np.e,
                l1=1.0 / 3.0,
                fisher=2.0 / 7.0,
                nuclear=0.1,
                seconds=0.123456789012345678,
            ),
        )
        path = tmp_path / "trace.csv"
        write_trace(recs, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        parts = lines[1].split(",")
        assert float(parts[1]) == np.pi
        assert float(parts[3]) == 1.0 / 3.0


class TestCorruption:
    def write(self, trained, tmp_path):
        _, model = trained
        arc = tmp_path / "arc"
        save_model(model, str(arc))
        return arc

    def test_meta_not_key_value(self, trained, tmp_path):
        arc = self.write(trained, tmp_path)
        meta = arc / "meta"
        meta.write_text("this is not a pair\n" + meta.read_text())
        with pytest.raises(FormatError, match="key=value"):
            load_model(str(arc))

    def test_meta_duplicate_key(self, trained, tmp_path):
        arc = self.write(trained, tmp_path)
        meta = arc / "meta"
        meta.write_text(meta.read_text() + "d=99\n")
        with pytest.raises(FormatError, match="duplicate"):
            load_model(str(arc))

    def test_meta_missing_key(self, trained, tmp_path):
        arc = self.write(trained, tmp_path)
        meta = arc / "meta"
        kept = [ln for ln in meta.read_text().splitlines() if not ln.startswith("eta=")]
        meta.write_text("\n".join(kept) + "\n")
        with pytest.raises(FormatError, match="missing"):
            load_model(str(arc))

    def test_meta_unparseable_value(self, trained, tmp_path):
        arc = self.write(trained, tmp_path)
        meta = arc / "meta"
        text = meta.read_text().replace("seed=0", "seed=zero")
        meta.write_text(text)
        with pytest.raises(FormatError, match="unparseable"):
            load_model(str(arc))

    def test_meta_wrong_version(self, trained, tmp_path):
        arc = self.write(trained, tmp_path)
        meta = arc / "meta"
        text = meta.read_text().replace("format_version=1", "format_version=2")
        meta.write_text(text)
        with pytest.raises(FormatError, match="format_version"):
            load_model(str(arc))

    def test_matrix_shape_mismatch(self, trained, tmp_path):
        from lrsdl.matio import save_matrix

        arc = self.write(trained, tmp_path)
        save_matrix(np.zeros((2, 2)), str(arc / "D.lmx"))
        with pytest.raises(FormatError, match="shape"):
            load_model(str(arc))

    def test_trace_bad_header(self, trained, tmp_path):
        arc = self.write(trained, tmp_path)
        trace = arc / "trace.csv"
        body = trace.read_text().splitlines()[1:]
        trace.write_text("\n".join(["bogus,header"] + body) + "\n")
        with pytest.raises(FormatError, match="header"):
            load_model(str(arc))

    def test_trace_wrong_field_count(self, trained, tmp_path):
        arc = self.write(trained, tmp_path)
        trace = arc / "trace.csv"
        trace.write_text(TRACE_HEADER + "\n1,2,3\n")
        with pytest.raises(FormatError, match="fields"):
            load_model(str(arc))

    def test_trace_unparseable_value(self, trained, tmp_path):
        arc = self.write(trained, tmp_path)
        trace = arc / "trace.csv"
        trace.write_text(TRACE_HEADER + "\n1,a,b,c,d,e,f\n")
        with pytest.raises(FormatError, match="unparseable"):
            load_model(str(arc))

    def test_missing_archive(self, tmp_path):
        with pytest.raises(OSError):
            load_model(str(tmp_path / "nope"))

    def test_missing_matrix_file(self, trained, tmp_path):
        arc = self.write(trained, tmp_path)
        (arc / "means_mc.lmx").unlink()
        with pytest.raises(OSError):
            load_model(str(arc))
