"""Model archive round-trip and corruption tests."""

import dataclasses
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lrsdl.archive import TRACE_HEADER, load_model, save_model, write_trace
from lrsdl.classifier import classify
from lrsdl.data import (
    DictionaryBundle,
    HyperParams,
    IterationRecord,
    LearnedModel,
    MeanStats,
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
        # the fixture's budgets are not the defaults, so they must be stored
        assert back.hyper == model.hyper
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


    def test_archive_without_budgets_loads_defaults(self, trained, tmp_path):
        # archives written before the budgets were stored lack their keys
        _, model = trained
        arc = tmp_path / "arc"
        save_model(model, str(arc))
        meta = arc / "meta"
        budgets = ("outer_iters=", "fista_iters=", "admm_iters=")
        kept = [ln for ln in meta.read_text().splitlines() if not ln.startswith(budgets)]
        assert len(kept) == len(meta.read_text().splitlines()) - 3
        meta.write_text("\n".join(kept) + "\n")
        back = load_model(str(arc))
        default = HyperParams()
        assert back.hyper == dataclasses.replace(
            model.hyper,
            outer_iters=default.outer_iters,
            fista_iters=default.fista_iters,
            admm_iters=default.admm_iters,
        )

    def test_every_hyperparameter_written_and_loaded(self, trained, tmp_path):
        # numpy scalars (say from np.logspace) are written as plain numbers
        _, model = trained
        hyper = HyperParams(
            lambda1=np.float64(0.003), lambda2=np.float64(0.02), eta=np.float64(0.2),
            w=np.float64(0.25), outer_iters=np.int64(7), fista_iters=np.int64(40),
            admm_iters=np.int64(30), seed=np.int64(11),
        )
        save_model(dataclasses.replace(model, hyper=hyper), str(tmp_path / "arc"))
        lines = (tmp_path / "arc" / "meta").read_text().splitlines()
        for f in dataclasses.fields(HyperParams):
            assert f"{f.name}={f.type(getattr(hyper, f.name))}" in lines, f.name
        assert load_model(str(tmp_path / "arc")).hyper == hyper


finite = st.floats(allow_nan=False, allow_infinity=False)
weight = st.floats(min_value=-0.0, allow_infinity=False)  # -0.0 included
records = st.builds(
    IterationRecord,
    iteration=st.integers(0, 10**6),
    objective=finite,
    fidelity=finite,
    l1=finite,
    fisher=finite,
    nuclear=finite,
    seconds=finite,
)


@st.composite
def models(draw):
    """Archivable models: layouts with k0 = 0 included, unit-bounded
    dictionary columns with signed zeros, arbitrary finite means and
    weights, non-default budgets, hyperparameters as Python or numpy
    scalars, the aborted flag and 0-3 trace records."""
    C, d, k_c = (draw(st.integers(1, hi)) for hi in (3, 5, 3))
    k0 = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    D = rng.standard_normal((d, C * k_c + k0))
    D /= np.linalg.norm(D, axis=0)
    # signed zeros everywhere but each column's largest entry, so no
    # class atom becomes zero
    zero = rng.random(D.shape) < 0.3
    zero[np.argmax(np.abs(D), axis=0), np.arange(D.shape[1])] = False
    D[zero] = -0.0
    D[:, C * k_c :] *= rng.random(k0)  # shared atoms may be shorter
    dicts = DictionaryBundle(D=D[:, : C * k_c], shared_dict=D[:, C * k_c :], C=C)
    means = MeanStats(
        class_means=draw(hnp.arrays(float, (C * k_c, C), elements=finite)),
        shared_mean=draw(hnp.arrays(float, (k0,), elements=finite)),
    )

    def scalar(values, np_type):
        # a plain Python number or the numpy scalar of the same value
        return draw(st.one_of(values, values.map(np_type)))

    budget = st.integers(1, 10**6)
    hyper = HyperParams(
        lambda1=scalar(weight, np.float64),
        lambda2=scalar(weight, np.float64),
        eta=scalar(weight, np.float64),
        w=scalar(st.floats(min_value=-0.0, max_value=1.0), np.float64),
        outer_iters=scalar(budget, np.int64),
        fista_iters=scalar(budget, np.int64),
        admm_iters=scalar(budget, np.int64),
        seed=scalar(st.integers(0, 2**63 - 1), np.int64),
    )
    return LearnedModel(
        dict_bundle=dicts,
        mean_stats=means,
        hyper=hyper,
        trace=tuple(draw(st.lists(records, max_size=3))),
        aborted=draw(st.booleans()),
    )


def same_bits(a, b):
    """Equal shape, dtype and bytes: -0.0 and 0.0 differ here."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(model=models())
def test_generated_models_round_trip_bit_for_bit(model):
    with tempfile.TemporaryDirectory() as tmp:
        arc = os.path.join(tmp, "arc")
        save_model(model, arc)
        back = load_model(arc)
    assert same_bits(back.dict_bundle.D, model.dict_bundle.D)
    assert same_bits(back.dict_bundle.shared_dict, model.dict_bundle.shared_dict)
    assert same_bits(back.mean_stats.class_means, model.mean_stats.class_means)
    assert same_bits(back.mean_stats.shared_mean, model.mean_stats.shared_mean)
    for f in dataclasses.fields(HyperParams):
        # a numpy scalar loads back as the field's plain type
        a, b = getattr(back.hyper, f.name), f.type(getattr(model.hyper, f.name))
        assert type(a) is f.type and same_bits(a, b), f.name
    assert back.aborted == model.aborted
    assert len(back.trace) == len(model.trace)
    for a, b in zip(back.trace, model.trace):
        assert all(
            same_bits(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(IterationRecord)
        )


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
        # every key but the budgets and the status is required
        arc = self.write(trained, tmp_path)
        meta = arc / "meta"
        full = meta.read_text().splitlines()
        required = ("c", "d", "k_c", "k0", "lambda1", "lambda2", "eta", "w", "seed",
                    "format_version")
        for key in required:
            meta.write_text("\n".join(ln for ln in full if not ln.startswith(f"{key}=")) + "\n")
            with pytest.raises(FormatError, match=f"missing key '{key}'"):
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

    def test_meta_unknown_key(self, trained, tmp_path):
        # a misspelled key is not dropped: a new key needs a format bump
        arc = self.write(trained, tmp_path)
        meta = arc / "meta"
        meta.write_text(meta.read_text() + "lamda1=5\n")
        with pytest.raises(FormatError, match="unknown meta key 'lamda1'"):
            load_model(str(arc))

    def test_meta_unknown_status(self, trained, tmp_path):
        # a misspelled aborted status does not load as a completed model
        arc = self.write(trained, tmp_path)
        meta = arc / "meta"
        meta.write_text(meta.read_text().replace("status=ok", "status=abortd"))
        with pytest.raises(FormatError, match="status=abortd"):
            load_model(str(arc))

    @pytest.mark.parametrize("key,value", [("c", 0), ("d", 0), ("k_c", 0), ("k0", -1)])
    def test_meta_impossible_size(self, trained, tmp_path, key, value):
        arc = self.write(trained, tmp_path)
        meta = arc / "meta"
        lines = [
            f"{key}={value}" if ln.startswith(f"{key}=") else ln
            for ln in meta.read_text().splitlines()
        ]
        meta.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=f"meta {key}={value} "):
            load_model(str(arc))

    @pytest.mark.parametrize(
        "key,value", [("w", 2), ("outer_iters", 0), ("lambda1", -1), ("seed", -1)]
    )
    def test_meta_hyperparameter_out_of_range(self, trained, tmp_path, key, value):
        # a value HyperParams refuses is a fault of the file, like a bad size
        arc = self.write(trained, tmp_path)
        meta = arc / "meta"
        lines = [
            f"{key}={value}" if ln.startswith(f"{key}=") else ln
            for ln in meta.read_text().splitlines()
        ]
        meta.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="^meta "):
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
