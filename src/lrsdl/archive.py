"""Model persistence: a directory of matrix files plus a text meta file.

Layout: meta (key=value lines), D.lmx (stacked class dictionaries),
D0.lmx (shared dictionary, possibly zero columns), means_mc.lmx (class
code means, one column per class), mean_m0.lmx (shared code mean as a
column), trace.csv (training trace). Plain files keep archives diffable
and partially inspectable.
"""

import os

from .data import (
    DictionaryBundle,
    HyperParams,
    IterationRecord,
    LearnedModel,
    MeanStats,
)
from .errors import FormatError
from .matio import load_matrix, save_matrix

FORMAT_VERSION = 1

TRACE_HEADER = "iter,objective,fidelity,l1,fisher,nuclear,seconds"

_INT_KEYS = ("c", "d", "k_c", "k0", "seed", "format_version")
_FLOAT_KEYS = ("lambda1", "lambda2", "eta", "w")
# optional: archives written before they were stored load with the defaults
_BUDGET_KEYS = ("outer_iters", "fista_iters", "admm_iters")


def _meta_lines(model):
    dicts = model.dict_bundle
    h = model.hyper
    pairs = [
        ("c", dicts.C),
        ("d", dicts.d),
        ("k_c", dicts.k_c),
        ("k0", dicts.k0),
        ("lambda1", repr(h.lambda1)),
        ("lambda2", repr(h.lambda2)),
        ("eta", repr(h.eta)),
        ("w", repr(h.w)),
        ("outer_iters", h.outer_iters),
        ("fista_iters", h.fista_iters),
        ("admm_iters", h.admm_iters),
        ("seed", h.seed),
        ("format_version", FORMAT_VERSION),
        ("status", "aborted" if model.aborted else "ok"),
    ]
    return [f"{k}={v}\n" for k, v in pairs]


def write_trace(trace, path):
    """Write iteration records as CSV (also used for benchmark traces)."""
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for r in trace:
            fh.write(
                f"{r.iteration},{r.objective:.17g},{r.fidelity:.17g},"
                f"{r.l1:.17g},{r.fisher:.17g},{r.nuclear:.17g},{r.seconds:.17g}\n"
            )


def save_model(model, path):
    """Write the archive directory, creating it if needed."""
    os.makedirs(path, exist_ok=True)
    dicts = model.dict_bundle
    means = model.mean_stats
    with open(os.path.join(path, "meta"), "w") as fh:
        fh.writelines(_meta_lines(model))
    save_matrix(dicts.D, os.path.join(path, "D.lmx"))
    save_matrix(dicts.shared_dict, os.path.join(path, "D0.lmx"))
    save_matrix(means.class_means, os.path.join(path, "means_mc.lmx"))
    save_matrix(means.shared_mean.reshape(-1, 1), os.path.join(path, "mean_m0.lmx"))
    write_trace(model.trace, os.path.join(path, "trace.csv"))


def _parse_meta(path):
    meta = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"meta line {ln} is not key=value: {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in meta:
                raise FormatError(f"duplicate meta key {key!r}")
            meta[key] = value.strip()
    for key in _INT_KEYS + _FLOAT_KEYS:
        if key not in meta:
            raise FormatError(f"meta is missing key {key!r}")
    try:
        parsed = {k: int(meta[k]) for k in _INT_KEYS}
        parsed.update({k: float(meta[k]) for k in _FLOAT_KEYS})
        parsed.update({k: int(meta[k]) for k in _BUDGET_KEYS if k in meta})
    except ValueError as exc:
        raise FormatError(f"unparseable meta value: {exc}") from exc
    parsed["status"] = meta.get("status", "ok")
    if parsed["format_version"] != FORMAT_VERSION:
        raise FormatError(
            f"unrecognized format_version {parsed['format_version']}"
        )
    return parsed


def _load_checked(path, name, shape):
    M = load_matrix(os.path.join(path, name))
    if M.shape != shape:
        raise FormatError(f"{name} has shape {M.shape}, meta implies {shape}")
    return M


def _parse_trace(path):
    records = []
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != TRACE_HEADER:
            raise FormatError(f"unexpected trace header {header!r}")
        for ln, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 7:
                raise FormatError(f"trace line {ln} has {len(parts)} fields, expected 7")
            try:
                records.append(
                    IterationRecord(
                        iteration=int(parts[0]),
                        objective=float(parts[1]),
                        fidelity=float(parts[2]),
                        l1=float(parts[3]),
                        fisher=float(parts[4]),
                        nuclear=float(parts[5]),
                        seconds=float(parts[6]),
                    )
                )
            except ValueError as exc:
                raise FormatError(f"unparseable trace line {ln}: {exc}") from exc
    return tuple(records)


def load_model(path):
    """Read an archive back into a LearnedModel.

    Shape mismatches between meta and the matrix files raise FormatError;
    missing files surface as OSError.
    """
    meta = _parse_meta(os.path.join(path, "meta"))
    C, d, k_c, k0 = meta["c"], meta["d"], meta["k_c"], meta["k0"]
    K = C * k_c
    D = _load_checked(path, "D.lmx", (d, K))
    D0 = _load_checked(path, "D0.lmx", (d, k0))
    class_means = _load_checked(path, "means_mc.lmx", (K, C))
    m0 = _load_checked(path, "mean_m0.lmx", (k0, 1)).ravel()
    dicts = DictionaryBundle(
        class_dicts=tuple(
            D[:, (c - 1) * k_c : c * k_c].copy() for c in range(1, C + 1)
        ),
        shared_dict=D0,
    )
    means = MeanStats(class_means=class_means, shared_mean=m0)
    hyper = HyperParams(
        lambda1=meta["lambda1"],
        lambda2=meta["lambda2"],
        eta=meta["eta"],
        w=meta["w"],
        seed=meta["seed"],
        **{k: meta[k] for k in _BUDGET_KEYS if k in meta},
    )
    trace = _parse_trace(os.path.join(path, "trace.csv"))
    return LearnedModel(
        dict_bundle=dicts,
        mean_stats=means,
        hyper=hyper,
        trace=trace,
        aborted=meta["status"] == "aborted",
    )
