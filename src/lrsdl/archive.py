"""Model persistence: a directory of matrix files plus a text meta file.

Layout: meta (key=value lines), D.lmx (stacked class dictionaries),
D0.lmx (shared dictionary, possibly zero columns), means_mc.lmx (class
code means, one column per class), mean_m0.lmx (shared code mean as a
column), trace.csv (training trace). Plain files keep archives diffable
and partially inspectable.
"""

import os
from dataclasses import fields

from .data import (
    DictionaryBundle,
    HyperParams,
    IterationRecord,
    LearnedModel,
    MeanStats,
)
from .errors import FormatError, ParameterError
from .matio import load_matrix, save_matrix

FORMAT_VERSION = 1

# one column per IterationRecord field, in field order
TRACE_HEADER = "iter,objective,fidelity,l1,fisher,nuclear,seconds"
_TRACE_FIELDS = fields(IterationRecord)
_TRACE_FORMAT = {int: "d", float: ".17g"}

_STATUSES = ("ok", "aborted")
# size key -> smallest valid value
_SIZES = {"c": 1, "d": 1, "k_c": 1, "k0": 0}
# archives written before the budgets were stored load with the defaults
_BUDGET_KEYS = ("outer_iters", "fista_iters", "admm_iters")
# the meta schema in file order: (key, type, default when absent, or None
# when required). A value is written as str() of its type's conversion, so
# numpy scalars come out as plain numbers, and read back by the same type.
_META = (
    *((key, int, None) for key in _SIZES),
    *(
        (f.name, f.type, f.default if f.name in _BUDGET_KEYS else None)
        for f in fields(HyperParams)
    ),
    ("format_version", int, None),
    ("status", str, "ok"),
)


def _meta_lines(model):
    dicts = model.dict_bundle
    values = {
        "c": dicts.C,
        "d": dicts.d,
        "k_c": dicts.k_c,
        "k0": dicts.k0,
        **{f.name: getattr(model.hyper, f.name) for f in fields(HyperParams)},
        "format_version": FORMAT_VERSION,
        "status": "aborted" if model.aborted else "ok",
    }
    return [f"{key}={kind(values[key])}\n" for key, kind, _ in _META]


def write_trace(trace, path):
    """Write iteration records as CSV (also used for benchmark traces)."""
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for r in trace:
            row = (format(getattr(r, f.name), _TRACE_FORMAT[f.type]) for f in _TRACE_FIELDS)
            fh.write(",".join(row) + "\n")


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
    parsed = {}
    for key, kind, default in _META:
        if key not in meta and default is None:
            raise FormatError(f"meta is missing key {key!r}")
        try:
            parsed[key] = kind(meta[key]) if key in meta else default
        except ValueError as exc:
            raise FormatError(f"unparseable meta value: {exc}") from exc
    for key, low in _SIZES.items():
        if parsed[key] < low:
            raise FormatError(f"meta {key}={parsed[key]} must be >= {low}")
    if parsed["format_version"] != FORMAT_VERSION:
        raise FormatError(
            f"unrecognized format_version {parsed['format_version']}"
        )
    unknown = meta.keys() - parsed.keys()
    if unknown:
        raise FormatError(f"unknown meta key {min(unknown)!r}")
    if parsed["status"] not in _STATUSES:
        raise FormatError(f"meta status={parsed['status']} must be one of {_STATUSES}")
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
            if len(parts) != len(_TRACE_FIELDS):
                raise FormatError(
                    f"trace line {ln} has {len(parts)} fields, expected {len(_TRACE_FIELDS)}"
                )
            try:
                records.append(
                    IterationRecord(*(f.type(p) for f, p in zip(_TRACE_FIELDS, parts)))
                )
            except ValueError as exc:
                raise FormatError(f"unparseable trace line {ln}: {exc}") from exc
    return tuple(records)


def load_model(path):
    """Read an archive back into a LearnedModel.

    Shape mismatches between meta and the matrix files, and hyperparameters
    HyperParams refuses, raise FormatError; missing files surface as OSError.
    """
    meta = _parse_meta(os.path.join(path, "meta"))
    try:
        hyper = HyperParams(**{f.name: meta[f.name] for f in fields(HyperParams)})
    except ParameterError as exc:
        raise FormatError(f"meta {exc}") from exc
    C, d, k_c, k0 = (meta[key] for key in _SIZES)
    K = C * k_c
    D = _load_checked(path, "D.lmx", (d, K))
    D0 = _load_checked(path, "D0.lmx", (d, k0))
    class_means = _load_checked(path, "means_mc.lmx", (K, C))
    m0 = _load_checked(path, "mean_m0.lmx", (k0, 1)).ravel()
    dicts = DictionaryBundle(D=D, shared_dict=D0, C=C)
    means = MeanStats(class_means=class_means, shared_mean=m0)
    trace = _parse_trace(os.path.join(path, "trace.csv"))
    return LearnedModel(
        dict_bundle=dicts,
        mean_stats=means,
        hyper=hyper,
        trace=trace,
        aborted=meta["status"] == "aborted",
    )
