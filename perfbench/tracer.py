"""Span tracer that wraps the lrsdl layer functions from outside the package.

Each traced function is replaced, in every ``lrsdl`` module that binds it,
by a wrapper that records a span (name, parent, round, start, end). The
package imports names directly (``from .prox import fista``), so patching
only the defining module would silently miss those call sites; ``install``
therefore rebinds every module attribute that *is* the original function
and then verifies that no original binding is left.

``fista`` gets a special wrapper: its span is named after the caller role
(the innermost open coding span), and it hands the real solver a
``SmoothObjective`` whose ``grad`` and ``value`` are counting, timing
wrappers. FISTA calls ``grad`` exactly once per iteration, so the grad
count is the iteration count.
"""

import dataclasses
import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

# module -> functions wrapped in a span; together they cover every layer
TRACED = {
    "cli": ("main",),
    "learner": (
        "bench_joint_vs_sequential",
        "fit",
        "initialize",
        "sparse_code_train",
        "_solve_shared_codes",
        "sparse_code_sequential",
        "_update_class_dicts",
    ),
    "dictupdate": ("odl_update", "update_shared_dict"),
    "prox": ("fista", "admm_nuclear", "svt", "power_iteration_lipschitz"),
    "gradients": ("objective_terms", "build_augmented_gram", "residual_matrices"),
    "classifier": (
        "evaluate",
        "classify",
        "encode_test",
        "class_scores",
        "test_coding_lipschitz",
    ),
    "archive": ("save_model", "load_model", "write_trace"),
    "matio": ("load_matrix", "save_matrix", "load_labels"),
    "data": ("normalize_columns", "mean_stats"),
}

# innermost open span -> the role of a fista call made under it
FISTA_ROLES = {
    "learner.sparse_code_train": "class",
    "learner._solve_shared_codes": "shared",
    "learner.sparse_code_sequential": "seq",
    "classifier.encode_test": "test",
}
ROLES = ("class", "shared", "seq", "test")


def span_names():
    """Every span name the tracer can record, fista split by role."""
    names = []
    for mod, funcs in TRACED.items():
        for fn in funcs:
            if (mod, fn) == ("prox", "fista"):
                names.extend(f"prox.fista.{r}" for r in ROLES)
            else:
                names.append(f"{mod}.{fn}")
    return names


class Tracer:
    """Collects spans in memory while installed; ``uninstall`` restores
    every original binding."""

    def __init__(self):
        self.spans = []  # [id, parent id, round, name, start, end]
        self.fista = defaultdict(lambda: defaultdict(float))  # role -> counters
        self.errors = []
        self.round = 0
        self._stack = []
        self._patched = []  # (module, attribute, original)

    # -- patching ---------------------------------------------------------

    def install(self):
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lrsdl" or name.startswith("lrsdl."))
        ]
        originals = {}
        for mod, funcs in TRACED.items():
            home = sys.modules[f"lrsdl.{mod}"]
            for fn in funcs:
                orig = getattr(home, fn)
                if (mod, fn) == ("prox", "fista"):
                    wrapper = self._wrap_fista(orig)
                else:
                    wrapper = self._wrap(f"{mod}.{fn}", orig)
                originals[id(orig)] = (orig, wrapper)
        for m in modules:
            for attr, val in list(vars(m).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(m, attr, hit[1])
                    self._patched.append((m, attr, val))
        left = [
            f"{m.__name__}.{attr}"
            for m in modules
            for attr, val in vars(m).items()
            if id(val) in originals and originals[id(val)][0] is val
        ]
        if left:
            self.uninstall()
            raise RuntimeError(f"tracer left original bindings: {left}")

    def uninstall(self):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched = []

    # -- spans ------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1][0] if self._stack else None
        rec = [len(self.spans), parent, self.round, name, perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def _close(self, rec):
        rec[5] = perf_counter()
        popped = self._stack.pop()
        if popped is not rec:
            self.errors.append(f"span {rec[3]} closed out of order")

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(rec)

        return traced

    def _role(self):
        for rec in reversed(self._stack):
            role = FISTA_ROLES.get(rec[3])
            if role is not None:
                return role
        return None

    def _wrap_fista(self, fista):
        tracer = self
        sig = inspect.signature(fista)

        @functools.wraps(fista)
        def traced(*args, **kwargs):
            role = tracer._role()
            if role is None:
                tracer.errors.append("fista called outside any known coding span")
                return fista(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            obj = bound.arguments["obj"]
            acc = [0, 0.0, 0.0]  # iterations, grad seconds, value seconds

            # these run every FISTA iteration: keep them lean
            def grad(M, _g=obj.grad, _t=perf_counter):
                t = _t()
                out = _g(M)
                acc[0] += 1
                acc[1] += _t() - t
                return out

            value = None
            if obj.value is not None:

                def value(M, _v=obj.value, _t=perf_counter):
                    t = _t()
                    out = _v(M)
                    acc[2] += _t() - t
                    return out

            bound.arguments["obj"] = dataclasses.replace(obj, grad=grad, value=value)
            rec = tracer._open(f"prox.fista.{role}")
            try:
                return fista(*bound.args, **bound.kwargs)
            finally:
                tracer._close(rec)
                stats = tracer.fista[role]
                stats["iters"] += acc[0]
                stats["grad_s"] += acc[1]
                stats["value_s"] += acc[2]
                stats["budget_hits"] += acc[0] >= bound.arguments["max_iter"]

        return traced

    # -- results ----------------------------------------------------------

    def totals(self):
        """name -> {"s", "self_s", "calls"} summed over all recorded spans."""
        child_s = defaultdict(float)
        for sid, parent, _, _, t0, t1 in self.spans:
            if parent is not None:
                child_s[parent] += t1 - t0
        out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for sid, _, _, name, t0, t1 in self.spans:
            agg = out[name]
            agg["s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child_s[sid]
            agg["calls"] += 1
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, rnd, name, t0, t1 in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "round": rnd, "name": name,
                         "start": t0, "end": t1}
                    )
                    + "\n"
                )
