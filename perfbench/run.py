#!/usr/bin/env python3
"""lrsdl benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload train_shared --seed 1 --seconds 25 --trace 0

Run from the repository root. The package is imported from ``src/`` of the
checkout this file sits in, never from an installed copy. With ``--trace 0``
the last line of output is a JSON object with the end-to-end metrics; with
``--trace 1`` rounds alternate untraced and traced, and it carries the
per-layer metrics (per traced round) plus the tracing overhead. Each run
writes its context and every metric to ``perfbench/out/``, and a traced
run writes its spans there too. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

# One BLAS thread, never more than nproc: on the 2-core machine the
# benchmark was sized on, two threads made the reference fit about twice as
# slow and noisier, because the matrices are small.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# A process pays for importing numpy and lrsdl and for its first LAPACK
# call once. Each problem's set-up measures both in a fresh interpreter, so
# set-up time is a median over the run's problems like every other time.
COLD_START_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import numpy as np
import lrsdl.cli
t1 = time.perf_counter()
np.linalg.svd(np.random.default_rng(0).standard_normal((200, 200)))
print(t1 - t0, time.perf_counter() - t1)
"""

END_TO_END = (
    ("setup_s", "s"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
    ("command_s", "s"),
    ("objective", "objective"),
)

SELF_SPANS = (
    "cli.main", "learner.bench_joint_vs_sequential", "learner.fit",
    "learner.sparse_code_train", "learner.sparse_code_sequential",
    "learner._update_class_dicts", "dictupdate.update_shared_dict",
    "prox.admm_nuclear", "classifier.evaluate", "classifier.classify",
    "classifier.encode_test", "archive.save_model", "archive.load_model",
)
CALL_SPANS = (
    "dictupdate.odl_update", "prox.svt", "prox.power_iteration_lipschitz",
    "gradients.objective_terms", "classifier.encode_test",
)
FISTA_STATS = (("iters", "count"), ("budget_hit_ratio", "ratio"), ("grad_s", "s"), ("value_s", "s"))
TRACING = (("tracing.overhead_s", "s"), ("tracing.overhead_ratio", "ratio"), ("tracing.spans", "count"))


def per_layer_catalog(span_names, roles):
    """(name, unit) of every per-layer metric, in output order."""
    out = [(f"{n}.s", "s") for n in span_names]
    out += [(f"{n}.self_s", "s") for n in SELF_SPANS]
    out += [(f"{n}.calls", "count") for n in CALL_SPANS]
    for r in roles:
        out.append((f"prox.fista.{r}.calls", "count"))
        out += [(f"prox.fista.{r}.{k}", unit) for k, unit in FISTA_STATS]
    return out + list(TRACING)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("train_shared", "classify_heldout", "bench_coders"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is for the smoke test only")
    return p.parse_args(argv)


def git_sha():
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lrsdl").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_threads_in_use():
    """Ask the loaded OpenBLAS how many threads it runs; None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_context(np, args, nproc):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = blas_threads_in_use()
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads if threads is not None else BLAS_THREADS,
        "blas_threads_source": "library" if threads is not None else "environment",
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def cold_start():
    """(import seconds, first-SVD seconds) of a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START_PROBE, str(ROOT / "src")],
        capture_output=True, text=True, timeout=120, check=True,
    )
    import_s, svd_s = map(float, proc.stdout.split())
    return import_s, svd_s


def timed_rounds(wl, ledger, seconds, tracer):
    """Closed loop until the deadline. Round i works on problem i mod P;
    with a tracer, each problem gets an untraced round and then a traced one."""
    rounds = []
    deadline = perf_counter() + seconds
    while len(rounds) < wl.min_rounds(tracer is not None) or perf_counter() < deadline:
        i = len(rounds)
        traced = tracer is not None and i % 2 == 1
        problem = wl.problems[(i // 2 if tracer is not None else i) % len(wl.problems)]
        if traced:
            tracer.round = i
            tracer.install()
        t0 = perf_counter()
        try:
            wl.run_round(problem, ledger)
        finally:
            if traced:
                tracer.uninstall()
        rounds.append((traced, perf_counter() - t0))
    return rounds


def layer_metrics(tracer, rounds, wl, span_names, roles):
    """Per-layer values per traced round, plus the span presence problems."""
    traced = [s for t, s in rounds if t]
    plain = [s for t, s in rounds if not t]
    n = len(traced)
    totals = tracer.totals()
    values = {}
    for name in span_names:
        values[f"{name}.s"] = totals[name]["s"] / n
    for name in SELF_SPANS:
        values[f"{name}.self_s"] = totals[name]["self_s"] / n
    for name in CALL_SPANS:
        values[f"{name}.calls"] = totals[name]["calls"] / n
    for r in roles:
        calls = totals[f"prox.fista.{r}"]["calls"]
        stats = tracer.fista[r]
        values[f"prox.fista.{r}.calls"] = calls / n
        values[f"prox.fista.{r}.iters"] = stats["iters"] / n
        values[f"prox.fista.{r}.budget_hit_ratio"] = stats["budget_hits"] / calls if calls else 0.0
        values[f"prox.fista.{r}.grad_s"] = stats["grad_s"] / n
        values[f"prox.fista.{r}.value_s"] = stats["value_s"] / n
    base = statistics.median(plain)
    values["tracing.overhead_s"] = statistics.median(traced) - base
    values["tracing.overhead_ratio"] = values["tracing.overhead_s"] / base
    values["tracing.spans"] = len(tracer.spans) / n

    problems = list(tracer.errors)
    problems += [f"span {s} did not fire" for s in wl.required if totals[s]["calls"] == 0]
    problems += [f"span {s} fired but the workload bypasses it"
                 for s in wl.absent if totals[s]["calls"] > 0]
    return values, problems


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "lrsdl" / "__init__.py").is_file():
        print(f"perfbench: no lrsdl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np

    import lrsdl
    import lrsdl.cli  # noqa: F401  (registers the module the workloads call)

    if Path(lrsdl.__file__).resolve().parent != ROOT / "src" / "lrsdl":
        print(f"perfbench: imported lrsdl from {lrsdl.__file__}", file=sys.stderr)
        return 2
    import tracer as tracer_mod
    import workloads

    context = run_context(np, args, nproc)
    if context["blas_threads"] > nproc:
        print(f"perfbench: {context['blas_threads']} BLAS threads > nproc {nproc}",
              file=sys.stderr)
        return 2

    # the first LAPACK call of a process is slow: make it before timing
    np.linalg.svd(np.random.default_rng(args.seed).standard_normal((200, 200)))

    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        wl = workloads.WORKLOADS[args.workload](args.size)
        n_problems = wl.p["P"]
        setup_reps = []
        for k in range(n_problems):
            import_s, cold_svd_s = cold_start()
            pdir = work / f"problem{k}"
            pdir.mkdir(parents=True, exist_ok=True)
            t0 = perf_counter()
            # problem seeds of different benchmark seeds never overlap
            wl.problems.append(wl.setup(args.seed * n_problems + k, str(pdir)))
            setup_reps.append({"import_s": import_s, "cold_svd_s": cold_svd_s,
                               "inputs_s": perf_counter() - t0})
        setup_s = statistics.median(sum(r.values()) for r in setup_reps)

        ledger = workloads.Ledger()
        tracer = tracer_mod.Tracer() if args.trace else None
        rounds = timed_rounds(wl, ledger, args.seconds, tracer)
        e2e, named = wl.summary()
    except workloads.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors = list(ledger.errors)
    all_values = {
        "setup_s": (setup_s, "s"),
        "success_rate": ((ledger.attempted - ledger.failed) / ledger.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "error_rate": (ledger.failed / ledger.attempted, "ratio"),
        "import_s": (statistics.median(r["import_s"] for r in setup_reps), "s"),
        "cold_svd_s": (statistics.median(r["cold_svd_s"] for r in setup_reps), "s"),
        **e2e,
        **named,
    }
    catalog = END_TO_END
    if tracer is not None:
        span_names = tracer_mod.span_names()
        catalog = per_layer_catalog(span_names, tracer_mod.ROLES)
        layer, problems = layer_metrics(tracer, rounds, wl, span_names, tracer_mod.ROLES)
        errors += problems
        units = dict(catalog)
        all_values.update({k: (v, units[k]) for k, v in layer.items()})
        tracer.write_spans(OUT / f"spans-{tag}.jsonl")
    metrics = {name: {"value": all_values[name][0], "unit": unit} for name, unit in catalog}
    errors += [f"metric {k} is not finite" for k, m in metrics.items()
               if not math.isfinite(m["value"])]

    result = {
        "correct": not errors,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump({
            **result,
            "context": context,
            "why": wl.why,
            "all_metrics": {k: {"value": v, "unit": u} for k, (v, u) in all_values.items()},
            "setup_reps": setup_reps,
            "rounds": [{"traced": t, "seconds": s} for t, s in rounds],
            "errors": errors,
        }, fh, indent=1)

    print("context " + json.dumps(context))
    for name, (value, unit) in all_values.items():
        print(f"  {name} = {value:.6g} {unit}")
    for e in errors:
        print(f"CHECK FAILED: {e}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
