"""Module layering of the package, read from the source with ast.

No module reaches into another one's private (_underscore) names, and the
solver module prox is a leaf: of the package it imports only errors and it
reshapes nothing, so a coding problem's structure (classes, blocks,
weights) reaches the solver through its arguments only.

Shapes are checked where they enter: check_shapes runs at the coders'
shared step and at objective_terms only, and the builders between the
entry points and the solvers check nothing and cast nothing. Labels meet
one rule: only errors.check_labels asks whether a dtype is an integer one,
and Dataset.from_arrays counts no classes of its own.

src holds only what the system runs: every public function is called
from within the package, and each of its parameters with a default is set
by some call there, bar a named few. Importing the command line
loads nothing beyond numpy and the standard library. Every function the
benchmark's span tracer wraps by name is defined where it looks for it, and
the tracer counts the iterations of every fista role on a tiny run.

Files are opened in one place: only matio calls open, so every text file
the package reads or writes meets matio's one rule for encoding and lines.
"""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lrsdl"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def package_imports(module):
    """(imported package module, imported name or None) pairs of a module,
    relative or absolute, plus the attributes it reads off an imported
    package module (``from . import data`` then ``data._x``)."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    pairs, bound = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("lrsdl"):
                continue
            source = (node.module or "").removeprefix("lrsdl").lstrip(".")
            for alias in node.names:
                if source:
                    pairs.append((source, alias.name))
                else:  # from . import data
                    pairs.append((alias.name, None))
                    bound[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("lrsdl."):
                    source = alias.name.removeprefix("lrsdl.")
                    pairs.append((source, None))
                    if alias.asname:
                        bound[alias.asname] = source
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound
        ):
            pairs.append((bound[node.value.id], node.attr))
    return pairs


def is_private(name):
    return name is not None and name.startswith("_") and not name.startswith("__")


def test_every_module_is_scanned():
    assert {"prox", "learner", "classifier", "data", "errors"} <= set(MODULES)
    assert ("errors", "check_number") in package_imports("prox")


@pytest.mark.parametrize("module", MODULES)
def test_no_private_name_imported_across_modules(module):
    leaks = [
        f"{source}.{name}"
        for source, name in package_imports(module)
        if source != module and is_private(name)
    ]
    assert not leaks, f"{module} uses private names {leaks}"


def test_prox_imports_only_errors_from_the_package():
    sources = {source for source, _ in package_imports("prox")}
    assert sources == {"errors"}
    # nor does it reshape by a block count: a spread is handed to it whole
    tree = ast.parse((SRC / "prox.py").read_text())
    assert "reshape" not in {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


@pytest.mark.parametrize("module", ["prox", "classifier"])
def test_settings_are_judged_by_the_one_rule(module):
    # their scalar settings go through errors.check_number, which raises
    # the ParameterError; they hold no range check of their own
    assert ("errors", "ParameterError") not in package_imports(module)
    assert ("errors", "check_number") in package_imports(module)


def open_calls(module):
    """Line numbers of the calls named open (open, io.open, os.open,
    Path.open) in a package module."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return [
        n.lineno
        for n in ast.walk(tree)
        if isinstance(n, ast.Call)
        and "open" in (getattr(n.func, "id", None), getattr(n.func, "attr", None))
    ]


def test_only_matio_opens_files():
    openers = {module: open_calls(module) for module in MODULES}
    assert openers.pop("matio")
    assert not any(openers.values()), {m: lines for m, lines in openers.items() if lines}


def top_functions(module):
    """{name: FunctionDef} of the module-level functions of a package module."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}


# Each builder's callers run after check_shapes or classify's sample check.
BUILDERS = [
    ("gradients", "build_augmented_gram"),
    ("gradients", "gram_shared_codes"),
    ("gradients", "gram_test_code"),
    ("gradients", "residual_matrices"),
    ("gradients", "fidelity_value"),
    ("dictupdate", "class_dict_gram"),
]


@pytest.mark.parametrize("module, name", BUILDERS, ids=[n for _, n in BUILDERS])
def test_builders_check_nothing(module, name):
    body = list(ast.walk(top_functions(module)[name]))
    names = {n.id for n in body if isinstance(n, ast.Name)}
    attrs = {n.attr for n in body if isinstance(n, ast.Attribute)}
    assert not names & {"DimensionError", "check_shapes"}
    assert "asarray" not in attrs


def test_check_shapes_runs_only_at_entry_points():
    callers = {
        (module, name)
        for module in MODULES
        for name, top in top_functions(module).items()
        for n in ast.walk(top)
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Name)
        and n.func.id == "check_shapes"
    }
    assert callers == {("learner", "_code_classes"), ("gradients", "objective_terms")}


def test_one_label_rule():
    # labels are judged by errors.check_labels alone, wherever the call sits
    # (methods and module level included); from_arrays parses floats and
    # sorts, and leaves counting classes to check_class_layout
    calls = [
        (module, n.lineno)
        for module in MODULES
        for n in ast.walk(ast.parse((SRC / f"{module}.py").read_text()))
        if isinstance(n, ast.Call)
        and getattr(n.func, "attr", None) == "issubdtype"
        and getattr(n.args[1], "attr", None) == "integer"
    ]
    rule = top_functions("errors")["check_labels"]
    assert [m for m, _ in calls] == ["errors"]
    assert rule.lineno <= calls[0][1] <= rule.end_lineno
    tree = ast.parse((SRC / "data.py").read_text())
    dataset = next(n for n in tree.body if getattr(n, "name", None) == "Dataset")
    from_arrays = next(n for n in dataset.body if getattr(n, "name", None) == "from_arrays")
    assert "unique" not in {n.attr for n in ast.walk(from_arrays) if isinstance(n, ast.Attribute)}


# Public functions that nothing in the package calls, each with its reason.
UNCALLED_IN_SRC = {
    "cli.main": "the lrsdl console-script entry point (pyproject.toml)",
    "prox.soft_threshold": "the public l1 prox that fista's steps are checked against",
}


def public_functions():
    """{module.name: referenced} for each public module-level function,
    referenced when a module of the package names it (as a name or an
    attribute) outside its own body; __init__'s re-exports do not count."""
    defined, referenced = [], set()
    for module in MODULES:
        if module == "__init__":
            continue
        tree = ast.parse((SRC / f"{module}.py").read_text())
        for top in tree.body:
            names = {n.id for n in ast.walk(top) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(top) if isinstance(n, ast.Attribute)}
            if isinstance(top, ast.FunctionDef):
                names.discard(top.name)
                if not top.name.startswith("_"):
                    defined.append((module, top.name))
            referenced |= names
    return {f"{module}.{name}": name in referenced for module, name in defined}


def test_every_public_function_is_called_in_src():
    functions = public_functions()
    assert set(UNCALLED_IN_SRC) <= set(functions)
    uncalled = {name for name, used in functions.items() if not used}
    assert uncalled <= set(UNCALLED_IN_SRC), (
        f"public functions only tests call: {sorted(uncalled - set(UNCALLED_IN_SRC))}"
    )


# Parameters with a default that no call in the package sets, each with its
# reason; any other such parameter is an option only tests use.
DEFAULT_UNSET_IN_SRC = {
    "prox.fista.tol": "criterion 2 and the solver tests run tight or zero tolerances",
    "data.generate_synthetic.shared_scale": "a planted-model parameter, like noise_sigma",
    "cli.main.argv": "the console-script entry point",
}


def defaulted_parameters():
    """{module.function.param: set in src} for each parameter with a default
    of a public module-level function, set when some call in the package
    passes it, by keyword or by position (a call with *args or **kwargs
    sets every parameter it could reach)."""
    modules = [m for m in MODULES if m != "__init__"]
    trees = [ast.parse((SRC / f"{m}.py").read_text()) for m in modules]
    params = {}  # function name -> {qualified parameter name: position}
    for module, tree in zip(modules, trees):
        for top in tree.body:
            if isinstance(top, ast.FunctionDef) and not top.name.startswith("_"):
                assert top.name not in params, f"public name {top.name} defined twice"
                args = top.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                defaulted = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
                defaulted += [
                    (a.arg, math.inf) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d
                ]
                params[top.name] = {f"{module}.{top.name}.{a}": i for a, i in defaulted}
    set_in_src = {name: False for entries in params.values() for name in entries}
    for call in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Call)):
        callee = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        keywords = {k.arg for k in call.keywords}
        starred = None in keywords or any(isinstance(a, ast.Starred) for a in call.args)
        for name, position in params.get(callee, {}).items():
            if starred or position < len(call.args) or name.rsplit(".", 1)[1] in keywords:
                set_in_src[name] = True
    return set_in_src


def test_every_default_parameter_is_set_in_src():
    defaulted = defaulted_parameters()
    assert set(DEFAULT_UNSET_IN_SRC) <= set(defaulted)
    unset = {name for name, used in defaulted.items() if not used}
    assert unset <= set(DEFAULT_UNSET_IN_SRC), (
        f"parameters only tests set: {sorted(unset - set(DEFAULT_UNSET_IN_SRC))}"
    )


def test_import_loads_only_numpy_and_stdlib():
    # the benchmark's setup_s times this import in a fresh interpreter;
    # modules held before it (site may load some) do not count
    probe = (
        "import sys; before = set(sys.modules); import lrsdl.cli; "
        "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))"
    )
    path = filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "lrsdl" in out
    extra = set(out) - set(sys.stdlib_module_names) - {"numpy", "lrsdl"}
    assert not extra, f"import lrsdl.cli loads {sorted(extra)}"


def module_functions(module):
    """Names of the module-level functions defined in a package module."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return {top.name for top in tree.body if isinstance(top, ast.FunctionDef)}


def benchmark_tracer():
    """The namespace of perfbench/tracer.py. It imports only the standard
    library, so its source is run as read from disk, with nothing written
    beside it."""
    tracer = ROOT / "perfbench" / "tracer.py"
    namespace = {"__name__": "tracer"}
    exec(compile(tracer.read_text(), str(tracer), "exec"), namespace)
    return namespace


def test_benchmark_tracer_names_exist():
    # a name in the tracer's TRACED map that src no longer defines would
    # otherwise surface only as a crash of Tracer.install in a benchmark run
    traced = benchmark_tracer()["TRACED"]
    assert traced
    missing = [
        f"lrsdl.{module}.{name}"
        for module, names in traced.items()
        for name in names
        if module not in MODULES or name not in module_functions(module)
    ]
    assert not missing, f"the benchmark tracer wraps undefined functions {missing}"


def test_benchmark_tracer_counts_every_fista_role():
    # the tracer rebuilds each fista objective with its grad and value
    # fields and names the solve after the coding span it runs in, so a
    # change to fista's arguments, to SmoothObjective's fields or to where
    # a coding site calls fista shows up here as an error or a role
    # without iterations, not only in a benchmark run
    import lrsdl.cli  # noqa: F401  (the tracer patches every lrsdl module)
    from lrsdl import classifier, data, learner

    tracer_ns = benchmark_tracer()
    sample, _ = data.generate_synthetic(
        C=2, d=8, n_c=4, k_c=2, k0=2, shared_rank=1, noise_sigma=0.05, seed=3
    )
    plain, _ = data.generate_synthetic(
        C=2, d=8, n_c=4, k_c=2, k0=0, shared_rank=0, noise_sigma=0.05, seed=4
    )
    hyper = data.HyperParams(outer_iters=2, seed=0)
    tracer = tracer_ns["Tracer"]()
    tracer.install()
    try:
        model = learner.fit(sample, learner.TrainConfig(hyper=hyper, k_c=2, k0=2))
        plain_config = learner.TrainConfig(hyper=hyper, k_c=2, k0=0)
        learner.bench_joint_vs_sequential(plain, plain_config)
        classifier.classify(sample.Y[:, 0], model)
        classifier.classify(sample.Y, model)
    finally:
        tracer.uninstall()
    assert tracer.errors == []
    iters = {role: tracer.fista[role]["iters"] for role in tracer_ns["ROLES"]}
    assert all(n > 0 for n in iters.values()), iters
