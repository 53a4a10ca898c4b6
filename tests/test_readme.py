"""README's command-line walkthrough and library example, run as written.

Every ``$ lrsdl ...`` command of the walkthrough block runs through
``lrsdl.cli.main`` in a fresh directory, and every ``key=value`` it prints
must equal the one README shows, except wall-clock ``*_time`` values.
Stale numbers in the docs then fail the suite. The Python block of the
"Library" section runs in a fresh directory too, so a change to the calls
it makes fails the suite as well. The archive layout block must list the
``meta`` keys of ``archive._META`` in order, with the current
``format_version``, and the trace header the code writes.
"""

import re
import shlex
from pathlib import Path

from lrsdl.archive import _META, FORMAT_VERSION, TRACE_HEADER
from lrsdl.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def walkthrough():
    """(argv, expected output) for each command of the walkthrough block."""
    text = README.read_text()
    block = re.search(r"A full walkthrough:\n\n```\n(.*?)```", text, re.S).group(1)
    steps = []
    for chunk in re.split(r"^\$ lrsdl ", block.replace("\\\n", " "), flags=re.M)[1:]:
        command, _, output = chunk.partition("\n")
        steps.append((shlex.split(command), output))
    return steps


def key_values(text):
    pairs = (tok.split("=", 1) for tok in text.split() if "=" in tok)
    return {k: v for k, v in pairs if not k.endswith("_time")}


def test_walkthrough_prints_readme_values(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    steps = walkthrough()
    assert [argv[0] for argv, _ in steps] == ["synth", "train", "classify", "bench"]
    for argv, expected in steps:
        assert main(argv) == 0, argv
        printed = capsys.readouterr().out
        assert key_values(printed) == key_values(expected), argv


def test_library_example_runs(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = re.search(r"## Library\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(code, "README.md", "exec"), {"__name__": "readme_example"})
    assert (tmp_path / "demo_model" / "meta").exists()
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_archive_layout_matches_the_code():
    block = re.search(r"\nmodel/\n(.*?)```", README.read_text(), re.S).group(1)
    meta = re.search(r"meta\s+key=value lines:(.*?)\n\s*D\.lmx", block, re.S).group(1)
    items = [item.strip() for item in meta.split(",")]
    assert [re.split(r"[=\s]", item)[0] for item in items] == [key for key, _, _ in _META]
    assert f"format_version={FORMAT_VERSION}" in items
    trace = re.search(r"^\s*trace\.csv\s+(\S+)\s*$", block, re.M).group(1)
    assert trace == TRACE_HEADER
