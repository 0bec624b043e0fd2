"""The README's citations and code examples match the package."""

import ast
import importlib
import re
import shlex
from pathlib import Path

import numpy as np

import kkbench
from kkbench.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"

# A backticked `module.name`, or anything backticked after `kkbench.`.
CITED = re.compile(r"`(kkbench\.[A-Za-z_][\w.]*|(?:akkf|baselines|bench|cli|kernels|models)\.[A-Za-z_][\w.]*)`")
PYTHON_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)


def resolves(name: str) -> bool:
    # the package binds its six modules (cli once imported above) and
    # nothing else, so a name resolves only through the module that defines it
    obj = kkbench
    for attr in name.removeprefix("kkbench.").split("."):
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def python_blocks() -> list[str]:
    return PYTHON_BLOCK.findall(README.read_text(encoding="utf-8"))


def test_cited_names_resolve():
    names = sorted(set(CITED.findall(README.read_text(encoding="utf-8"))))
    assert names, "the pattern no longer matches how the README cites names"
    assert [name for name in names if not resolves(name)] == []


def test_python_blocks_compile():
    blocks = python_blocks()
    assert blocks, "the pattern no longer matches the README's python blocks"
    for i, block in enumerate(blocks):
        compile(block, f"README python block {i}", "exec")


def test_python_block_imports_resolve():
    missing = []
    for block in python_blocks():
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "kkbench":
                module = importlib.import_module(node.module)
                missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
    assert missing == []


def test_single_filter_block_runs():
    [block] = [block for block in python_blocks() if "state, belief = " in block]
    namespace = {}
    exec(compile(block, "README single-filter block", "exec"), namespace)
    estimates, model = namespace["estimates"], namespace["model"]
    assert estimates.shape == (model.state_dim, model.default_horizon)
    assert np.isfinite(estimates).all()


def test_command_lines_parse():
    # every line that starts with "kkbench ", backslash continuations joined
    text = README.read_text(encoding="utf-8").replace("\\\n", " ")
    lines = [line for line in text.splitlines() if line.startswith("kkbench ")]
    assert lines, "the README shows no kkbench command"
    parser = build_parser()
    rejected = []
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            rejected.append(line)
    assert rejected == []
