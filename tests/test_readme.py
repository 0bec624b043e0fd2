"""The package names that the README cites resolve."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# A backticked `module.name`, with or without the `kkbench.` prefix.
CITED = re.compile(r"`(?:kkbench\.)?((?:akkf|baselines|bench|cli|kernels|models)\.[A-Za-z_][\w.]*)`")


def resolves(name: str) -> bool:
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"kkbench.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_cited_names_resolve():
    names = sorted(set(CITED.findall(README.read_text(encoding="utf-8"))))
    assert names, "the pattern no longer matches how the README cites names"
    assert [name for name in names if not resolves(name)] == []
