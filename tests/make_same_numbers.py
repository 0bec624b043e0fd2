"""Write tests/data/same_numbers.json, the per-realization metrics of a small grid.

The grid is every scenario x filter cell at M=20 (the PF at M=200), plus
``bot-cv`` akkf-quadratic at M=30, whose r = 15 features take the factored
change of basis on a BOT scenario, at two realizations and seed 42.  At
these sizes no BLAS call splits across threads, so the numbers do not
depend on the thread count.  ``tests/test_same_numbers.py`` runs the grid
again and compares every metric's ``repr`` and diverged flag exactly; the
rule is in ``tests/data/README.md``.

Run from the repository root: ``PYTHONPATH=src python tests/make_same_numbers.py``.
It prints each cell that moved against the fixture it replaces, with the
old and new runs, before it writes.
"""

import json
import platform
from pathlib import Path

import numpy as np
import scipy

from kkbench.bench import FILTERS, SCENARIOS, ScenarioConfig, run_mc

FIXTURE = Path(__file__).resolve().parent / "data" / "same_numbers.json"
SEED = 42
REALIZATIONS = 2


def grid() -> list[ScenarioConfig]:
    cells = [
        ScenarioConfig(scenario, name, 200 if name == "pf" else 20, REALIZATIONS, SEED)
        for scenario in SCENARIOS
        for name in FILTERS
    ]
    return cells + [ScenarioConfig("bot-cv", "akkf-quadratic", 30, REALIZATIONS, SEED)]


def run_grid() -> list[dict]:
    """Each cell's label and its realizations as [repr(metric), diverged] pairs."""
    rows = []
    for cfg in grid():
        records, _ = run_mc(cfg)
        runs = [[repr(rec.metric), rec.diverged] for rec in records]
        rows.append({"scenario": cfg.scenario, "filter": cfg.filter, "M": cfg.M, "runs": runs})
    return rows


def moved_cells(old_cells: list[dict], new_cells: list[dict]) -> list[str]:
    """One line per cell whose runs differ: its label, then the old runs -> the new runs."""
    return [
        f"{new['scenario']} {new['filter']}@{new['M']}: {old['runs']} -> {new['runs']}"
        for old, new in zip(old_cells, new_cells)
        if old != new
    ]


def platform_info() -> dict:
    """The interpreter, the numerical libraries and the machine that ran the grid."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> None:
    cells = run_grid()
    if FIXTURE.exists():
        for line in moved_cells(json.loads(FIXTURE.read_text(encoding="utf-8"))["cells"], cells):
            print(line)
    fixture = {
        "platform": platform_info(),
        "seed": SEED,
        "realizations": REALIZATIONS,
        "cells": cells,
    }
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(fixture, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
