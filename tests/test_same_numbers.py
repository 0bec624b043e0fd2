"""The grid of tests/make_same_numbers.py gives the numbers its fixture holds, bit for bit."""

import json

from make_same_numbers import FIXTURE, moved_cells, platform_info, run_grid


def describe(platform: dict) -> str:
    return ", ".join(f"{key} {value}" for key, value in platform.items())


def test_grid_matches_fixture():
    fixture = json.loads(FIXTURE.read_text(encoding="utf-8"))
    observed = run_grid()
    moved = moved_cells(fixture["cells"], observed)
    assert len(observed) == len(fixture["cells"]) and not moved, (
        f"fixture written on {describe(fixture['platform'])}; "
        f"this run on {describe(platform_info())}; moved cells:\n" + "\n".join(moved)
    )
