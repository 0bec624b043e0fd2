"""Regenerate reference.json: the metrics of one pass per workload and seed.

Run from the repository root after a change that is meant to move tracking
quality, and say so in the change:

    python3 perfbench/make_reference.py                      # every workload, seeds 0-39 and 42
    python3 perfbench/make_reference.py --workload cv-pf-5000 --seeds 42

Entries for other workloads and seeds already in the file are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from workloads import OUT, REFERENCE, WORKLOADS, import_kkbench, pin_blas_threads, quality

TOLERANCE_SE = 4.0
TOLERANCE_ABS = 1e-9
DEFAULT_SEEDS = sorted(set(range(40)) | {42})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=lambda t: [int(s) for s in t.split(",")], default=DEFAULT_SEEDS)
    args = parser.parse_args(argv)
    pin_blas_threads(os.environ)
    import_kkbench()
    from kkbench.bench import read_run_csv
    from kkbench.cli import main as cli_main

    try:
        with open(REFERENCE) as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {"workloads": {}}
    reference.update(tolerance_se=TOLERANCE_SE, tolerance_abs=TOLERANCE_ABS)
    OUT.mkdir(exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        w = WORKLOADS[name]
        entry = reference["workloads"].setdefault(name, {"realizations": w.realizations, "seeds": {}})
        if entry["realizations"] != w.realizations:
            entry.update(realizations=w.realizations, seeds={})
        csv_path = str(OUT / f"reference-{name}.csv")
        for seed in args.seeds:
            if cli_main(w.argv(seed, csv_path)) != 0:
                raise SystemExit(f"{name} seed {seed}: kkbench run failed")
            records = read_run_csv(csv_path)
            entry["seeds"][str(seed)] = {
                **quality(records),
                "metrics": [rec.metric for rec in records],
                "diverged_at": [rec.realization for rec in records if rec.diverged],
            }
        entry["seeds"] = dict(sorted(entry["seeds"].items(), key=lambda kv: int(kv[0])))
        with open(REFERENCE, "w") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
