"""The benchmark's workloads, and what run.py and make_reference.py share.

Every workload runs through ``kkbench.cli.main(["run", ...])`` with
``--workers 1``.  ``realizations`` is the R of one ``cli.main`` call (a
"pass"); a benchmark run repeats passes of the same R realizations, so the
outputs of every pass are identical and the reference in ``reference.json``
applies to each.  ``layers`` names the modules the cell exercises; every other
module must record no calls in a traced run.  ``probe`` is the mix of the
calibration probe that run.py times after every realization: iterations of a
pure-Python loop, small numpy operations and 100x100 solves.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LAYERS = ("models", "kernels", "akkf", "baselines", "bench", "cli")


def pin_blas_threads(env) -> None:
    """Pin every BLAS/OpenMP pool to one thread; must precede importing numpy."""
    for var in BLAS_THREAD_VARS:
        env[var] = "1"


def import_kkbench():
    """Import kkbench from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "kkbench" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no kkbench sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kkbench
    import kkbench.cli

    if Path(kkbench.__file__).resolve().parent != SRC / "kkbench":
        raise SystemExit(f"perfbench: imported kkbench from {kkbench.__file__}, not {SRC}")
    return kkbench


def declared_metrics() -> dict:
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def quality(records) -> dict:
    """Tracking quality of one pass.

    The harness's metric mean (over realizations that did not diverge) with
    its standard error std/sqrt(n), the harness's ``diverged`` count, and the
    count of lost realizations: mean position error above 1 (LMSE > 0) among
    those that did not diverge.
    """
    from kkbench.bench import summarize

    summary = summarize(records)
    kept = [rec.metric for rec in records if not rec.diverged]
    return {
        "metric_mean": summary.metric_mean,
        "metric_se": summary.metric_std / math.sqrt(len(kept)) if kept else math.nan,
        "diverged": summary.diverged_count,
        "lost": sum(1 for m in kept if m > 0.0),
        "attempted": len(records),
    }


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    filter: str
    particles: int
    lam: float
    kappa: float
    realizations: int
    layers: frozenset
    probe: tuple

    def argv(self, seed: int, out: str, realizations: int | None = None) -> list[str]:
        """Arguments of the ``kkbench run`` call for one pass."""
        return [
            "run",
            "--scenario", self.scenario,
            "--filter", self.filter,
            "--particles", str(self.particles),
            "--realizations", str(realizations or self.realizations),
            "--seed", str(seed),
            "--lambda", repr(self.lam),
            "--kappa", repr(self.kappa),
            "--workers", "1",
            "--out", out,
        ]


_AKKF_LAYERS = frozenset({"models", "kernels", "akkf", "bench", "cli"})

WORKLOADS = {
    w.name: w
    for w in (
        # Kernel-algebra bound: 200x200 Gram assembly, ridge Cholesky solves
        # and the gain solve dominate; CV callbacks are linear and cheap.
        Workload("cv-akkf-quartic-200", "bot-cv", "akkf-quartic", 200, 1e-3, 1e-3, 12, _AKKF_LAYERS,
                 (150000, 0, 7)),
        # Callback bound: 150k process and 150k log-likelihood calls per
        # realization; no kernels or akkf code runs.
        Workload(
            "cv-pf-5000", "bot-cv", "pf", 5000, 1e-3, 1e-3, 12,
            frozenset({"models", "baselines", "bench", "cli"}), (40000, 3000, 7),
        ),
        # Both layers: per-particle CT noise roots (with eigh fallbacks), the
        # median bandwidth and the projection readout.
        Workload("ct-akkf-gaussian-100", "bot-ct", "akkf-gaussian", 100, 1e-3, 1e-2, 20, _AKKF_LAYERS,
                 (90000, 0, 18)),
    )
}
