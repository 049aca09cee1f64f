"""Write bench/expected.json: the expectations the benchmark's gate checks.

    python3 bench/pin.py

Run it only at a commit whose verdicts are known good (it was run once,
at the commit that added the benchmark).  For every workload, at full
and at tiny size, it runs one child per pinned seed and records:

- every report name with its verdict and its count parameters (cases,
  runs, models, primitive_count), which must agree across the seeds;
- every report's max_residual per seed.
"""

from __future__ import annotations

import json
import sys
import time

from run import COUNT_PARAMS, EXPECTED, RUN_LIMIT_S, spawn
from workloads import WORKLOADS

PIN_SEEDS = (1729, 2024, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)  # includes DEFAULT_SEED, which min_margin refers to
RESIDUAL_FACTOR = 10.0
MARGIN_CAP = 16.0


def pin(workload: str, tiny: bool) -> dict:
    spec: dict = {"reports": None, "residuals": {}}
    for seed in PIN_SEEDS:
        c = spawn(workload, seed, time.monotonic() + RUN_LIMIT_S, tiny=tiny)
        if not c.reports:
            raise SystemExit(f"{workload} seed {seed}: no reports ({c.result})")
        reports = {
            r["check_name"]: {
                "pass": r["pass"],
                "counts": {k: v for k, v in r["parameters"].items() if k in COUNT_PARAMS},
            }
            for r in c.reports
        }
        if spec["reports"] is None:
            spec["reports"] = reports
        elif reports != spec["reports"]:
            raise SystemExit(f"{workload}: verdicts or counts differ at seed {seed}")
        spec["residuals"][str(seed)] = {r["check_name"]: r["max_residual"] for r in c.reports}
        print(f"{workload}{' tiny' if tiny else ''} seed {seed}: {c.wall:.1f} s", flush=True)
    return spec


def main() -> int:
    """Pin every workload, at full and tiny size, in one run."""
    pinned = {
        "residual_factor": RESIDUAL_FACTOR,
        "margin_cap": MARGIN_CAP,
        "seeds": list(PIN_SEEDS),
        "workloads": {},
    }
    for name in WORKLOADS:
        for tiny in (True, False):
            pinned["workloads"][name + ("/tiny" if tiny else "")] = pin(name, tiny)
    EXPECTED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
