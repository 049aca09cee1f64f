"""Self-test of the benchmark, in about a minute.

    python3 bench/selftest.py

For each workload at its tiny size it checks that the end-to-end run
passes the gate and prints every end_to_end metric of BENCHMARK.json,
and that two traced runs print every per_layer metric with identical
*.calls counts.  Then it feeds the gate wrong expectations (a fault
probe expected to PASS, a wrong run count, a pinned residual far below
the measured one, a crashed child) and checks that each one is counted
as failed.  Exits 1 on the first failure.
"""

from __future__ import annotations

import copy
import json
import sys
import time

from run import ROOT, gate, load_expected, measure, spawn, traced
from workloads import DEFAULT_SEED, WORKLOADS


def expect(condition: bool, what: str) -> None:
    if not condition:
        print(f"FAIL {what}")
        raise SystemExit(1)
    print(f"ok   {what}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    expect({w["name"] for w in bench["workloads"]} == set(WORKLOADS), "workload names")

    for name in WORKLOADS:
        run = measure(name, DEFAULT_SEED, 0, tiny=True)
        expect(run["failed"] == 0 and not run["errors"], f"{name}: gate passes")
        expect(set(run["metrics"]) == end_to_end, f"{name}: every end_to_end metric")
        first, second = (traced(name, DEFAULT_SEED, tiny=True) for _ in range(2))
        expect(first["failed"] == 0, f"{name}: traced run passes the gate")
        expect(set(first["metrics"]) == per_layer, f"{name}: every per_layer metric")
        calls = [
            {k: v for k, v in t["metrics"].items() if k.endswith(".calls")}
            for t in (first, second)
        ]
        expect(calls[0] == calls[1], f"{name}: *.calls identical across traced runs")

    spec = load_expected("identity-window", tiny=True)
    wrong = copy.deepcopy(spec)
    wrong["reports"]["z-expansion-fault-injected"]["pass"] = True
    run = measure("identity-window", DEFAULT_SEED, 0, tiny=True, spec=wrong)
    expect(run["metrics"]["pass_ratio"][0] < 1.0, "probe expected to PASS gives failed_ratio > 0")

    reports = spawn("identity-window", DEFAULT_SEED, time.monotonic() + 60, tiny=True).reports
    wrong = copy.deepcopy(spec)
    wrong["reports"]["moebius-assembly"]["counts"]["runs"] = "13"
    expect(gate(reports, wrong, DEFAULT_SEED)[0] == 1, "a wrong run count fails one report")
    wrong = copy.deepcopy(spec)
    wrong["residuals"][str(DEFAULT_SEED)]["z-expansion"] /= 1000
    expect(gate(reports, wrong, DEFAULT_SEED)[0] == 1, "residual drift past the factor fails")

    failed, attempted, _ = gate(None, spec, DEFAULT_SEED)
    expect(failed == attempted == len(spec["reports"]), "a crashed child fails every report")
    return 0


if __name__ == "__main__":
    sys.exit(main())
