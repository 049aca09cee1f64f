"""One benchmark repetition: run a workload once in this fresh interpreter.

Started by run.py, one child at a time, with GL3VORONOI_THREADS=1 and
PYTHONPATH pointing at the checkout's src/.  Writes a JSON result file:

- ``t_first_check``: CLOCK_MONOTONIC time at which the first check was
  entered (the parent took its spawn time on the same clock);
- ``reports``: every report, as ``VerificationReport.to_dict``;
- ``error``: set instead of ``reports`` when the program raised.

``--trace-out`` installs the tracer before running and writes its spans
and counters to that path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from dataclasses import replace

from workloads import WORKLOADS, config_lines


def _mark_first_check(cli, first: list) -> None:
    def marked(fn):
        def entered(config):
            if not first:
                first.append(time.monotonic())
            return fn(config)

        return entered

    for name, fn in list(cli.CHECKS.items()):
        cli.CHECKS[name] = marked(fn)
    cli.check_fault_injection = marked(cli.check_fault_injection)


def _run(cli, workload, seed: int, tiny: bool, stem: str) -> list[dict]:
    overrides = dict(workload.tiny if tiny else workload.overrides)
    if workload.checks is None:
        argv = ["verify", "all", "--seed", str(seed), "--format", "json"]
        report_path = stem + ".report.json"
        argv += ["--output", report_path]
        if overrides:
            conf_path = stem + ".conf"
            with open(conf_path, "w") as fh:
                fh.write(config_lines(overrides))
            argv += ["--config", conf_path]
        with open(os.devnull, "w") as sink:
            saved, sys.stdout = sys.stdout, sink
            try:
                cli.main(argv)
            finally:
                sys.stdout = saved
        with open(report_path) as fh:
            return json.load(fh)["reports"]
    config = replace(cli.SuiteConfig(), seed=seed, **overrides)
    return [r.to_dict() for r in cli.run_suite(config, list(workload.checks))]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    from gl3voronoi import cli

    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    first: list[float] = []
    _mark_first_check(cli, first)
    out: dict = {}
    code = 0
    try:
        out["reports"] = _run(
            cli, WORKLOADS[args.workload], args.seed, args.tiny, args.result
        )
    except Exception:  # the program crashed: report it, the parent fails the run
        out["error"] = traceback.format_exc()
        code = 1
    out["t_first_check"] = first[0] if first else None
    if tracer is not None:
        tracer.dump(args.trace_out)
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
