"""The benchmark binds program names by getattr: they must all exist.

bench/tracer.py wraps functions by module attribute, check functions by
``fn.__name__`` and methods on their classes; bench/child.py rebinds
``cli.CHECKS`` and ``cli.check_fault_injection`` and writes each
workload's overrides as a ``--config`` file.  Installing the tracer in a
fresh interpreter (it patches classes for good) and reading every
workload's config back catches a renamed or deleted name here rather
than only in a traced benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
from dataclasses import replace
from tracer import Tracer
from workloads import WORKLOADS, config_lines
from gl3voronoi import cli

tracer = Tracer()
tracer.install()
for w in WORKLOADS.values():
    for overrides in (w.overrides, w.tiny):
        path = sys.argv[1] + "/" + w.name + ".conf"
        with open(path, "w") as fh:
            fh.write(config_lines(overrides))
        assert cli.load_config_file(path) == overrides, w.name
        replace(cli.SuiteConfig(), **overrides).validate()
cli.run_suite(replace(cli.SuiteConfig(), gauss_c_max=6), ["gauss-modulus"])
tracer.dump(sys.argv[1] + "/trace.json")
"""


def test_tracer_installs_and_workload_configs_load(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "trace.json").stat().st_size > 0
