import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# reports the threads of the pytest process once every test has run
PROBE = """\
import os


def pytest_sessionfinish(session):
    with open(os.environ["THREAD_PROBE_OUT"], "w") as f:
        f.write(str(len(os.listdir("/proc/self/task"))))
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or (os.cpu_count() or 1) < 2,
    reason="counts /proc/self/task; on one core OpenBLAS starts no worker anyway",
)
def test_a_test_file_run_alone_computes_on_one_thread(tmp_path):
    # test_expsums.py imports numpy before gl3voronoi; tests/conftest.py,
    # loaded first, pins OpenBLAS before that import loads it.  Its own
    # thread test, which starts three more interpreters, is left out.
    (tmp_path / "thread_probe.py").write_text(PROBE)
    out = tmp_path / "threads.txt"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(tmp_path)]))
    env["THREAD_PROBE_OUT"] = str(out)
    env.pop("OPENBLAS_NUM_THREADS", None)
    own = "test_the_package_computes_on_one_thread_whatever_openblas_is_told"
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "thread_probe"]
    cmd += ["tests/test_expsums.py", "--deselect", f"tests/test_expsums.py::{own}"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert out.read_text() == "1"
